/**
 * @file
 * Tests for the bounded MPMC request queue: admission control,
 * backpressure, ordered admission, invalid-request rejection, and
 * drain-then-stop shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/queue.h"

namespace enmc::serve {
namespace {

QueuedRequest
qr(RequestId id)
{
    QueuedRequest q;
    q.request.id = id;
    return q;
}

TEST(RequestQueue, TryPushRejectsWhenFull)
{
    RequestQueue queue(4);
    for (RequestId id = 0; id < 4; ++id)
        EXPECT_EQ(queue.tryPush(qr(id)), Admission::Admitted);
    EXPECT_EQ(queue.tryPush(qr(4)), Admission::RejectedQueueFull);
    EXPECT_EQ(queue.size(), 4u);
    EXPECT_EQ(queue.stats().counter("admitted").value(), 4u);
    EXPECT_EQ(queue.stats().counter("rejectedFull").value(), 1u);
}

TEST(RequestQueue, PopCoalescesUpToMaxInFifoOrder)
{
    RequestQueue queue(16);
    for (RequestId id = 0; id < 5; ++id)
        ASSERT_EQ(queue.tryPush(qr(id)), Admission::Admitted);

    std::vector<QueuedRequest> out;
    EXPECT_EQ(queue.pop(3, std::chrono::microseconds(0), out), 3u);
    ASSERT_EQ(out.size(), 3u);
    for (RequestId id = 0; id < 3; ++id)
        EXPECT_EQ(out[id].request.id, id);

    out.clear();
    EXPECT_EQ(queue.pop(3, std::chrono::microseconds(0), out), 2u);
    EXPECT_EQ(out[0].request.id, 3u);
    EXPECT_EQ(out[1].request.id, 4u);
    EXPECT_EQ(queue.stats().counter("popped").value(), 5u);
}

TEST(RequestQueue, PopTimesOutOnEmptyQueue)
{
    RequestQueue queue(4);
    std::vector<QueuedRequest> out;
    EXPECT_EQ(queue.pop(4, std::chrono::microseconds(500), out), 0u);
    EXPECT_TRUE(out.empty());
}

TEST(RequestQueue, CloseRejectsLaterPushesWithShutdown)
{
    RequestQueue queue(4);
    ASSERT_EQ(queue.tryPush(qr(0)), Admission::Admitted);
    queue.close();
    EXPECT_EQ(queue.tryPush(qr(1)), Admission::RejectedShutdown);
    EXPECT_EQ(queue.pushBlocking(qr(2)), Admission::RejectedShutdown);
    EXPECT_EQ(queue.stats().counter("rejectedShutdown").value(), 2u);
}

TEST(RequestQueue, CloseDrainsQueuedItemsBeforeStopping)
{
    RequestQueue queue(4);
    ASSERT_EQ(queue.tryPush(qr(0)), Admission::Admitted);
    ASSERT_EQ(queue.tryPush(qr(1)), Admission::Admitted);
    queue.close();
    std::vector<QueuedRequest> out;
    EXPECT_EQ(queue.pop(8, std::chrono::microseconds(0), out), 2u);
    EXPECT_EQ(queue.pop(8, std::chrono::microseconds(0), out), 0u);
}

TEST(RequestQueue, PushBlockingWaitsForSpace)
{
    RequestQueue queue(1);
    ASSERT_EQ(queue.tryPush(qr(0)), Admission::Admitted);

    std::atomic<bool> admitted{false};
    std::thread producer([&] {
        EXPECT_EQ(queue.pushBlocking(qr(1)), Admission::Admitted);
        admitted.store(true);
    });
    // The producer must be blocked while the queue is at capacity.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(admitted.load());

    std::vector<QueuedRequest> out;
    EXPECT_EQ(queue.pop(1, std::chrono::microseconds(0), out), 1u);
    producer.join();
    EXPECT_TRUE(admitted.load());
    EXPECT_EQ(queue.size(), 1u);
}

TEST(RequestQueue, PushOrderedAdmitsInIdOrderAcrossThreads)
{
    constexpr size_t kRequests = 32;
    constexpr size_t kThreads = 4;
    RequestQueue queue(kRequests);

    // Each thread owns the ids congruent to it mod kThreads and pushes
    // them in ascending order; the interleaving ACROSS threads is
    // arbitrary, yet pushOrdered must still admit 0, 1, 2, ...
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (size_t i = t; i < kRequests; i += kThreads) {
                EXPECT_EQ(queue.pushOrdered(qr(i)), Admission::Admitted);
            }
        });
    for (auto &th : threads)
        th.join();

    std::vector<QueuedRequest> out;
    ASSERT_EQ(queue.pop(kRequests, std::chrono::microseconds(0), out),
              kRequests);
    for (RequestId id = 0; id < kRequests; ++id)
        EXPECT_EQ(out[id].request.id, id);
}

TEST(RequestQueue, PushOrderedRejectionStillPassesTheTurn)
{
    RequestQueue queue(2);
    EXPECT_EQ(queue.pushOrdered(qr(0)), Admission::Admitted);
    EXPECT_EQ(queue.pushOrdered(qr(1)), Admission::Admitted);
    // Full: ids 2 and 3 must each be rejected without deadlocking on
    // their predecessor's turn.
    EXPECT_EQ(queue.pushOrdered(qr(2)), Admission::RejectedQueueFull);
    EXPECT_EQ(queue.pushOrdered(qr(3)), Admission::RejectedQueueFull);
}

TEST(RequestQueue, InvalidRequestNeverWaitsAndPassesTheOrderedTurn)
{
    RequestQueue queue(1);
    ASSERT_EQ(queue.pushOrdered(qr(0)), Admission::Admitted);
    // The queue is full, yet an invalid request is rejected at once.
    EXPECT_EQ(queue.pushBlocking(qr(7), false), Admission::RejectedInvalid);
    EXPECT_EQ(queue.tryPush(qr(8), false), Admission::RejectedInvalid);
    // An invalid id 1 still consumes its turn, so id 2 is decided next.
    EXPECT_EQ(queue.pushOrdered(qr(1), false), Admission::RejectedInvalid);
    std::vector<QueuedRequest> out;
    ASSERT_EQ(queue.pop(1, std::chrono::microseconds(0), out), 1u);
    EXPECT_EQ(queue.pushOrdered(qr(2)), Admission::Admitted);
    EXPECT_EQ(queue.stats().counter("admitted").value(), 2u);
}

TEST(RequestQueue, CloseWakesBlockedOrderedProducer)
{
    RequestQueue queue(4);
    // Id 5's turn never comes (ids 0..4 are never pushed).
    std::thread producer([&] {
        EXPECT_EQ(queue.pushOrdered(qr(5)), Admission::RejectedShutdown);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.close();
    producer.join();
}

TEST(RequestQueue, DepthHistogramSamplesEveryDecision)
{
    RequestQueue queue(4);
    for (RequestId id = 0; id < 6; ++id)
        (void)queue.tryPush(qr(id));
    // 6 decisions (4 admits + 2 rejects), each sampling the depth.
    EXPECT_EQ(queue.stats().histogram("depth").total(), 6u);
}

} // namespace
} // namespace enmc::serve
