/**
 * @file
 * A bounded MPMC request queue with explicit admission control.
 *
 * Every push decides by `admitDecision`, invalid (per the caller's
 * `valid` verdict) first. Producers choose their backpressure per call:
 *  - `tryPush` never blocks: a full queue rejects with
 *    `Admission::RejectedQueueFull` (the load-shedding front door);
 *  - `pushBlocking` waits for space (the cooperating-producer door) and
 *    only rejects on shutdown (or invalidity, which never waits);
 *  - `pushOrdered` additionally serializes *admission order* by request
 *    id: request k's accept/reject decision is made strictly after
 *    request k-1's, no matter which producer thread delivers it. Replayed
 *    arrival traces therefore admit identically regardless of producer
 *    count — the property the determinism stress tests pin down.
 *
 * The single consumer side (`pop`) coalesces up to `max_n` requests per
 * call, waiting up to a deadline for the first one — the primitive the
 * dynamic batcher is built on.
 */

#ifndef ENMC_SERVE_QUEUE_H
#define ENMC_SERVE_QUEUE_H

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "common/stats.h"
#include "obs/registry.h"
#include "serve/request.h"

namespace enmc::serve {

/** A request travelling through the live queue with its reply channel. */
struct QueuedRequest
{
    Request request;
    /** Fulfilled by the serve loop; invalid for trace-replay requests. */
    std::shared_ptr<std::promise<Response>> reply;
};

class RequestQueue
{
  public:
    explicit RequestQueue(size_t capacity);

    size_t capacity() const { return capacity_; }
    size_t size() const;
    bool closed() const;

    /** Non-blocking admission; full queue => RejectedQueueFull. */
    Admission tryPush(QueuedRequest item, bool valid = true);

    /** Blocks while full (backpressure) unless invalid. */
    Admission pushBlocking(QueuedRequest item, bool valid = true);

    /**
     * Like `tryPush`, but the admission decision for request id k is
     * made strictly after the decision for id k-1 (ids must be dense
     * from the id the queue was constructed to expect, default 0).
     * Blocks until it is this request's turn; any admission outcome
     * (including a rejection) passes the turn to id k+1.
     */
    Admission pushOrdered(QueuedRequest item, bool valid = true);

    /**
     * Pop up to `max_n` requests. Blocks until at least one request is
     * available or `wait` elapses or the queue is closed; never waits
     * for the batch to fill beyond the first request. Returns the number
     * popped (0 = timeout or closed-and-drained).
     */
    size_t pop(size_t max_n, std::chrono::microseconds wait,
               std::vector<QueuedRequest> &out);

    /**
     * Close the queue: wakes every blocked producer/consumer; later
     * pushes reject with RejectedShutdown. Queued requests remain
     * poppable (drain-then-stop semantics).
     */
    void close();

    /**
     * Replay-mode bookkeeping: the virtual-time simulation models this
     * queue rather than pushing through it, but its decisions should land
     * in the same "serve.queue" stats. `depth` is the modeled occupancy
     * the decision was made against.
     */
    void recordReplayAdmission(Admission a, size_t depth);
    /** Replay-mode bookkeeping: `n` modeled requests left for a batch. */
    void recordReplayPop(size_t n);

    StatGroup &stats() { return stats_; }

  private:
    Admission admitLocked(QueuedRequest &&item, bool valid,
                          std::unique_lock<std::mutex> &lock);
    void recordDecision(Admission a);

    const size_t capacity_;

    mutable std::mutex mutex_;
    std::condition_variable space_cv_;  //!< signals producers: slot free
    std::condition_variable items_cv_;  //!< signals consumers: item queued
    std::condition_variable order_cv_;  //!< signals pushOrdered: your turn
    std::deque<QueuedRequest> items_;
    RequestId next_ordered_id_ = 0;
    bool closed_ = false;

    StatGroup stats_;
    Counter &stat_admitted_;
    Counter &stat_rejected_full_;
    Counter &stat_rejected_shutdown_;
    Counter &stat_popped_;
    Histogram &stat_depth_;
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::serve

#endif // ENMC_SERVE_QUEUE_H
