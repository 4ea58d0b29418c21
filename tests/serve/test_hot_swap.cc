/**
 * @file
 * Online screener hot-swap tests: snapshot publication under live
 * threaded load and deterministic swap points in replay mode.
 *
 * The contracts under test:
 *  - a swap scheduled mid-run drops and corrupts nothing: every admitted
 *    request resolves, and its output is bit-identical to a reference
 *    classifier frozen at the epoch the response records;
 *  - every response's epoch is in {old, new} and epochs are
 *    non-decreasing in dispatch order (forward() acquires one snapshot
 *    per batch, so a batch never mixes epochs);
 *  - in replay mode the swap point is a pure function of (trace,
 *    after_batches): two runs are bit-identical response for response;
 *  - the snapshot slot's RCU grace list retires and collects correctly
 *    while readers hold snapshots (the TSan soak in CI repeats the live
 *    test under -fsanitize=thread to catch torn reads);
 *  - save() reads one snapshot, so a file saved while refreshes publish
 *    always holds exactly one published epoch's screener and seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/api.h"
#include "runtime/snapshot.h"
#include "screening/serialize.h"
#include "serve/loop.h"
#include "workloads/synthetic.h"

namespace enmc::serve {
namespace {

class HotSwapTest : public ::testing::Test
{
  protected:
    HotSwapTest()
        : model_(makeConfig()), rng_(model_.makeRng(1)),
          train_(model_.sampleHiddenBatch(rng_, 160)),
          val_(model_.sampleHiddenBatch(rng_, 48)),
          queries_(model_.sampleHiddenBatch(rng_, 24))
    {
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 1024;
        cfg.hidden = 64;
        return cfg;
    }

    std::unique_ptr<runtime::EnmcClassifier>
    makeClassifier(size_t cache_capacity = 0)
    {
        runtime::ClassifierOptions opt;
        opt.candidates = 48;
        opt.cache.capacity = cache_capacity;
        auto clf = std::make_unique<runtime::EnmcClassifier>(
            model_.classifier(), opt, runtime::SystemConfig{});
        clf->calibrate(train_, val_);
        return clf;
    }

    /** A twin already refreshed once — the epoch-2 reference. The
     *  refresh seed depends only on (options.seed, epoch), so this is
     *  bit-identical to the serving classifier's post-swap screener. */
    std::unique_ptr<runtime::EnmcClassifier>
    makeRefreshedTwin()
    {
        auto clf = makeClassifier();
        EXPECT_EQ(clf->refresh(train_, val_), 2u);
        return clf;
    }

    static runtime::JobSpec
    job()
    {
        runtime::JobSpec spec;
        spec.categories = 32768;
        spec.hidden = 128;
        spec.reduced = 32;
        spec.candidates = 512;
        return spec;
    }

    ServeConfig
    config() const
    {
        ServeConfig cfg;
        cfg.backend = "enmc";
        cfg.queue_capacity = 64;
        cfg.max_batch = 8;
        cfg.max_delay_us = 50.0;
        cfg.warmup_requests = 0;
        cfg.topk = 5;
        return cfg;
    }

    ArrivalTrace
    trace() const
    {
        ArrivalTrace t;
        for (size_t i = 0; i < queries_.size(); ++i) {
            Request r;
            r.id = i;
            r.hidden = queries_[i];
            r.arrival_us = static_cast<double>(i / 8) * 120.0 +
                           static_cast<double>(i % 2) * 10.0;
            t.requests.push_back(r);
        }
        t.normalize();
        return t;
    }

    /** Assert `resp` matches the epoch-appropriate reference bitwise. */
    void
    expectMatchesEpochReference(const Response &resp,
                                runtime::EnmcClassifier &ref1,
                                runtime::EnmcClassifier &ref2,
                                const tensor::Vector &h) const
    {
        ASSERT_TRUE(resp.snapshot_epoch == 1 || resp.snapshot_epoch == 2)
            << "request " << resp.id << " served under epoch "
            << resp.snapshot_epoch;
        runtime::EnmcClassifier &ref =
            resp.snapshot_epoch == 1 ? ref1 : ref2;
        const auto expect = ref.forward({h}, 5);
        ASSERT_EQ(resp.probabilities.size(),
                  expect[0].probabilities.size());
        ASSERT_EQ(std::memcmp(resp.probabilities.data(),
                              expect[0].probabilities.data(),
                              expect[0].probabilities.size() *
                                  sizeof(float)),
                  0)
            << "request " << resp.id << " (epoch " << resp.snapshot_epoch
            << ") does not match its epoch's reference";
        ASSERT_EQ(resp.topk, expect[0].topk);
    }

    workloads::SyntheticModel model_;
    Rng rng_;
    std::vector<tensor::Vector> train_;
    std::vector<tensor::Vector> val_;
    std::vector<tensor::Vector> queries_;
};

TEST_F(HotSwapTest, ReplaySwapIsDeterministicInTraceAndSwapPoint)
{
    const ArrivalTrace arrivals = trace();
    auto run = [&] {
        auto clf = makeClassifier(/*cache_capacity=*/32);
        ServeLoop loop(config(), job());
        loop.attachClassifier(*clf);
        loop.scheduleSwap(1, [&] { clf->refresh(train_, val_); });
        return loop.replay(arrivals);
    };

    const ServeReport a = run();
    const ServeReport b = run();
    ASSERT_EQ(a.responses.size(), arrivals.requests.size());
    ASSERT_EQ(a.responses.size(), b.responses.size());

    bool saw_old = false, saw_new = false;
    for (size_t i = 0; i < a.responses.size(); ++i) {
        const Response &ra = a.responses[i];
        const Response &rb = b.responses[i];
        ASSERT_EQ(ra.id, rb.id);
        ASSERT_EQ(ra.snapshot_epoch, rb.snapshot_epoch)
            << "swap point drifted between identical runs";
        ASSERT_EQ(ra.cache_hit, rb.cache_hit);
        ASSERT_DOUBLE_EQ(ra.dispatch_us, rb.dispatch_us);
        ASSERT_DOUBLE_EQ(ra.complete_us, rb.complete_us);
        ASSERT_EQ(ra.probabilities.size(), rb.probabilities.size());
        if (!ra.probabilities.empty()) {
            ASSERT_EQ(std::memcmp(ra.probabilities.data(),
                                  rb.probabilities.data(),
                                  ra.probabilities.size() * sizeof(float)),
                      0);
        }
        saw_old |= ra.snapshot_epoch == 1;
        saw_new |= ra.snapshot_epoch == 2;
    }
    EXPECT_TRUE(saw_old) << "swap after batch 1 must leave epoch-1 output";
    EXPECT_TRUE(saw_new) << "swap never took effect";
}

TEST_F(HotSwapTest, ReplaySwapServesEachEpochsExactOutput)
{
    auto clf = makeClassifier();
    ServeLoop loop(config(), job());
    loop.attachClassifier(*clf);
    loop.scheduleSwap(1, [&] { clf->refresh(train_, val_); });
    const ServeReport report = loop.replay(trace());

    auto ref1 = makeClassifier();
    auto ref2 = makeRefreshedTwin();
    ASSERT_EQ(report.responses.size(), queries_.size());
    for (const Response &r : report.responses) {
        ASSERT_EQ(r.admission, Admission::Admitted);
        expectMatchesEpochReference(r, *ref1, *ref2,
                                    queries_[static_cast<size_t>(r.id)]);
    }
}

TEST_F(HotSwapTest, LiveSwapUnderThreadedLoadDropsNothing)
{
    auto clf = makeClassifier();
    ServeConfig cfg = config();
    cfg.queue_capacity = 128;
    ServeLoop loop(cfg, job());
    loop.attachClassifier(*clf);
    // Swap after the third dispatched batch, while producers still push.
    loop.scheduleSwap(3, [&] { clf->refresh(train_, val_); });
    loop.start();

    constexpr size_t kProducers = 4;
    constexpr size_t kRequests = 48;
    std::vector<std::future<Response>> futures(kRequests);
    std::vector<std::thread> producers;
    for (size_t t = 0; t < kProducers; ++t)
        producers.emplace_back([&, t] {
            for (size_t i = t; i < kRequests; i += kProducers) {
                Request r;
                r.id = i;
                r.hidden = queries_[i % queries_.size()];
                futures[i] = loop.submitOrdered(std::move(r));
            }
        });
    for (auto &p : producers)
        p.join();

    auto ref1 = makeClassifier();
    auto ref2 = makeRefreshedTwin();
    std::vector<Response> responses;
    for (auto &f : futures)
        responses.push_back(f.get()); // a drop would hang right here
    const ServeReport report = loop.stop();
    ASSERT_EQ(report.responses.size(), kRequests);
    ASSERT_EQ(report.admittedCount(), kRequests)
        << "live swap must not shed load";

    for (const Response &r : responses) {
        ASSERT_EQ(r.admission, Admission::Admitted);
        expectMatchesEpochReference(
            r, *ref1, *ref2,
            queries_[static_cast<size_t>(r.id) % queries_.size()]);
    }

    // Epochs are non-decreasing in dispatch order: the swap fires between
    // batches on the executor thread, never mid-batch.
    std::sort(responses.begin(), responses.end(),
              [](const Response &a, const Response &b) {
                  return a.dispatch_us < b.dispatch_us;
              });
    uint64_t last = 0;
    for (const Response &r : responses) {
        ASSERT_GE(r.snapshot_epoch, last);
        last = r.snapshot_epoch;
    }
    EXPECT_EQ(clf->snapshotEpoch(), 2u);
}

TEST_F(HotSwapTest, ConcurrentRefreshWhileForwardServes)
{
    // The torn-read stress: one control thread retrains and swaps while
    // this thread serves forward() continuously. Run under TSan in the
    // nightly soak; here it must at minimum never crash, never serve an
    // out-of-range epoch, and keep the grace list bounded.
    auto clf = makeClassifier();
    constexpr uint64_t kSwaps = 4;
    std::atomic<bool> done{false};

    std::thread control([&] {
        for (uint64_t i = 0; i < kSwaps; ++i)
            clf->refresh(train_, val_);
        done.store(true);
    });

    uint64_t served = 0;
    uint64_t max_epoch = 0;
    while (!done.load() || served == 0) {
        const auto out =
            clf->forward({queries_[served % queries_.size()]}, 5);
        ASSERT_GE(out[0].snapshot_epoch, 1u);
        ASSERT_LE(out[0].snapshot_epoch, 1u + kSwaps);
        ASSERT_GE(out[0].snapshot_epoch, max_epoch)
            << "epoch went backwards";
        max_epoch = out[0].snapshot_epoch;
        ++served;
    }
    control.join();
    EXPECT_EQ(clf->snapshotEpoch(), 1u + kSwaps);
    EXPECT_LE(clf->snapshots().retiredCount(),
              clf->options().snapshot.max_retired);
    // With no readers left, everything retired is collectible.
    clf->snapshots().collect();
    EXPECT_EQ(clf->snapshots().retiredCount(), 0u);
}

bool
sameMatrix(const tensor::Matrix &a, const tensor::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(float)) == 0;
}

/** Projection (rebuilt from the saved seed) and weights, memcmp-exact. */
bool
sameScreener(const screening::Screener &a, const screening::Screener &b)
{
    return sameMatrix(a.projection().toDense(), b.projection().toDense()) &&
           sameMatrix(a.weights(), b.weights());
}

TEST_F(HotSwapTest, SaveDuringRefreshRoundTrips)
{
    // One control thread refreshes while this thread saves in a loop.
    // save() reads the screener and its projection seed from one
    // snapshot, so every saved file loads back as exactly one published
    // epoch's screener — never one epoch's weights over another epoch's
    // projection.
    auto clf = makeClassifier();
    constexpr uint64_t kRefreshes = 3;
    std::mutex published_mutex;
    // Pinned so every epoch's screener outlives its turn as current.
    std::vector<std::shared_ptr<const runtime::ScreenerSnapshot>> published{
        clf->snapshots().current()};
    std::atomic<bool> done{false};

    std::thread control([&] {
        for (uint64_t i = 0; i < kRefreshes; ++i) {
            clf->refresh(train_, val_);
            std::lock_guard<std::mutex> lock(published_mutex);
            published.push_back(clf->snapshots().current());
        }
        done.store(true);
    });

    const std::string path = ::testing::TempDir() + "hot_swap_save.enmc";
    size_t saves = 0;
    size_t unmatched = 0;
    while (!done.load() || saves == 0) {
        clf->save(path);
        const auto loaded = screening::loadScreenerFile(path);
        // The epoch the save read is either still current or was pinned
        // before the publish that superseded it.
        auto candidates = std::vector{clf->snapshots().current()};
        {
            std::lock_guard<std::mutex> lock(published_mutex);
            candidates.insert(candidates.end(), published.begin(),
                              published.end());
        }
        uint64_t match = 0;
        for (const auto &snap : candidates)
            if (sameScreener(*loaded, snap->screener()))
                match = snap->epoch();
        unmatched += match == 0 ? 1 : 0;
        ++saves;
    }
    control.join();
    std::remove(path.c_str());
    EXPECT_EQ(unmatched, 0u)
        << unmatched << " of " << saves
        << " saved files match no published epoch";
    EXPECT_EQ(clf->snapshotEpoch(), 1u + kRefreshes);
}

TEST_F(HotSwapTest, SnapshotSlotRetiresAndCollectsUnderReaders)
{
    auto make_screener = [&](uint64_t seed) {
        screening::ScreenerConfig cfg;
        cfg.categories = 64;
        cfg.hidden = 16;
        Rng rng(seed);
        return std::make_unique<screening::Screener>(cfg, rng);
    };

    runtime::ScreenerSnapshotSlot slot;
    EXPECT_EQ(slot.epoch(), 0u);
    EXPECT_EQ(slot.current(), nullptr);

    EXPECT_EQ(slot.publish(make_screener(1), 1), 1u);
    auto reader = slot.current(); // holds epoch 1 across the swaps below
    ASSERT_NE(reader, nullptr);
    EXPECT_EQ(reader->epoch(), 1u);

    EXPECT_EQ(slot.publish(make_screener(2), 2), 2u);
    EXPECT_EQ(slot.publish(make_screener(3), 3), 3u);
    EXPECT_EQ(slot.epoch(), 3u);
    // Epoch 2 had no readers, so auto-collect freed it at the next
    // publish; epoch 1 is pinned by `reader`.
    EXPECT_EQ(slot.retiredCount(), 1u);
    EXPECT_EQ(slot.collect(), 0u);
    EXPECT_EQ(reader->epoch(), 1u) << "reader's snapshot must stay alive";

    reader.reset();
    EXPECT_EQ(slot.collect(), 1u);
    EXPECT_EQ(slot.retiredCount(), 0u);

    const StatGroup &s = slot.stats();
    EXPECT_EQ(s.counter("publishes").value(), 3u);
    EXPECT_EQ(s.counter("swaps").value(), 2u);
    EXPECT_EQ(s.counter("retired").value(), 2u);
    EXPECT_EQ(s.counter("collected").value(), 2u);
}

TEST(SnapshotConfigTest, EnvParsingAppliesOverrides)
{
    setenv("ENMC_SNAPSHOT_MAX_RETIRED", "3", 1);
    setenv("ENMC_SNAPSHOT_AUTO_COLLECT", "0", 1);
    const runtime::SnapshotConfig cfg = runtime::snapshotConfigFromEnv();
    unsetenv("ENMC_SNAPSHOT_MAX_RETIRED");
    unsetenv("ENMC_SNAPSHOT_AUTO_COLLECT");
    EXPECT_EQ(cfg.max_retired, 3u);
    EXPECT_FALSE(cfg.auto_collect);

    const runtime::SnapshotConfig defaults = runtime::snapshotConfigFromEnv();
    EXPECT_EQ(defaults.max_retired, 8u);
    EXPECT_TRUE(defaults.auto_collect);
}

} // namespace
} // namespace enmc::serve
