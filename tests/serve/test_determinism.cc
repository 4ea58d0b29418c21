/**
 * @file
 * Serving-layer determinism stress tests.
 *
 * The contract under test: with a fixed seed and a fixed arrival trace,
 * the serving layer produces bit-identical per-request logits and
 * identical admission decisions no matter how many worker threads the
 * functional simulation uses (the ENMC_THREADS axis, exercised here
 * in-process via SystemConfig::sim_threads) and no matter how many
 * producer threads deliver the requests (live mode with ordered
 * admission).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "runtime/api.h"
#include "serve/loop.h"
#include "workloads/synthetic.h"

namespace enmc::serve {
namespace {

class ServeDeterminismTest : public ::testing::Test
{
  protected:
    ServeDeterminismTest()
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

    /** A calibrated classifier whose slice simulation uses `threads`
     *  workers. Calibration is seeded, so every instance is identical. */
    std::unique_ptr<runtime::EnmcClassifier>
    makeClassifier(uint64_t threads)
    {
        runtime::ClassifierOptions opt;
        opt.candidates = 48;
        runtime::SystemConfig sys;
        sys.sim_threads = threads;
        auto clf = std::make_unique<runtime::EnmcClassifier>(
            model_.classifier(), opt, sys);
        clf->calibrate(train_, val_);
        return clf;
    }

    /** Full-scale job dimensions for the timing model; the functional
     *  logits come from the attached classifier at synthetic scale. */
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

    /** Random-ish but FIXED arrival trace over the query set: bursts,
     *  stragglers, and simultaneous arrivals. */
    ArrivalTrace
    trace() const
    {
        ArrivalTrace t;
        for (size_t i = 0; i < queries_.size(); ++i) {
            Request r;
            r.id = i;
            r.hidden = queries_[i];
            r.candidates = 32 + 8 * (i % 3);
            // Three bursts of eight with ties inside each burst.
            r.arrival_us = static_cast<double>(i / 8) * 120.0 +
                           static_cast<double>(i % 2) * 10.0;
            t.requests.push_back(r);
        }
        t.normalize();
        return t;
    }

    static void
    expectBitIdentical(const Response &a, const Response &b)
    {
        ASSERT_EQ(a.id, b.id);
        ASSERT_EQ(a.admission, b.admission);
        ASSERT_EQ(a.batch_size, b.batch_size);
        ASSERT_EQ(a.probabilities.size(), b.probabilities.size());
        if (!a.probabilities.empty()) {
            ASSERT_EQ(std::memcmp(a.probabilities.data(),
                                  b.probabilities.data(),
                                  a.probabilities.size() * sizeof(float)),
                      0)
                << "logits differ for request " << a.id;
        }
        ASSERT_EQ(a.topk, b.topk);
        ASSERT_EQ(a.candidates, b.candidates);
    }

    workloads::SyntheticModel model_;
    Rng rng_;
    std::vector<tensor::Vector> train_;
    std::vector<tensor::Vector> val_;
    std::vector<tensor::Vector> queries_;
};

TEST_F(ServeDeterminismTest, ReplayBitIdenticalAcrossSimThreads)
{
    const ArrivalTrace arrivals = trace();

    std::vector<ServeReport> reports;
    for (uint64_t threads : {1, 4, 8}) {
        auto clf = makeClassifier(threads);
        ServeLoop loop(config(), job(), runtime::SystemConfig{});
        loop.attachClassifier(*clf);
        reports.push_back(loop.replay(arrivals));
    }

    ASSERT_EQ(reports[0].responses.size(), arrivals.requests.size());
    for (size_t v = 1; v < reports.size(); ++v) {
        ASSERT_EQ(reports[v].responses.size(),
                  reports[0].responses.size());
        for (size_t i = 0; i < reports[0].responses.size(); ++i) {
            expectBitIdentical(reports[0].responses[i],
                               reports[v].responses[i]);
            // The schedule itself is thread-count-invariant too.
            ASSERT_DOUBLE_EQ(reports[v].responses[i].dispatch_us,
                             reports[0].responses[i].dispatch_us);
            ASSERT_DOUBLE_EQ(reports[v].responses[i].complete_us,
                             reports[0].responses[i].complete_us);
        }
    }
}

TEST_F(ServeDeterminismTest, ReplayIsReproducibleRunToRun)
{
    auto clf = makeClassifier(4);
    const ArrivalTrace arrivals = trace();
    ServeLoop loop_a(config(), job());
    ServeLoop loop_b(config(), job());
    loop_a.attachClassifier(*clf);
    loop_b.attachClassifier(*clf);
    const ServeReport a = loop_a.replay(arrivals);
    const ServeReport b = loop_b.replay(arrivals);
    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (size_t i = 0; i < a.responses.size(); ++i) {
        expectBitIdentical(a.responses[i], b.responses[i]);
        ASSERT_DOUBLE_EQ(a.responses[i].complete_us,
                         b.responses[i].complete_us);
    }
}

TEST_F(ServeDeterminismTest, AdmissionDecisionsIdenticalAcrossSimThreads)
{
    // Overloaded: capacity 8, 24 simultaneous arrivals. The admission
    // pattern (who gets in, who is shed) must not depend on thread count.
    ServeConfig cfg = config();
    cfg.queue_capacity = 8;
    ArrivalTrace arrivals = trace();
    for (Request &r : arrivals.requests)
        r.arrival_us = 0.0;
    arrivals.normalize();

    std::vector<std::vector<Admission>> decisions;
    for (uint64_t threads : {1, 4, 8}) {
        auto clf = makeClassifier(threads);
        ServeLoop loop(cfg, job());
        loop.attachClassifier(*clf);
        const ServeReport report = loop.replay(arrivals);
        std::vector<Admission> d;
        for (const Response &r : report.responses)
            d.push_back(r.admission);
        decisions.push_back(std::move(d));
    }
    EXPECT_GT(static_cast<int>(decisions[0].size()), 0);
    for (size_t v = 1; v < decisions.size(); ++v)
        EXPECT_EQ(decisions[v], decisions[0]);
    // And the overload actually sheds load in this configuration.
    size_t rejected = 0;
    for (Admission a : decisions[0])
        rejected += (a == Admission::RejectedQueueFull);
    EXPECT_EQ(rejected, arrivals.requests.size() - cfg.queue_capacity);
}

TEST_F(ServeDeterminismTest, LiveProducersMatchSingleQueryReference)
{
    // N producer threads hammer the live loop with ordered admission;
    // per-request logits must be bit-identical to serving each query
    // alone (batch-composition invariance of the batched kernels).
    auto clf = makeClassifier(4);
    auto reference = makeClassifier(4);

    ServeConfig cfg = config();
    cfg.queue_capacity = 64;
    ServeLoop loop(cfg, job());
    loop.attachClassifier(*clf);
    loop.start();

    constexpr size_t kProducers = 4;
    std::vector<std::future<Response>> futures(queries_.size());
    std::vector<std::thread> producers;
    for (size_t t = 0; t < kProducers; ++t)
        producers.emplace_back([&, t] {
            for (size_t i = t; i < queries_.size(); i += kProducers) {
                Request r;
                r.id = i;
                r.hidden = queries_[i];
                futures[i] = loop.submitOrdered(std::move(r));
            }
        });
    for (auto &p : producers)
        p.join();

    std::vector<Response> responses;
    for (auto &f : futures)
        responses.push_back(f.get());
    const ServeReport report = loop.stop();
    ASSERT_EQ(report.responses.size(), queries_.size());
    ASSERT_EQ(report.admittedCount(), queries_.size());

    for (size_t i = 0; i < queries_.size(); ++i) {
        ASSERT_EQ(responses[i].admission, Admission::Admitted);
        const auto ref = reference->forward({queries_[i]}, cfg.topk);
        ASSERT_EQ(responses[i].probabilities.size(),
                  ref[0].probabilities.size());
        ASSERT_EQ(std::memcmp(responses[i].probabilities.data(),
                              ref[0].probabilities.data(),
                              ref[0].probabilities.size() * sizeof(float)),
                  0)
            << "live logits differ from single-query reference, request "
            << i;
        ASSERT_EQ(responses[i].topk, ref[0].topk);
    }
}

TEST_F(ServeDeterminismTest, LiveQueueFullBackpressureSurfacesToCaller)
{
    // With logits enabled and a tiny queue, load shedding must surface
    // as RejectedQueueFull on the future, never as a hang or a drop.
    auto clf = makeClassifier(1);
    ServeConfig cfg = config();
    cfg.queue_capacity = 2;
    cfg.max_batch = 2;
    cfg.max_delay_us = 0.0;
    ServeLoop loop(cfg, job());
    loop.attachClassifier(*clf);
    loop.start();

    std::vector<std::future<Response>> futures;
    for (size_t i = 0; i < 64; ++i) {
        Request r;
        r.id = i;
        r.hidden = queries_[i % queries_.size()];
        futures.push_back(loop.submit(std::move(r)));
    }
    size_t admitted = 0, rejected = 0;
    for (auto &f : futures) {
        const Response resp = f.get();
        if (resp.admission == Admission::Admitted) {
            ++admitted;
            EXPECT_FALSE(resp.probabilities.empty());
        } else {
            EXPECT_EQ(resp.admission, Admission::RejectedQueueFull);
            ++rejected;
        }
    }
    EXPECT_EQ(admitted + rejected, 64u);
    EXPECT_GT(admitted, 0u);
    const ServeReport report = loop.stop();
    EXPECT_EQ(report.responses.size(), 64u);
}

TEST_F(ServeDeterminismTest, EmptyHiddenVectorRejectedAsInvalid)
{
    auto clf = makeClassifier(1);
    ServeLoop loop(config(), job());
    loop.attachClassifier(*clf);

    ArrivalTrace arrivals;
    Request good;
    good.id = 0;
    good.hidden = queries_[0];
    Request bad;
    bad.id = 1; // no hidden vector but logits were requested
    arrivals.requests = {good, bad};

    const ServeReport report = loop.replay(arrivals);
    ASSERT_EQ(report.responses.size(), 2u);
    EXPECT_EQ(report.responses[0].admission, Admission::Admitted);
    EXPECT_EQ(report.responses[1].admission, Admission::RejectedInvalid);
    EXPECT_EQ(report.rejectedCount(Admission::RejectedInvalid), 1u);
}

TEST_F(ServeDeterminismTest, LiveEntryPointsRejectEmptyHiddenAsInvalid)
{
    // Every live entry point applies replay's admission rule: with logits
    // requested, a request without a hidden vector is rejected as
    // invalid, never served with empty probabilities.
    auto clf = makeClassifier(1);
    ServeLoop loop(config(), job());
    loop.attachClassifier(*clf);
    loop.start();

    auto request = [&](RequestId id, bool with_hidden) {
        Request r;
        r.id = id;
        if (with_hidden)
            r.hidden = queries_[id];
        return r;
    };
    // Ordered admission takes ids 0, 1, ...: the invalid id 0 must still
    // pass its turn on, or the valid id 1 would wait forever.
    std::future<Response> bad_ordered = loop.submitOrdered(request(0, false));
    std::future<Response> good_ordered = loop.submitOrdered(request(1, true));
    std::future<Response> bad_try = loop.submit(request(2, false));
    std::future<Response> bad_blocking =
        loop.submitBlocking(request(3, false));

    EXPECT_EQ(bad_ordered.get().admission, Admission::RejectedInvalid);
    EXPECT_EQ(bad_try.get().admission, Admission::RejectedInvalid);
    EXPECT_EQ(bad_blocking.get().admission, Admission::RejectedInvalid);
    const Response good = good_ordered.get();
    EXPECT_EQ(good.admission, Admission::Admitted);
    EXPECT_FALSE(good.probabilities.empty());

    const ServeReport report = loop.stop();
    ASSERT_EQ(report.responses.size(), 4u);
    EXPECT_EQ(report.admittedCount(), 1u);
    EXPECT_EQ(report.rejectedCount(Admission::RejectedInvalid), 3u);
}

} // namespace
} // namespace enmc::serve
