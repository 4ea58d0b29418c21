/**
 * @file
 * End-to-end tests of the cluster fabric behind the serving loop.
 *
 * The contracts under test, from ISSUE acceptance criteria:
 *  - a 1-node cluster is bit-identical (logits, admissions, schedule
 *    timestamps) to the plain single-backend ServeLoop, for every
 *    simulation thread count;
 *  - a multi-node cluster changes *where* label rows are computed but
 *    never the answer — every admitted response matches the single-query
 *    reference forward;
 *  - a scripted mid-run node kill is survived with zero wrong answers,
 *    zero dispatches to the dead node, and a still-deterministic replay;
 *  - a mid-run screener refresh is served per snapshot: every response
 *    carries the epoch it was computed under and that epoch's answer;
 *  - the cluster serves through the classifier's candidate cache, with
 *    the fabric running only the misses, and the cache never meets a
 *    node that injects faults or runs resilient.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <vector>

#include "cluster/router.h"
#include "common/rng.h"
#include "runtime/api.h"
#include "serve/loop.h"
#include "workloads/synthetic.h"

namespace enmc::serve {
namespace {

class ClusterServingTest : public ::testing::Test
{
  protected:
    ClusterServingTest()
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

    /** Serving config targeting an N-node cluster. */
    static ServeConfig
    clusterConfig(uint64_t nodes, uint64_t replication)
    {
        ServeConfig cfg;
        cfg.backend = "cluster";
        cfg.queue_capacity = 64;
        cfg.max_batch = 8;
        cfg.max_delay_us = 50.0;
        cfg.warmup_requests = 0;
        cfg.topk = 5;
        cfg.cluster.nodes = nodes;
        cfg.cluster.replication = replication;
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
            r.candidates = 32 + 8 * (i % 3);
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
        ASSERT_EQ(a.snapshot_epoch, b.snapshot_epoch);
    }

    workloads::SyntheticModel model_;
    Rng rng_;
    std::vector<tensor::Vector> train_;
    std::vector<tensor::Vector> val_;
    std::vector<tensor::Vector> queries_;
};

TEST_F(ClusterServingTest, OneNodeClusterBitIdenticalToPlainBackend)
{
    // The 1-node cluster degenerates to the existing single-backend
    // path: no scatter/gather, no handoff, one shard covering the whole
    // label space. Logits, admissions, AND the dispatch/completion
    // schedule must be bit-identical — for every ENMC_THREADS setting.
    const ArrivalTrace arrivals = trace();
    for (uint64_t threads : {1, 4, 8}) {
        auto clf = makeClassifier(threads);

        ServeConfig plain_cfg = clusterConfig(1, 1);
        plain_cfg.backend = "enmc";
        ServeLoop plain(plain_cfg, job());
        plain.attachClassifier(*clf);
        const ServeReport a = plain.replay(arrivals);

        ServeLoop clustered(clusterConfig(1, 1), job());
        clustered.attachClassifier(*clf);
        const ServeReport b = clustered.replay(arrivals);

        ASSERT_EQ(a.responses.size(), b.responses.size());
        for (size_t i = 0; i < a.responses.size(); ++i) {
            expectBitIdentical(a.responses[i], b.responses[i]);
            ASSERT_DOUBLE_EQ(a.responses[i].dispatch_us,
                             b.responses[i].dispatch_us)
                << "threads=" << threads << " request " << i;
            ASSERT_DOUBLE_EQ(a.responses[i].complete_us,
                             b.responses[i].complete_us)
                << "threads=" << threads << " request " << i;
        }
    }
}

TEST_F(ClusterServingTest, MultiNodeClusterMatchesSingleQueryReference)
{
    // Sharding 4 ways (with replication) moves label rows onto different
    // simulated nodes; every admitted response must still equal the
    // unsharded single-query forward bit-for-bit.
    auto clf = makeClassifier(4);
    auto reference = makeClassifier(4);
    ServeLoop loop(clusterConfig(4, 2), job());
    loop.attachClassifier(*clf);
    const ServeReport report = loop.replay(trace());

    ASSERT_EQ(report.responses.size(), queries_.size());
    for (const Response &resp : report.responses) {
        ASSERT_EQ(resp.admission, Admission::Admitted);
        const auto ref = reference->forward({queries_[resp.id]}, 5);
        ASSERT_EQ(resp.probabilities.size(), ref[0].probabilities.size());
        ASSERT_EQ(std::memcmp(resp.probabilities.data(),
                              ref[0].probabilities.data(),
                              ref[0].probabilities.size() * sizeof(float)),
                  0)
            << "cluster logits differ from reference, request " << resp.id;
        ASSERT_EQ(resp.topk, ref[0].topk);
    }
}

TEST_F(ClusterServingTest, ClusterReplayBitIdenticalAcrossSimThreads)
{
    const ArrivalTrace arrivals = trace();
    std::vector<ServeReport> reports;
    for (uint64_t threads : {1, 4, 8}) {
        auto clf = makeClassifier(threads);
        ServeLoop loop(clusterConfig(4, 2), job());
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
            ASSERT_DOUBLE_EQ(reports[v].responses[i].dispatch_us,
                             reports[0].responses[i].dispatch_us);
            ASSERT_DOUBLE_EQ(reports[v].responses[i].complete_us,
                             reports[0].responses[i].complete_us);
        }
    }
}

TEST_F(ClusterServingTest, MidRunKillServesEveryAnswerCorrectly)
{
    // Kill node 1 after two routed batches. The run must finish with
    // zero wrong answers, zero dispatches to the dead node, and the
    // failover visible in the router stats.
    auto clf = makeClassifier(4);
    auto reference = makeClassifier(4);
    ServeConfig cfg = clusterConfig(4, 2);
    cfg.cluster.kill.node = 1;
    cfg.cluster.kill.after_batches = 2;
    ServeLoop loop(cfg, job());
    loop.attachClassifier(*clf);
    const ServeReport report = loop.replay(trace());

    ASSERT_EQ(report.responses.size(), queries_.size());
    for (const Response &resp : report.responses) {
        ASSERT_EQ(resp.admission, Admission::Admitted);
        const auto ref = reference->forward({queries_[resp.id]}, 5);
        ASSERT_EQ(resp.probabilities.size(), ref[0].probabilities.size());
        ASSERT_EQ(std::memcmp(resp.probabilities.data(),
                              ref[0].probabilities.data(),
                              ref[0].probabilities.size() * sizeof(float)),
                  0)
            << "post-kill logits differ from reference, request "
            << resp.id;
        ASSERT_EQ(resp.topk, ref[0].topk);
    }

    cluster::ClusterRouter *router = loop.clusterRouter();
    ASSERT_NE(router, nullptr);
    EXPECT_EQ(router->liveNodeCount(), 3u);
    EXPECT_FALSE(router->node(1).alive());
    EXPECT_EQ(router->stats().counter("nodeKills").value(), 1u);
    EXPECT_EQ(router->stats().counter("deadDispatches").value(), 0u);
    EXPECT_GT(router->stats().counter("reroutes").value(), 0u);
    // Scatter/gather accounting closes: the per-node dispatch tallies
    // sum to the router's fan-out total (the check_metrics invariant).
    uint64_t node_total = 0;
    for (size_t n = 0; n < router->nodeCount(); ++n)
        node_total +=
            router->node(n).stats().counter("dispatchedBatches").value();
    EXPECT_EQ(node_total,
              router->stats().counter("shardDispatches").value());
    EXPECT_GT(router->stats().counter("routedBatches").value(), 2u);
}

TEST_F(ClusterServingTest, KilledRunReplaysReproducibly)
{
    // The failover re-times the batches after the kill; two replays of
    // the same killed run must still agree on every timestamp and every
    // bit.
    auto clf = makeClassifier(4);
    ServeConfig cfg = clusterConfig(4, 2);
    cfg.cluster.kill.node = 2;
    cfg.cluster.kill.after_batches = 1;
    const ArrivalTrace arrivals = trace();

    ServeLoop loop_a(cfg, job());
    ServeLoop loop_b(cfg, job());
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

TEST_F(ClusterServingTest, ReplaySwapServesEachEpochsExactOutput)
{
    // A screener refresh mid-run: the cluster dispatch serves each batch
    // from one snapshot, stamps that snapshot's epoch on every response,
    // and each answer equals the single-query reference at that epoch.
    auto clf = makeClassifier(4);
    ServeLoop loop(clusterConfig(4, 2), job());
    loop.attachClassifier(*clf);
    loop.scheduleSwap(1, [&] { clf->refresh(train_, val_); });
    const ServeReport report = loop.replay(trace());

    // The refresh seed depends only on (options.seed, epoch), so a twin
    // refreshed once holds the served classifier's epoch-2 screener.
    auto ref1 = makeClassifier(4);
    auto ref2 = makeClassifier(4);
    ASSERT_EQ(ref2->refresh(train_, val_), 2u);

    ASSERT_EQ(report.responses.size(), queries_.size());
    bool saw_old = false, saw_new = false;
    for (const Response &resp : report.responses) {
        ASSERT_EQ(resp.admission, Admission::Admitted);
        ASSERT_TRUE(resp.snapshot_epoch == 1 || resp.snapshot_epoch == 2)
            << "request " << resp.id << " served under epoch "
            << resp.snapshot_epoch;
        runtime::EnmcClassifier &ref =
            resp.snapshot_epoch == 1 ? *ref1 : *ref2;
        const auto expect = ref.forward({queries_[resp.id]}, 5);
        ASSERT_EQ(expect[0].snapshot_epoch, resp.snapshot_epoch);
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
        ASSERT_EQ(resp.candidates, expect[0].candidates);
        saw_old |= resp.snapshot_epoch == 1;
        saw_new |= resp.snapshot_epoch == 2;
    }
    EXPECT_TRUE(saw_old) << "swap after batch 1 must leave epoch-1 output";
    EXPECT_TRUE(saw_new) << "swap never took effect";
}

TEST_F(ClusterServingTest, CacheOnMatchesUnshardedReference)
{
    // Zipf-repeated queries over a 4-node, 2-way-replicated cluster that
    // loses node 1 and refreshes its screener mid-run, with the cache on:
    // hits are served host-side, misses scatter/gather over the fabric,
    // and every response equals a cache-off single-node reference at
    // that response's epoch.
    runtime::ClassifierOptions opt;
    opt.candidates = 48;
    opt.cache.capacity = 16;
    runtime::SystemConfig sys;
    sys.sim_threads = 4;
    runtime::EnmcClassifier clf(model_.classifier(), opt, sys);
    clf.calibrate(train_, val_);

    ServeConfig cfg = clusterConfig(4, 2);
    cfg.cluster.kill.node = 1;
    cfg.cluster.kill.after_batches = 2;
    ServeLoop loop(cfg, job());
    loop.attachClassifier(clf);
    loop.scheduleSwap(3, [&] { clf.refresh(train_, val_); });

    constexpr size_t kRequests = 48;
    constexpr size_t kPool = 6;
    Rng pick(11);
    const ZipfSampler zipf(kPool, 1.1);
    std::vector<size_t> query_of(kRequests);
    ArrivalTrace arrivals;
    for (size_t i = 0; i < kRequests; ++i) {
        query_of[i] = static_cast<size_t>(zipf(pick));
        Request r;
        r.id = i;
        r.hidden = queries_[query_of[i]];
        r.arrival_us = static_cast<double>(i / 8) * 120.0 +
                       static_cast<double>(i % 2) * 10.0;
        arrivals.requests.push_back(r);
    }
    arrivals.normalize();
    const ServeReport report = loop.replay(arrivals);

    auto ref1 = makeClassifier(4);
    auto ref2 = makeClassifier(4);
    ASSERT_EQ(ref2->refresh(train_, val_), 2u);

    ASSERT_EQ(report.responses.size(), kRequests);
    size_t hits = 0;
    bool saw_new = false;
    for (const Response &resp : report.responses) {
        ASSERT_EQ(resp.admission, Admission::Admitted);
        ASSERT_TRUE(resp.snapshot_epoch == 1 || resp.snapshot_epoch == 2)
            << "request " << resp.id << " served under epoch "
            << resp.snapshot_epoch;
        runtime::EnmcClassifier &ref =
            resp.snapshot_epoch == 1 ? *ref1 : *ref2;
        const auto expect = ref.forward({queries_[query_of[resp.id]]}, 5);
        ASSERT_EQ(resp.probabilities.size(),
                  expect[0].probabilities.size());
        ASSERT_EQ(std::memcmp(resp.probabilities.data(),
                              expect[0].probabilities.data(),
                              expect[0].probabilities.size() *
                                  sizeof(float)),
                  0)
            << "request " << resp.id << " (epoch " << resp.snapshot_epoch
            << ", cache hit " << resp.cache_hit
            << ") does not match its epoch's reference";
        ASSERT_EQ(resp.topk, expect[0].topk);
        ASSERT_EQ(resp.candidates, expect[0].candidates);
        hits += resp.cache_hit ? 1 : 0;
        saw_new |= resp.snapshot_epoch == 2;
    }
    EXPECT_GT(hits, 0u) << "the cluster path never hit the cache";
    EXPECT_TRUE(saw_new) << "the refresh never took effect";

    cluster::ClusterRouter *router = loop.clusterRouter();
    ASSERT_NE(router, nullptr);
    EXPECT_FALSE(router->node(1).alive());
    EXPECT_EQ(router->stats().counter("deadDispatches").value(), 0u);
}

// Threadsafe death tests: ENMC_FATAL's exit joins the global pool, whose
// threads a forked child lacks (see ApiTest's cache death tests).
TEST_F(ClusterServingTest, CacheOnFaultInjectingNodesIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    runtime::ClassifierOptions opt;
    opt.candidates = 48;
    opt.cache.capacity = 16;
    runtime::EnmcClassifier clf(model_.classifier(), opt);
    clf.calibrate(train_, val_);
    runtime::SystemConfig node;
    node.fault.enabled = true;
    ServeLoop loop(clusterConfig(4, 2), job(), node);
    EXPECT_DEATH(loop.attachClassifier(clf), "fault injection");
}

TEST_F(ClusterServingTest, CacheOnResilientNodesIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    runtime::ClassifierOptions opt;
    opt.candidates = 48;
    opt.cache.capacity = 16;
    runtime::EnmcClassifier clf(model_.classifier(), opt);
    clf.calibrate(train_, val_);
    runtime::SystemConfig node;
    node.resilient = true;
    ServeLoop loop(clusterConfig(4, 2), job(), node);
    EXPECT_DEATH(loop.attachClassifier(clf), "resilient mode");
}

TEST_F(ClusterServingTest, LiveModeClusterMatchesReference)
{
    // The live threaded path shares the router with replay; submit the
    // query set through the real executor thread and check answers.
    auto clf = makeClassifier(4);
    auto reference = makeClassifier(4);
    ServeLoop loop(clusterConfig(4, 2), job());
    loop.attachClassifier(*clf);
    loop.start();

    std::vector<std::future<Response>> futures;
    for (size_t i = 0; i < queries_.size(); ++i) {
        Request r;
        r.id = i;
        r.hidden = queries_[i];
        futures.push_back(loop.submitOrdered(std::move(r)));
    }
    std::vector<Response> responses;
    for (auto &f : futures)
        responses.push_back(f.get());
    const ServeReport report = loop.stop();
    ASSERT_EQ(report.responses.size(), queries_.size());

    for (size_t i = 0; i < queries_.size(); ++i) {
        ASSERT_EQ(responses[i].admission, Admission::Admitted);
        const auto ref = reference->forward({queries_[i]}, 5);
        ASSERT_EQ(std::memcmp(responses[i].probabilities.data(),
                              ref[0].probabilities.data(),
                              ref[0].probabilities.size() * sizeof(float)),
                  0)
            << "live cluster logits differ from reference, request " << i;
        ASSERT_EQ(responses[i].topk, ref[0].topk);
    }
}

} // namespace
} // namespace enmc::serve
