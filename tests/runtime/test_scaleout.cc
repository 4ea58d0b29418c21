/**
 * @file
 * Tests for the scale-out (multi-node) ENMC model, which is the cluster
 * router: its scatter / compute / gather timing terms on a failure-free,
 * replication-1 cluster, and the functional scatter/gather through it.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cluster/router.h"
#include "screening/trainer.h"
#include "tensor/topk.h"
#include "workloads/synthetic.h"

namespace enmc::runtime {
namespace {

JobSpec
globalJob(uint64_t l = 10'000'000)
{
    JobSpec spec;
    spec.categories = l;
    spec.hidden = 512;
    spec.reduced = 128;
    spec.batch = 1;
    spec.candidates = l / 2500;
    spec.sigmoid = true;
    return spec;
}

/** Paper Section 8's scale-out: one shard per node, no replication, no
 *  per-shard handoff. */
cluster::ClusterConfig
scaleOut(uint64_t nodes)
{
    cluster::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.replication = 1;
    cfg.node_handoff_us = 0.0;
    return cfg;
}

cluster::ClusterRouter::ServiceBreakdown
timeOn(const cluster::ClusterConfig &cfg, const JobSpec &spec)
{
    return cluster::ClusterRouter(cfg, spec)
        .serviceBreakdown(spec.batch, spec.candidates);
}

TEST(ScaleOut, SingleNodeHasNoNetworkCost)
{
    const auto r = timeOn(scaleOut(1), globalJob());
    EXPECT_EQ(r.scatter_us, 0.0);
    EXPECT_EQ(r.gather_us, 0.0);
    EXPECT_GT(r.compute_us, 0.0);
}

TEST(ScaleOut, ClassificationTimeShrinksWithNodes)
{
    const auto r1 = timeOn(scaleOut(1), globalJob());
    const auto r8 = timeOn(scaleOut(8), globalJob());
    const double ratio = r1.compute_us / r8.compute_us;
    EXPECT_GT(ratio, 5.0);
    EXPECT_LT(ratio, 10.0);
}

TEST(ScaleOut, SpeedupSaturatesWhenNetworkDominates)
{
    // A small problem: node work shrinks below the fixed network cost.
    const JobSpec small = globalJob(200'000);
    double prev_total = 1e9;
    const double solo = timeOn(scaleOut(1), small).totalUs();
    for (uint64_t n : {2ull, 8ull, 32ull}) {
        const double total = timeOn(scaleOut(n), small).totalUs();
        EXPECT_LE(total, prev_total * 2.0); // never catastrophic
        prev_total = total;
    }
    // Parallel efficiency decays at this size.
    const double wide = timeOn(scaleOut(32), small).totalUs();
    EXPECT_LT(solo / (wide * 32), 0.8);
}

TEST(ScaleOut, SlowNetworkHurtsTotal)
{
    const cluster::ClusterConfig fast = scaleOut(8);
    cluster::ClusterConfig slow = fast;
    slow.network.bandwidth = 1e9; // 8 Gb/s
    slow.network.latency = 100e-6;
    const JobSpec spec = globalJob(1'000'000);
    const auto rf = timeOn(fast, spec);
    const auto rs = timeOn(slow, spec);
    EXPECT_GT(rs.totalUs(), rf.totalUs());
    EXPECT_GT(rs.gather_us + rs.scatter_us, rf.gather_us + rf.scatter_us);
}

class ScaleOutFunctional : public ::testing::Test
{
  protected:
    ScaleOutFunctional()
        : model_(makeConfig())
    {
        screening::ScreenerConfig cfg;
        cfg.categories = 2048;
        cfg.hidden = 64;
        cfg.selection = screening::SelectionMode::Threshold;
        Rng rng(3);
        screener_ = std::make_unique<screening::Screener>(cfg, rng);
        Rng data = model_.makeRng(1);
        auto train = model_.sampleHiddenBatch(data, 128);
        screening::Trainer trainer(model_.classifier(), *screener_,
                                   screening::TrainerConfig{});
        trainer.train(train, {});
        screener_->freezeQuantized();
        const float cut = screening::tuneThreshold(*screener_, train, 48);
        screener_->setSelection(screening::SelectionMode::Threshold, 48,
                                cut);
        h_batch_ = model_.sampleHiddenBatch(data, 2);
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 2048;
        cfg.hidden = 64;
        return cfg;
    }

    workloads::SyntheticModel model_;
    std::unique_ptr<screening::Screener> screener_;
    std::vector<tensor::Vector> h_batch_;
};

/**
 * The functional scale-out path is the cluster router: a replication-1
 * cluster with no node kills, sharding the label space across `nodes`.
 */
std::vector<ClassifierOutput>
clusterForward(uint64_t nodes, const nn::Classifier &classifier,
               const screening::Screener &screener,
               const std::vector<tensor::Vector> &h_batch, size_t k)
{
    cluster::ClusterRouter router(scaleOut(nodes),
                                  globalJob(classifier.categories()));
    return router.computeBatch(classifier, screener, h_batch, k,
                               /*ranks=*/2);
}

void
expectSameFloats(const tensor::Vector &a, const tensor::Vector &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

/** Node partitioning must be numerically transparent. */
class NodeCount : public ScaleOutFunctional,
                  public ::testing::WithParamInterface<uint64_t>
{
};

TEST_P(NodeCount, MergeEqualsSingleNode)
{
    const auto a =
        clusterForward(1, model_.classifier(), *screener_, h_batch_, 10);
    const auto b = clusterForward(GetParam(), model_.classifier(),
                                  *screener_, h_batch_, 10);
    ASSERT_EQ(a.size(), h_batch_.size());
    ASSERT_EQ(b.size(), h_batch_.size());
    for (size_t item = 0; item < h_batch_.size(); ++item) {
        expectSameFloats(b[item].probabilities, a[item].probabilities);
        EXPECT_EQ(b[item].candidates, a[item].candidates);
        EXPECT_EQ(b[item].topk, a[item].topk);
    }
}

INSTANTIATE_TEST_SUITE_P(Nodes, NodeCount, ::testing::Values(2, 3, 8));

TEST_F(ScaleOutFunctional, ShardedTopKMatchesGlobalTopK)
{
    // The gather-side merge: per-shard top-k lists through mergeTopK
    // must equal the unsharded selection for every cluster width.
    for (const uint64_t nodes : {1ull, 2ull, 5ull, 8ull}) {
        const auto out = clusterForward(nodes, model_.classifier(),
                                        *screener_, h_batch_, 10);
        ASSERT_EQ(out.size(), h_batch_.size());
        for (size_t item = 0; item < h_batch_.size(); ++item)
            EXPECT_EQ(out[item].topk,
                      tensor::topkIndices(out[item].probabilities, 10))
                << "nodes=" << nodes;
    }
}

TEST_F(ScaleOutFunctional, MatchesPlainFunctionalRun)
{
    const auto scale =
        clusterForward(4, model_.classifier(), *screener_, h_batch_, 10);
    EnmcSystem sys{SystemConfig{}};
    const auto plain = sys.runFunctional(model_.classifier(), *screener_,
                                         h_batch_, 8);
    ASSERT_EQ(scale.size(), h_batch_.size());
    for (size_t item = 0; item < h_batch_.size(); ++item) {
        expectSameFloats(scale[item].probabilities,
                         plain.probabilities[item]);
        EXPECT_EQ(scale[item].candidates, plain.candidates[item]);
    }
}

} // namespace
} // namespace enmc::runtime
