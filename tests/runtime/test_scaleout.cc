/**
 * @file
 * Tests for the scale-out (multi-node) ENMC model: the timing model in
 * runtime/scaleout.h and the functional scatter/gather through the
 * cluster router.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cluster/router.h"
#include "runtime/scaleout.h"
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

TEST(ScaleOut, SingleNodeHasNoNetworkCost)
{
    ScaleOutConfig cfg;
    cfg.nodes = 1;
    const ScaleOutResult r = runScaleOut(cfg, globalJob());
    EXPECT_EQ(r.broadcast_seconds, 0.0);
    EXPECT_EQ(r.gather_seconds, 0.0);
    EXPECT_GT(r.classification_seconds, 0.0);
}

TEST(ScaleOut, ClassificationTimeShrinksWithNodes)
{
    ScaleOutConfig one;
    one.nodes = 1;
    ScaleOutConfig eight;
    eight.nodes = 8;
    const ScaleOutResult r1 = runScaleOut(one, globalJob());
    const ScaleOutResult r8 = runScaleOut(eight, globalJob());
    const double ratio =
        r1.classification_seconds / r8.classification_seconds;
    EXPECT_GT(ratio, 5.0);
    EXPECT_LT(ratio, 10.0);
}

TEST(ScaleOut, SpeedupSaturatesWhenNetworkDominates)
{
    // A small problem: node work shrinks below the fixed network cost.
    const JobSpec small = globalJob(200'000);
    double prev_total = 1e9;
    double best_eff = 0.0;
    const ScaleOutResult solo = runScaleOut(ScaleOutConfig{1, {}, {}},
                                            small);
    for (uint64_t n : {2ull, 8ull, 32ull}) {
        ScaleOutConfig cfg;
        cfg.nodes = n;
        const ScaleOutResult r = runScaleOut(cfg, small);
        const double eff = solo.total() / (r.total() * n);
        best_eff = std::max(best_eff, eff);
        EXPECT_LE(r.total(), prev_total * 2.0); // never catastrophic
        prev_total = r.total();
    }
    // Parallel efficiency decays at this size.
    const ScaleOutResult wide = runScaleOut(ScaleOutConfig{32, {}, {}},
                                            small);
    EXPECT_LT(solo.total() / (wide.total() * 32), 0.8);
}

TEST(ScaleOut, SlowNetworkHurtsTotal)
{
    ScaleOutConfig fast;
    fast.nodes = 8;
    ScaleOutConfig slow = fast;
    slow.network.bandwidth = 1e9; // 8 Gb/s
    slow.network.latency = 100e-6;
    const JobSpec spec = globalJob(1'000'000);
    const ScaleOutResult rf = runScaleOut(fast, spec);
    const ScaleOutResult rs = runScaleOut(slow, spec);
    EXPECT_GT(rs.total(), rf.total());
    EXPECT_GT(rs.gather_seconds + rs.broadcast_seconds,
              rf.gather_seconds + rf.broadcast_seconds);
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
    cluster::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.replication = 1;
    cluster::ClusterRouter router(cfg, globalJob(classifier.categories()));
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
