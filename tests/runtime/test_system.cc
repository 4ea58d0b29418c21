/**
 * @file
 * Tests for system-level orchestration: slicing, timing, extrapolation,
 * and functional multi-rank execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "runtime/system.h"
#include "screening/pipeline.h"
#include "screening/trainer.h"
#include "workloads/synthetic.h"

namespace enmc::runtime {
namespace {

JobSpec
jobSpec(uint64_t l = 500000, uint64_t batch = 1)
{
    JobSpec spec;
    spec.categories = l;
    spec.hidden = 512;
    spec.reduced = 128;
    spec.batch = batch;
    spec.candidates = l / 50;
    return spec;
}

TEST(System, RankTaskSlicesCategories)
{
    EnmcSystem sys{SystemConfig{}};
    const auto task = sys.makeRankTask(jobSpec(640000));
    EXPECT_EQ(task.categories, 10000u); // 640000 / 64 ranks
    EXPECT_EQ(task.expected_candidates, 200u);
}

TEST(System, LayoutRegionsDisjoint)
{
    EnmcSystem sys{SystemConfig{}};
    const auto t = sys.makeRankTask(jobSpec());
    const uint64_t screen_sz = t.categories * t.screenRowBytes();
    EXPECT_GE(t.class_weight_base, t.screen_weight_base + screen_sz);
    EXPECT_GT(t.feature_base, t.class_weight_base);
    EXPECT_GT(t.output_base, t.feature_base);
}

TEST(System, TimingRunsAndScalesWithCategories)
{
    EnmcSystem sys{SystemConfig{}};
    const auto small = sys.runTiming(jobSpec(250000));
    const auto large = sys.runTiming(jobSpec(1000000));
    EXPECT_GT(small.seconds, 0.0);
    const double ratio = large.seconds / small.seconds;
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 5.0);
}

TEST(System, ExtrapolationMatchesFullSimulation)
{
    // Validation of the representative-tile method: force extrapolation on
    // a size that can also be fully simulated and compare.
    SystemConfig full_cfg;
    SystemConfig extrap_cfg;
    extrap_cfg.max_sim_tiles = 512; // tiny cap -> extrapolate
    EnmcSystem full(full_cfg);
    EnmcSystem extrap(extrap_cfg);
    const JobSpec spec = jobSpec(500000); // ~3907 tiles per rank
    const auto rf = full.runTiming(spec);
    const auto re = extrap.runTiming(spec);
    EXPECT_FALSE(rf.extrapolated);
    EXPECT_TRUE(re.extrapolated);
    const double err =
        std::abs(static_cast<double>(re.rank_cycles) - rf.rank_cycles) /
        rf.rank_cycles;
    EXPECT_LT(err, 0.08) << "extrapolated " << re.rank_cycles << " vs "
                         << rf.rank_cycles;
}

TEST(System, BatchIncreasesThroughput)
{
    EnmcSystem sys{SystemConfig{}};
    const auto b1 = sys.runTiming(jobSpec(500000, 1));
    const auto b4 = sys.runTiming(jobSpec(500000, 4));
    // 4x the inferences in < 4x the time (weight reuse).
    EXPECT_LT(b4.seconds, 4.0 * b1.seconds);
    const double thr1 = 1.0 / b1.seconds;
    const double thr4 = 4.0 / b4.seconds;
    EXPECT_GT(thr4, thr1);
}

class FunctionalSystem : public ::testing::Test
{
  protected:
    FunctionalSystem()
        : model_(makeConfig())
    {
        screening::ScreenerConfig cfg;
        cfg.categories = 2048;
        cfg.hidden = 64;
        cfg.selection = screening::SelectionMode::Threshold;
        Rng rng(3);
        screener_ = std::make_unique<screening::Screener>(cfg, rng);
        Rng data = model_.makeRng(1);
        auto train = model_.sampleHiddenBatch(data, 160);
        screening::Trainer trainer(model_.classifier(), *screener_,
                                   screening::TrainerConfig{});
        trainer.train(train, {});
        screener_->freezeQuantized();
        const float cut = screening::tuneThreshold(*screener_, train, 48);
        screener_->setSelection(screening::SelectionMode::Threshold, 48,
                                cut);
        h_batch_ = model_.sampleHiddenBatch(data, 3);
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

/** Rank slicing must be transparent: 1, 2, 4, 8 ranks give one answer. */
class RankCount : public FunctionalSystem,
                  public ::testing::WithParamInterface<uint64_t>
{
};

TEST_P(RankCount, SlicingInvariant)
{
    EnmcSystem sys{SystemConfig{}};
    const auto ref = sys.runFunctional(model_.classifier(), *screener_,
                                       h_batch_, 1);
    const auto out = sys.runFunctional(model_.classifier(), *screener_,
                                       h_batch_, GetParam());
    for (size_t item = 0; item < h_batch_.size(); ++item) {
        for (size_t i = 0; i < 2048; ++i)
            EXPECT_FLOAT_EQ(out.logits[item][i], ref.logits[item][i]);
        EXPECT_EQ(out.candidates[item].size(),
                  ref.candidates[item].size());
    }
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankCount, ::testing::Values(2, 4, 8));

TEST_F(FunctionalSystem, MatchesReferencePipeline)
{
    EnmcSystem sys{SystemConfig{}};
    const auto out = sys.runFunctional(model_.classifier(), *screener_,
                                       h_batch_, 4);
    screening::Pipeline pipe(model_.classifier(), *screener_);
    for (size_t item = 0; item < h_batch_.size(); ++item) {
        const auto ref = pipe.infer(h_batch_[item]);
        for (size_t i = 0; i < ref.logits.size(); ++i)
            EXPECT_FLOAT_EQ(out.logits[item][i], ref.logits[i]);
    }
}

TEST_F(FunctionalSystem, ProbabilitiesNormalized)
{
    EnmcSystem sys{SystemConfig{}};
    const auto out = sys.runFunctional(model_.classifier(), *screener_,
                                       h_batch_, 4);
    for (const auto &p : out.probabilities) {
        float sum = 0.0f;
        for (float v : p)
            sum += v;
        EXPECT_NEAR(sum, 1.0f, 1e-3f);
    }
}

TEST_F(FunctionalSystem, ReportsRankCycles)
{
    EnmcSystem sys{SystemConfig{}};
    const auto out = sys.runFunctional(model_.classifier(), *screener_,
                                       h_batch_, 4);
    EXPECT_GT(out.rank_cycles, 0u);
    EXPECT_GT(out.seconds, 0.0);
}

TEST_F(FunctionalSystem, OffsetShardReadsItsRowsInPlace)
{
    // A shard that starts mid-matrix, split over ranks whose slices start
    // at odd rows: each rank reads its rows of the shared tensors in
    // place, and every logit must equal the whole-matrix run's bit for
    // bit, with the same candidates (global row ids).
    EnmcSystem sys{SystemConfig{}};
    const auto whole = sys.runFunctional(model_.classifier(), *screener_,
                                         h_batch_, 4);
    const uint64_t row_begin = 333;
    const uint64_t row_count = 1001;
    const auto shard = sys.runFunctionalRange(
        model_.classifier(), *screener_, h_batch_, 3, row_begin, row_count);
    ASSERT_EQ(shard.logits.size(), h_batch_.size());
    for (size_t item = 0; item < h_batch_.size(); ++item) {
        ASSERT_EQ(shard.logits[item].size(), row_count);
        EXPECT_EQ(std::memcmp(shard.logits[item].data(),
                              whole.logits[item].data() + row_begin,
                              row_count * sizeof(float)),
                  0)
            << "item " << item;
        std::vector<uint32_t> expect;
        for (const uint32_t c : whole.candidates[item])
            if (c >= row_begin && c < row_begin + row_count)
                expect.push_back(c);
        std::vector<uint32_t> got = shard.candidates[item];
        std::sort(expect.begin(), expect.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expect) << "item " << item;
        EXPECT_FALSE(got.empty()) << "item " << item;
    }
}

/** A hand-built shard result: `rows` logits per item starting at
 *  `first`, one global candidate per item, and distinct counters. */
EnmcSystem::FunctionalResult
shardPart(uint32_t row_begin, size_t rows, float first, Cycles cycles,
          uint64_t scale)
{
    EnmcSystem::FunctionalResult part;
    for (int item = 0; item < 2; ++item) {
        tensor::Vector z(rows);
        for (size_t i = 0; i < rows; ++i)
            z[i] = first + static_cast<float>(item * 100 + i);
        part.logits.push_back(std::move(z));
        part.candidates.push_back(
            {static_cast<uint32_t>(row_begin + item)});
    }
    part.rank_cycles = cycles;
    part.seconds = static_cast<double>(cycles) * 1e-9;
    part.faults.injected_words = 1 * scale;
    part.faults.corrected = 2 * scale;
    part.faults.per_class[1].detected = 3 * scale;
    part.uncorrectable_words = 4 * scale;
    part.uncorrectable_weak_words = 5 * scale;
    part.uncorrectable_strong_words = 6 * scale;
    part.ecc_redundancy_reads = 7 * scale;
    part.ecc_decode_cycles = 8 * scale;
    part.degraded_candidates = 9 * scale;
    part.slice_cycles = {cycles, cycles / 2};
    return part;
}

TEST(GatherShards, MergesShardsInShardOrder)
{
    std::vector<EnmcSystem::FunctionalResult> parts;
    parts.push_back(shardPart(0, 3, 0.0f, 500, 1));
    parts.push_back(shardPart(3, 2, 10.0f, 900, 10));
    parts.push_back(shardPart(5, 1, 20.0f, 700, 100));
    const EnmcSystem::FunctionalResult out =
        gatherShards(parts, nn::Normalization::Sigmoid);

    ASSERT_EQ(out.logits.size(), 2u);
    EXPECT_EQ(out.logits[0],
              (tensor::Vector{0.0f, 1.0f, 2.0f, 10.0f, 11.0f, 20.0f}));
    EXPECT_EQ(out.logits[1], (tensor::Vector{100.0f, 101.0f, 102.0f,
                                             110.0f, 111.0f, 120.0f}));
    EXPECT_EQ(out.candidates[0], (std::vector<uint32_t>{0, 3, 5}));
    EXPECT_EQ(out.candidates[1], (std::vector<uint32_t>{1, 4, 6}));
    ASSERT_EQ(out.probabilities.size(), 2u);
    for (size_t item = 0; item < 2; ++item)
        EXPECT_EQ(out.probabilities[item],
                  tensor::sigmoidTaylor(out.logits[item]));

    EXPECT_EQ(out.rank_cycles, 900u);
    EXPECT_DOUBLE_EQ(out.seconds, 900e-9);
    EXPECT_EQ(out.faults.injected_words, 111u);
    EXPECT_EQ(out.faults.corrected, 222u);
    EXPECT_EQ(out.faults.per_class[1].detected, 333u);
    EXPECT_EQ(out.uncorrectable_words, 444u);
    EXPECT_EQ(out.uncorrectable_weak_words, 555u);
    EXPECT_EQ(out.uncorrectable_strong_words, 666u);
    EXPECT_EQ(out.ecc_redundancy_reads, 777u);
    EXPECT_EQ(out.ecc_decode_cycles, 888u);
    EXPECT_EQ(out.degraded_candidates, 999u);
    EXPECT_EQ(out.slice_cycles,
              (std::vector<Cycles>{500, 250, 900, 450, 700, 350}));

    // Softmax normalizes once over the whole gathered row set.
    const EnmcSystem::FunctionalResult soft =
        gatherShards(parts, nn::Normalization::Softmax);
    EXPECT_EQ(soft.probabilities[0], tensor::softmaxTaylor(soft.logits[0]));
}

TEST_F(FunctionalSystem, RequiresFrozenThresholdScreener)
{
    EnmcSystem sys{SystemConfig{}};
    screening::ScreenerConfig cfg;
    cfg.categories = 2048;
    cfg.hidden = 64;
    Rng rng(7);
    screening::Screener raw(cfg, rng); // TopM mode, not frozen
    EXPECT_DEATH((void)sys.runFunctional(model_.classifier(), raw,
                                         h_batch_, 2),
                 "freezeQuantized");
}

} // namespace
} // namespace enmc::runtime

namespace enmc::runtime {
namespace {

/**
 * Functional-equivalence sweep: for every (quantization, candidate
 * budget, batch) point, the hardware model's mixed logits must equal the
 * reference pipeline bit for bit.
 */
struct EquivParam
{
    tensor::QuantBits quant;
    size_t target;
    size_t batch;
};

class FunctionalEquivalence
    : public ::testing::TestWithParam<EquivParam>
{
};

TEST_P(FunctionalEquivalence, HardwareMatchesPipeline)
{
    const EquivParam p = GetParam();
    workloads::SyntheticConfig mc;
    mc.categories = 1024;
    mc.hidden = 64;
    workloads::SyntheticModel model(mc);

    screening::ScreenerConfig cfg;
    cfg.categories = 1024;
    cfg.hidden = 64;
    cfg.quant = p.quant;
    cfg.selection = screening::SelectionMode::Threshold;
    Rng rng(17);
    screening::Screener scr(cfg, rng);
    Rng data = model.makeRng(1);
    auto train = model.sampleHiddenBatch(data, 96);
    screening::Trainer trainer(model.classifier(), scr,
                               screening::TrainerConfig{});
    trainer.train(train, {});
    scr.freezeQuantized();
    const float cut = screening::tuneThreshold(scr, train, p.target);
    scr.setSelection(screening::SelectionMode::Threshold, p.target, cut);

    const auto h = model.sampleHiddenBatch(data, p.batch);
    EnmcSystem sys{SystemConfig{}};
    const auto hw = sys.runFunctional(model.classifier(), scr, h, 3);
    screening::Pipeline pipe(model.classifier(), scr);
    for (size_t item = 0; item < p.batch; ++item) {
        const auto ref = pipe.infer(h[item]);
        for (size_t i = 0; i < ref.logits.size(); ++i)
            ASSERT_EQ(hw.logits[item][i], ref.logits[i])
                << "item " << item << " logit " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FunctionalEquivalence,
    ::testing::Values(EquivParam{tensor::QuantBits::Int4, 16, 1},
                      EquivParam{tensor::QuantBits::Int4, 64, 2},
                      EquivParam{tensor::QuantBits::Int4, 4, 4},
                      EquivParam{tensor::QuantBits::Int8, 16, 1},
                      EquivParam{tensor::QuantBits::Int8, 48, 3},
                      EquivParam{tensor::QuantBits::Int2, 16, 2}),
    [](const ::testing::TestParamInfo<EquivParam> &info) {
        return std::string("q") +
               std::to_string(static_cast<int>(info.param.quant)) + "m" +
               std::to_string(info.param.target) + "b" +
               std::to_string(info.param.batch);
    });

} // namespace
} // namespace enmc::runtime
