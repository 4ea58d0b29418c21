/**
 * @file
 * Tests for the baseline NMP engine models.
 */

#include <gtest/gtest.h>

#include "nmp/engine.h"

namespace enmc::nmp {
namespace {

dram::Organization
rankOrg()
{
    return dram::Organization::paperTable3().singleRankView();
}

arch::RankTask
task(uint64_t l = 4096, uint64_t d = 512, uint64_t k = 128,
     uint64_t batch = 1, uint64_t cands = 32)
{
    arch::RankTask t;
    t.categories = l;
    t.hidden = d;
    t.reduced = k;
    t.batch = batch;
    t.expected_candidates = cands;
    t.class_weight_base = 1ull << 24;
    t.feature_base = 1ull << 26;
    t.output_base = 1ull << 27;
    return t;
}

NmpEngine
engine(EngineConfig cfg)
{
    return NmpEngine(cfg, rankOrg(), dram::Timing::ddr4_2400());
}

TEST(EngineConfig, Table4Presets)
{
    EXPECT_EQ(EngineConfig::nda().fp32_macs, 16u);
    EXPECT_EQ(EngineConfig::nda().buffer_bytes, 1024u);
    EXPECT_EQ(EngineConfig::chameleon().fp32_macs, 16u);
    EXPECT_EQ(EngineConfig::tensorDimm().fp32_macs, 16u);
    EXPECT_EQ(EngineConfig::tensorDimm().buffer_bytes, 512u);
    EXPECT_EQ(EngineConfig::tensorDimm().queues, 3u);
    EXPECT_EQ(EngineConfig::tensorDimmLarge().fp32_macs, 64u);
}

TEST(EngineConfig, GemvEfficiencyModels)
{
    EXPECT_DOUBLE_EQ(EngineConfig::nda().gemvEfficiency(1), 0.5);
    EXPECT_DOUBLE_EQ(EngineConfig::chameleon().gemvEfficiency(1), 0.25);
    EXPECT_DOUBLE_EQ(EngineConfig::chameleon().gemvEfficiency(4), 1.0);
    EXPECT_DOUBLE_EQ(EngineConfig::tensorDimm().gemvEfficiency(1), 1.0);
}

TEST(NmpEngine, RunCompletesWithTraffic)
{
    NmpEngine e = engine(EngineConfig::tensorDimm());
    const auto r = e.run(task());
    EXPECT_GT(r.cycles, 0u);
    // FP32 screening weights: l * k * 4 plus the psum spill round trip.
    EXPECT_GE(r.screen_bytes, 4096u * 128u * 4u);
    EXPECT_GE(r.screen_bytes, 4096u * 128u * 4u + 2u * 4096u * 4u);
    EXPECT_EQ(r.candidates, 32u);
}

TEST(NmpEngine, Fp32ScreeningCostsMoreThanEnmcInt4Traffic)
{
    NmpEngine e = engine(EngineConfig::tensorDimm());
    const auto r = e.run(task());
    const uint64_t enmc_screen_bytes = 4096u * 128u / 2; // INT4
    EXPECT_GT(r.screen_bytes, 8 * enmc_screen_bytes);
}

TEST(NmpEngine, ChameleonSlowerThanTensorDimmAtBatch1)
{
    const auto rc = engine(EngineConfig::chameleon()).run(task());
    const auto rt = engine(EngineConfig::tensorDimm()).run(task());
    EXPECT_GT(rc.cycles, rt.cycles);
}

TEST(NmpEngine, ChameleonCatchesUpAtBatch4)
{
    const auto b1 = engine(EngineConfig::chameleon()).run(task(4096, 512, 128, 1));
    const auto b4 = engine(EngineConfig::chameleon()).run(task(4096, 512, 128, 4));
    // 4x the work in less than 4x-of-batch1 cycles: the systolic array
    // fills up.
    EXPECT_LT(b4.cycles, 3 * b1.cycles);
}

TEST(NmpEngine, TensorDimmLargeFasterThanTensorDimm)
{
    // At batch 4 the VPU is compute-limited; 4x lanes help.
    const auto small = engine(EngineConfig::tensorDimm()).run(task(4096, 512, 128, 4));
    const auto large = engine(EngineConfig::tensorDimmLarge()).run(task(4096, 512, 128, 4));
    EXPECT_LE(large.cycles, small.cycles);
}

TEST(NmpEngine, RunFullMoreExpensiveThanScreened)
{
    NmpEngine e1 = engine(EngineConfig::tensorDimm());
    NmpEngine e2 = engine(EngineConfig::tensorDimm());
    const auto screened = e1.run(task());
    const auto full = e2.runFull(task());
    EXPECT_GT(full.cycles, screened.cycles);
    EXPECT_GT(full.exec_bytes, screened.screen_bytes);
}

TEST(NmpEngine, CyclesScaleWithCategories)
{
    const auto small = engine(EngineConfig::tensorDimm()).run(task(2048));
    const auto large = engine(EngineConfig::tensorDimm()).run(task(8192));
    const double ratio = static_cast<double>(large.cycles) / small.cycles;
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 5.0);
}

TEST(NmpEngine, PhaseSerializationSlowerThanEnmcOverlap)
{
    // Same task, the serialized baseline engine must be slower than the
    // sum of its stream bounds would allow an overlapped design to be.
    NmpEngine e = engine(EngineConfig::tensorDimm());
    const auto r = e.run(task(8192, 512, 128, 1, 256));
    const Cycles screen_bound = r.screen_bytes / 64 * 4;
    const Cycles exec_bound = r.exec_bytes / 64 * 4;
    EXPECT_GE(r.cycles, screen_bound + exec_bound);
}

TEST(NmpEngineWatchdog, BoundIsTheLastCycleAPhaseMayRun)
{
    // runFull() ends on its last (softmax) phase's countdown, so a run of
    // C cycles reaches cycle C inside a phase loop: it passes at
    // max_cycles = C and trips the watchdog at C - 1. The quiet-cycle
    // skips must land on that bound exactly. A fresh engine per run: the
    // DRAM clock, and so the refresh phase, carries over between runs.
    const arch::RankTask t = task(2048, 256, 64, 1, 16);
    const auto run = [&](Cycles max_cycles) {
        NmpEngine e = engine(EngineConfig::tensorDimm());
        return e.runFull(t, max_cycles).cycles;
    };
    const Cycles c = run(20'000'000'000ull);
    ASSERT_GT(c, 1000u);
    EXPECT_EQ(run(c), c);
    EXPECT_DEATH(run(c - 1), "NMP engine watchdog");
}

TEST(NmpEngineWatchdog, SmallBoundPanics)
{
    NmpEngine e = engine(EngineConfig::nda());
    EXPECT_DEATH((void)e.run(task(), 100), "NMP engine watchdog");
}

TEST(NmpEngineDeathTest, FunctionalTaskRejected)
{
    arch::RankTask t = task();
    tensor::QuantizedMatrix wq;
    t.screen_weights = &wq;
    NmpEngine e = engine(EngineConfig::tensorDimm());
    EXPECT_DEATH((void)e.run(t), "timing-only");
}

} // namespace
} // namespace enmc::nmp
