/**
 * @file
 * Tests for the ENMC rank microarchitecture model.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "enmc/rank.h"
#include "runtime/compiler.h"
#include "screening/pipeline.h"
#include "screening/trainer.h"
#include "workloads/synthetic.h"

namespace enmc::arch {
namespace {

dram::Organization
rankOrg()
{
    return dram::Organization::paperTable3().singleRankView();
}

/** Timing-only task with simple defaults. */
RankTask
timingTask(uint64_t l = 2048, uint64_t d = 512, uint64_t k = 128,
           uint64_t batch = 1, uint64_t cands = 16)
{
    RankTask t;
    t.categories = l;
    t.hidden = d;
    t.reduced = k;
    t.batch = batch;
    t.expected_candidates = cands;
    t.screen_weight_base = 0;
    t.class_weight_base = 1ull << 24;
    t.bias_base = 1ull << 25;
    t.feature_base = 1ull << 26;
    t.output_base = 1ull << 27;
    return t;
}

RankResult
runTask(const RankTask &task)
{
    EnmcConfig cfg;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    const auto job = runtime::compileClassification(task, cfg);
    return rank.run(job.program, task);
}

TEST(EnmcRank, CompletesAndCountsTraffic)
{
    const RankTask task = timingTask();
    const RankResult r = runTask(task);
    EXPECT_GT(r.cycles, 0u);
    // Screening traffic: l rows x 64 B (k=128 INT4) + features.
    EXPECT_GE(r.screen_bytes, 2048u * 64u);
    // Executor: 16 candidates x 2 x 2 KiB.
    EXPECT_EQ(r.exec_bytes, 16u * 2u * 2048u);
    EXPECT_EQ(r.candidates, 16u);
    EXPECT_GT(r.instructions, 3u * 1024u); // 1024 tiles x 3 instructions
}

TEST(EnmcRank, BandwidthBoundCycleCount)
{
    // Screening is the paper's streaming phase: cycles must be within ~2x
    // of the pure data-bus bound and never below it.
    const RankTask task = timingTask(8192, 512, 128, 1, 1);
    const RankResult r = runTask(task);
    const uint64_t total_bytes = r.screen_bytes + r.exec_bytes;
    const Cycles bus_bound = total_bytes / 64 * 4; // tBL per 64B line
    EXPECT_GE(r.cycles, bus_bound);
    EXPECT_LE(r.cycles, bus_bound * 2);
}

TEST(EnmcRank, CyclesScaleLinearlyWithCategories)
{
    const RankResult small = runTask(timingTask(2048));
    const RankResult large = runTask(timingTask(8192));
    const double ratio = static_cast<double>(large.cycles) / small.cycles;
    EXPECT_GT(ratio, 2.7); // fixed startup cost makes it slightly sublinear
    EXPECT_LT(ratio, 5.0);
}

TEST(EnmcRank, BatchReusesWeightTraffic)
{
    // Screening weights are shared across the batch: batch-4 traffic is
    // (nearly) the same, so cycles grow sublinearly.
    const RankResult b1 = runTask(timingTask(4096, 512, 128, 1, 16));
    const RankResult b4 = runTask(timingTask(4096, 512, 128, 4, 16));
    EXPECT_LT(b4.cycles, 3 * b1.cycles);
    EXPECT_LE(b4.screen_bytes, b1.screen_bytes + 4096); // + feature bytes
}

TEST(EnmcRank, MoreCandidatesMoreExecutorTraffic)
{
    const RankResult few = runTask(timingTask(4096, 512, 128, 1, 8));
    const RankResult many = runTask(timingTask(4096, 512, 128, 1, 64));
    EXPECT_GT(many.exec_bytes, few.exec_bytes * 7);
    EXPECT_GT(many.cycles, few.cycles);
}

TEST(EnmcRank, DualModuleOverlapsScreeningAndExecution)
{
    // The dual-module benefit: Executor *compute* overlaps the Screener's
    // streaming. Throttle the FP32 array so candidate compute dominates,
    // then verify screening time hides underneath it instead of adding.
    EnmcConfig slow;
    slow.fp32_macs = 1;
    EnmcRank rank(slow, rankOrg(), dram::Timing::ddr4_2400());
    const RankTask task = timingTask(8192, 512, 128, 1, 128);
    const auto job = runtime::compileClassification(task, slow);
    const RankResult both = rank.run(job.program, task);

    // 128 candidates x ceil(512/1) logic cycles x 3 (400 -> 1200 MHz).
    const Cycles exec_compute = 128ull * 512 * 3;
    EXPECT_GE(both.cycles, exec_compute);
    // Screening alone takes ~36k cycles; with overlap, the total must be
    // far below exec_compute + screening.
    const RankResult screen_only = runTask(timingTask(8192, 512, 128, 1, 1));
    EXPECT_LT(both.cycles, exec_compute + screen_only.cycles / 2);
}

TEST(EnmcRank, SyntheticCandidateCountMatchesExpectation)
{
    for (uint64_t expect : {1ull, 7ull, 33ull, 200ull}) {
        const RankResult r = runTask(timingTask(4096, 512, 128, 1, expect));
        EXPECT_EQ(r.candidates, expect) << "expected " << expect;
    }
}

TEST(EnmcRank, StatusRegistersReflectProgram)
{
    EnmcConfig cfg;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    const RankTask task = timingTask();
    const auto job = runtime::compileClassification(task, cfg);
    const RankResult r = rank.run(job.program, task);
    EXPECT_EQ(rank.statusReg(StatusReg::Categories), task.categories);
    EXPECT_EQ(rank.statusReg(StatusReg::HiddenDim), task.hidden);
    EXPECT_EQ(rank.statusReg(StatusReg::ReducedDim), task.reduced);
    EXPECT_EQ(rank.statusReg(StatusReg::InstCount), r.instructions);
    EXPECT_EQ(rank.statusReg(StatusReg::CandidateCount), r.candidates);
}

TEST(EnmcRank, GeneratorEmitsTwoInstructionsPerCandidate)
{
    const RankResult r = runTask(timingTask(4096, 512, 128, 1, 50));
    EXPECT_EQ(r.generated_instructions, 100u);
}

TEST(EnmcRank, OutputBytesCoverCandidates)
{
    const RankResult r = runTask(timingTask(2048, 512, 128, 2, 20));
    // Per item 8 B normalizer + 8 B per candidate.
    EXPECT_EQ(r.output_bytes, 2u * 8 + r.candidates * 8);
}

TEST(EnmcRank, Int2ScreeningMovesFewerBytes)
{
    RankTask t4 = timingTask();
    RankTask t2 = timingTask();
    t2.quant = tensor::QuantBits::Int2;
    const RankResult r4 = runTask(t4);
    const RankResult r2 = runTask(t2);
    EXPECT_LT(r2.screen_bytes, r4.screen_bytes);
    EXPECT_LE(r2.cycles, r4.cycles);
}

/** Functional mode: the rank's numbers must match the reference pipeline. */
class FunctionalRank : public ::testing::Test
{
  protected:
    FunctionalRank()
        : model_(makeConfig())
    {
        screening::ScreenerConfig cfg;
        cfg.categories = 1024;
        cfg.hidden = 64;
        cfg.reduction_scale = 0.25;
        cfg.selection = screening::SelectionMode::Threshold;
        Rng rng(3);
        screener_ = std::make_unique<screening::Screener>(cfg, rng);
        Rng data = model_.makeRng(1);
        auto train = model_.sampleHiddenBatch(data, 128);
        screening::Trainer trainer(model_.classifier(), *screener_,
                                   screening::TrainerConfig{});
        trainer.train(train, {});
        screener_->freezeQuantized();
        const float cut = screening::tuneThreshold(*screener_, train, 24);
        screener_->setSelection(screening::SelectionMode::Threshold, 24,
                                cut);
        h_batch_ = model_.sampleHiddenBatch(data, 2);
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 1024;
        cfg.hidden = 64;
        return cfg;
    }

    RankTask
    functionalTask()
    {
        RankTask t;
        t.categories = 1024;
        t.hidden = 64;
        t.reduced = screener_->reducedDim();
        t.quant = tensor::QuantBits::Int4;
        t.batch = h_batch_.size();
        t.threshold = screener_->config().threshold;
        t.class_weight_base = 1ull << 24;
        t.bias_base = 1ull << 25;
        t.feature_base = 1ull << 26;
        t.output_base = 1ull << 27;
        t.screen_weights = &screener_->quantizedWeights();
        t.screen_bias = &screener_->bias();
        t.class_weights = &model_.classifier().weights();
        t.class_bias = &model_.classifier().bias();
        for (const auto &h : h_batch_) {
            t.features.push_back(h);
            t.features_q.push_back(tensor::quantize(
                screener_->project(h), tensor::QuantBits::Int4));
        }
        return t;
    }

    workloads::SyntheticModel model_;
    std::unique_ptr<screening::Screener> screener_;
    std::vector<tensor::Vector> h_batch_;
};

TEST_F(FunctionalRank, BitMatchesReferencePipeline)
{
    const RankTask task = functionalTask();
    EnmcConfig cfg;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    const auto job = runtime::compileClassification(task, cfg);
    const RankResult r = rank.run(job.program, task);

    screening::Pipeline pipe(model_.classifier(), *screener_);
    for (size_t item = 0; item < h_batch_.size(); ++item) {
        const auto ref = pipe.infer(h_batch_[item]);
        ASSERT_EQ(r.logits[item].size(), ref.logits.size());
        for (size_t i = 0; i < ref.logits.size(); ++i)
            EXPECT_FLOAT_EQ(r.logits[item][i], ref.logits[i])
                << "item " << item << " logit " << i;
        // Same candidate sets (order may differ).
        auto a = r.candidate_ids[item];
        auto b = ref.candidates;
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        EXPECT_EQ(a, b);
    }
}

TEST_F(FunctionalRank, CandidateCountMatchesThresholdSelection)
{
    const RankTask task = functionalTask();
    EnmcConfig cfg;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    const auto job = runtime::compileClassification(task, cfg);
    const RankResult r = rank.run(job.program, task);
    uint64_t total = 0;
    for (const auto &ids : r.candidate_ids)
        total += ids.size();
    EXPECT_EQ(r.candidates, total);
    EXPECT_GT(total, 0u);
}

} // namespace
} // namespace enmc::arch

namespace enmc::arch {
namespace {

TEST(Colocation, HostRequestsServedDuringClassification)
{
    // "Our ENMC DIMM can also support regular memory requests": inject
    // host reads while a classification program runs; both must make
    // progress and every host request must complete.
    RankTask task = timingTask(8192, 512, 128, 1, 16);
    EnmcConfig cfg;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    const auto job = runtime::compileClassification(task, cfg);
    rank.start(job.program, task);

    uint64_t injected = 0, completed = 0;
    Cycles lat_sum = 0;
    Rng rng(7);
    Cycles now = 0;
    while (!rank.done()) {
        ++now;
        if ((now % 50) == 0) {
            dram::Request req;
            req.addr = (1ull << 30) + (rng.uniformInt(0, 4095) << 6);
            const Cycles at = now;
            req.on_complete = [&completed, &lat_sum,
                               at](const dram::Request &r) {
                ++completed;
                lat_sum += r.complete - at;
            };
            if (rank.injectHostRequest(std::move(req)))
                ++injected;
        }
        rank.tryDeliverInstruction();
        rank.tick();
        ASSERT_LT(now, 10'000'000u);
    }
    const RankResult r = rank.takeResult();
    EXPECT_GT(injected, 100u);
    EXPECT_EQ(completed, injected);
    EXPECT_EQ(r.candidates, 16u);
    // Interference exists but stays moderate at this intensity.
    const RankResult clean = runTask(timingTask(8192, 512, 128, 1, 16));
    EXPECT_GT(r.cycles, clean.cycles);
    EXPECT_LT(r.cycles, clean.cycles * 2);
    // Host latency is bounded (no starvation).
    EXPECT_LT(lat_sum / completed, 500u);
}

TEST(Colocation, HostRequestRejectedWhenQueueFull)
{
    RankTask task = timingTask(1024, 512, 128, 1, 1);
    EnmcConfig cfg;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    const auto job = runtime::compileClassification(task, cfg);
    rank.start(job.program, task);
    // Flood without ticking: the 64-entry queue must eventually refuse.
    int accepted = 0;
    for (int i = 0; i < 200; ++i) {
        dram::Request req;
        req.addr = (1ull << 30) + (static_cast<Addr>(i) << 6);
        if (rank.injectHostRequest(std::move(req)))
            ++accepted;
    }
    EXPECT_LE(accepted, 64);
    // Drain so the watchdog-free teardown is clean.
    while (!rank.done())
        { rank.tryDeliverInstruction(); rank.tick(); }
}

} // namespace
} // namespace enmc::arch

namespace enmc::arch {
namespace {

TEST(SramBuffers, ReserveReleaseAndPeak)
{
    SramBuffer buf("test", 256);
    EXPECT_TRUE(buf.fits(256));
    buf.reserve(100);
    buf.reserve(100);
    EXPECT_FALSE(buf.fits(100));
    EXPECT_EQ(buf.occupied(), 200u);
    EXPECT_EQ(buf.peak(), 200u);
    buf.release(150);
    EXPECT_EQ(buf.occupied(), 50u);
    EXPECT_EQ(buf.peak(), 200u); // peak is sticky
    EXPECT_EQ(buf.reservations(), 2u);
    buf.clear();
    EXPECT_EQ(buf.occupied(), 0u);
}

TEST(SramBuffersDeathTest, OverflowPanics)
{
    SramBuffer buf("tiny", 64);
    buf.reserve(64);
    EXPECT_DEATH(buf.reserve(1), "overflow");
}

TEST(SramBuffersDeathTest, UnderflowPanics)
{
    SramBuffer buf("tiny", 64);
    buf.reserve(8);
    EXPECT_DEATH(buf.release(16), "underflow");
}

TEST(EnmcRank, PeakOccupanciesRespectTable3Capacities)
{
    // The tiling must fit the 256 B buffers for every batch size — the
    // capacity proof the SramBuffer model provides.
    for (uint64_t batch : {1ull, 2ull, 4ull, 8ull}) {
        const RankTask task = timingTask(4096, 512, 128, batch, 16);
        const RankResult r = runTask(task);
        EnmcConfig cfg;
        EXPECT_LE(r.peak_weight_buf, cfg.screen_weight_buf) << batch;
        EXPECT_LE(r.peak_psum_buf, cfg.psum_buf) << batch;
        EXPECT_LE(r.peak_exec_buf,
                  cfg.exec_weight_buf + cfg.exec_feature_buf)
            << batch;
        EXPECT_LE(r.peak_output_buf, cfg.output_buf) << batch;
        EXPECT_GT(r.peak_weight_buf, 0u);
        EXPECT_GT(r.peak_psum_buf, 0u);
    }
}

TEST(EnmcRank, LargeBatchShrinksTileRows)
{
    // PSUM capacity caps rows x batch: with small rows (k=32 INT4 ->
    // 16 B) the weight half allows 8 rows, but batch 16 cuts it to 4.
    RankTask t1 = timingTask(4096, 512, 32, 1, 16);
    RankTask t16 = timingTask(4096, 512, 32, 16, 16);
    EnmcConfig cfg;
    EXPECT_EQ(runtime::screeningTileRows(t1, cfg), 8u);
    EXPECT_EQ(runtime::screeningTileRows(t16, cfg), 4u);
}

TEST(CompilerDeathTest2, BatchBeyondPsumRejected)
{
    RankTask t = timingTask(1024, 512, 128, 128, 4); // 128*4B > 256B psum
    EnmcConfig cfg;
    EXPECT_DEATH((void)runtime::compileClassification(t, cfg),
                 "batch too large");
}

} // namespace
} // namespace enmc::arch

namespace enmc::arch {
namespace {

/**
 * The paper's execution flow (Fig. 10): the host offloads the program,
 * then polls status registers with QUERY instructions until the DIMM
 * reports completion.
 */
TEST(HostPolling, QueryDetectsCompletion)
{
    const RankTask task = timingTask(4096, 512, 128, 1, 16);
    EnmcConfig cfg;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    const auto job = runtime::compileClassification(task, cfg);
    rank.start(job.program, task);

    const Cycles poll_interval = 500;
    Cycles now = 0;
    Cycles detected_at = 0;
    uint64_t polls = 0;
    bool program_delivered = false;
    while (detected_at == 0) {
        ++now;
        ASSERT_LT(now, 10'000'000u);
        if (!program_delivered) {
            if (!rank.tryDeliverInstruction() &&
                rank.pendingInstruction() == nullptr) {
                program_delivered = true;
            }
        } else if (now % poll_interval == 0) {
            // Host QUERY poll: read the status register (check before
            // injecting the next poll, which itself occupies the FIFO).
            if (rank.statusReg(StatusReg::Status) == 0 && rank.done())
                detected_at = now;
            else
                rank.injectInstruction(makeQuery(StatusReg::Status));
            ++polls;
        }
        rank.tick();
    }
    const RankResult r = rank.takeResult();
    EXPECT_GE(polls, 2u);
    // Detection lags true completion by at most one polling interval.
    EXPECT_GE(detected_at, r.cycles - poll_interval - 1);
    EXPECT_LE(detected_at, r.cycles + poll_interval);
}

TEST(HostPolling, StatusBitsTrackPhases)
{
    const RankTask task = timingTask(2048, 512, 128, 1, 8);
    EnmcConfig cfg;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    const auto job = runtime::compileClassification(task, cfg);
    rank.start(job.program, task);

    bool saw_busy = false;
    Cycles now = 0;
    while (!rank.done()) {
        ++now;
        ASSERT_LT(now, 10'000'000u);
        rank.tryDeliverInstruction();
        rank.tick();
        if (rank.statusReg(StatusReg::Status) & 1)
            saw_busy = true;
    }
    EXPECT_TRUE(saw_busy);
    EXPECT_EQ(rank.statusReg(StatusReg::Status), 0u);
    (void)rank.takeResult();
}

} // namespace
} // namespace enmc::arch

namespace enmc::arch {
namespace {

/**
 * Property sweep: for every (categories, reduced-dim, batch, quant)
 * combination, the rank must (a) complete, (b) move exactly the packed
 * screening bytes + candidate bytes, (c) stay at or above the data-bus
 * bound, and (d) respect every SRAM capacity.
 */
struct RankSweepParam
{
    uint64_t l;
    uint64_t k;
    uint64_t batch;
    tensor::QuantBits quant;
};

class RankSweep : public ::testing::TestWithParam<RankSweepParam>
{
};

TEST_P(RankSweep, InvariantsHold)
{
    const RankSweepParam p = GetParam();
    RankTask task = timingTask(p.l, 512, p.k, p.batch, 16);
    task.quant = p.quant;
    const RankResult r = runTask(task);

    // (a) completion with the synthetic candidate budget (per item).
    EXPECT_EQ(r.candidates, 16u * p.batch);

    // (b) traffic: screening rows (packed) + features + candidate rows.
    const uint64_t bits =
        p.quant == tensor::QuantBits::Fp32
            ? 32
            : static_cast<uint64_t>(tensor::quantBitCount(p.quant));
    const uint64_t row_bytes = (p.k * bits + 7) / 8;
    EXPECT_GE(r.screen_bytes, p.l * row_bytes);
    EXPECT_EQ(r.exec_bytes, r.candidates * 2 * 512 * 4);

    // (c) the data bus is never beaten.
    const Cycles bus_bound = (r.screen_bytes + r.exec_bytes) / 64 * 4;
    EXPECT_GE(r.cycles, bus_bound);

    // (d) SRAM capacities (panics would have fired already; check peaks).
    EnmcConfig cfg;
    EXPECT_LE(r.peak_weight_buf, cfg.screen_weight_buf);
    EXPECT_LE(r.peak_psum_buf, cfg.psum_buf);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RankSweep,
    ::testing::Values(
        RankSweepParam{1024, 128, 1, tensor::QuantBits::Int4},
        RankSweepParam{1024, 128, 4, tensor::QuantBits::Int4},
        RankSweepParam{1024, 128, 1, tensor::QuantBits::Int8},
        RankSweepParam{1024, 128, 1, tensor::QuantBits::Int2},
        RankSweepParam{1024, 375, 1, tensor::QuantBits::Int4},
        RankSweepParam{1024, 375, 4, tensor::QuantBits::Int4},
        RankSweepParam{8192, 128, 2, tensor::QuantBits::Int4},
        RankSweepParam{8192, 256, 1, tensor::QuantBits::Int8},
        RankSweepParam{333, 64, 3, tensor::QuantBits::Int4},
        RankSweepParam{4096, 128, 8, tensor::QuantBits::Int4}),
    [](const ::testing::TestParamInfo<RankSweepParam> &info) {
        const auto &p = info.param;
        return std::string("l") + std::to_string(p.l) + "k" + std::to_string(p.k) +
               "b" + std::to_string(p.batch) + "q" +
               std::to_string(static_cast<int>(p.quant));
    });

} // namespace
} // namespace enmc::arch
