/**
 * @file
 * Quiet-cycle skipping in EnmcRank::run() against the per-cycle step()
 * loop it replaces, the watchdog bound both loops share, and repeated
 * runs on one rank.
 *
 * run() jumps over cycles in which no unit can act. The contract is that
 * nothing observable moves: every RankResult field, the logits and
 * candidates, every "enmc.rank" and "enmc.rank.dram" stat and the fault
 * counters must equal those of start() + step() until done().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "enmc/rank.h"
#include "runtime/compiler.h"
#include "tensor/quantize.h"

namespace enmc::arch {
namespace {

dram::Organization
rankOrg()
{
    return dram::Organization::paperTable3().singleRankView();
}

/** Fault setting of one differential case. */
enum class Faults { None, DataBer, InstFaults, EccOverhead, StuckRank };

const char *
faultsName(Faults f)
{
    switch (f) {
      case Faults::None: return "clean";
      case Faults::DataBer: return "ber";
      case Faults::InstFaults: return "ca";
      case Faults::EccOverhead: return "eccoh";
      case Faults::StuckRank: return "stuck";
    }
    return "?";
}

fault::FaultConfig
faultConfig(Faults f, uint64_t seed)
{
    fault::FaultConfig c;
    c.enabled = f != Faults::None;
    c.seed = seed;
    switch (f) {
      case Faults::None:
        break;
      case Faults::DataBer:
        c.data_ber = 1e-4;
        break;
      case Faults::InstFaults:
        c.inst_drop_p = 0.2;
        c.inst_corrupt_p = 0.2;
        break;
      case Faults::EccOverhead:
        c.data_ber = 1e-5;
        c.ecc_overhead = true;
        break;
      case Faults::StuckRank:
        c.stuck_ranks = {0};
        break;
    }
    return c;
}

struct SkipCase
{
    uint64_t seed;
    tensor::QuantBits quant;
    tensor::QuantScheme scheme;
    bool sigmoid;
    uint64_t batch;
    bool sequencer;
    Faults faults;
    bool functional;
};

std::string
caseName(const ::testing::TestParamInfo<SkipCase> &info)
{
    const SkipCase &c = info.param;
    return std::string(c.functional ? "fn" : "timing") + "_s" +
           std::to_string(c.seed) + "_q" +
           std::to_string(tensor::quantBitCount(c.quant)) +
           (c.scheme == tensor::QuantScheme::Asymmetric ? "asym" : "sym") +
           (c.sigmoid ? "_sigmoid" : "_softmax") + "_b" +
           std::to_string(c.batch) + (c.sequencer ? "_seq" : "_host") +
           "_" + faultsName(c.faults);
}

/** Random payloads for one functional task; they must outlive it. */
struct Payload
{
    tensor::QuantizedMatrix screen;
    tensor::Vector screen_bias;
    tensor::Matrix class_weights;
    tensor::Vector class_bias;
};

tensor::Vector
randomVector(Rng &rng, size_t n)
{
    tensor::Vector v(n);
    for (float &x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

/**
 * A random task: 4K-12K rows (long enough to cross a refresh interval),
 * and a FILTER cut that passes about 1-3% of the rows.
 */
RankTask
randomTask(const SkipCase &c, Payload &p)
{
    Rng rng(c.seed);
    RankTask t;
    t.categories = 4096 + rng() % 8192;
    t.hidden = 32 * (1 + rng() % 4);
    t.reduced = 32 * (1 + rng() % 4);
    t.quant = c.quant;
    t.batch = c.batch;
    t.sigmoid = c.sigmoid;
    t.expected_candidates = 8 + rng() % 64;
    t.screen_weight_base = 0;
    t.class_weight_base = 1ull << 24;
    t.bias_base = 1ull << 25;
    t.feature_base = 1ull << 26;
    t.output_base = 1ull << 27;
    if (!c.functional)
        return t;

    // The rank reads its slice in place from larger matrices.
    t.row_offset = rng() % 512;
    const size_t rows = t.row_offset + t.categories + rng() % 64;
    tensor::Matrix ws(rows, t.reduced);
    p.class_weights = tensor::Matrix(rows, t.hidden);
    for (size_t r = 0; r < rows; ++r) {
        for (float &x : ws.row(r))
            x = static_cast<float>(rng.normal());
        for (float &x : p.class_weights.row(r))
            x = static_cast<float>(rng.normal());
    }
    p.screen = tensor::quantize(ws, c.quant, c.scheme);
    p.screen_bias = randomVector(rng, rows);
    p.class_bias = randomVector(rng, rows);
    t.screen_weights = &p.screen;
    t.screen_bias = &p.screen_bias;
    t.class_weights = &p.class_weights;
    t.class_bias = &p.class_bias;

    std::vector<float> approx;
    for (uint64_t i = 0; i < t.batch; ++i) {
        const tensor::Vector h = randomVector(rng, t.hidden);
        const tensor::QuantizedVector y =
            tensor::quantize(randomVector(rng, t.reduced), c.quant);
        const tensor::Vector z =
            tensor::gemvQuantized(p.screen, y, p.screen_bias);
        approx.insert(approx.end(), z.begin() + t.row_offset,
                      z.begin() + t.row_offset + t.categories);
        t.features.push_back(h);
        t.features_q.push_back(y);
    }
    const size_t keep = approx.size() / (30 + rng() % 70);
    std::nth_element(approx.begin(), approx.end() - keep - 1, approx.end());
    t.threshold = *(approx.end() - keep - 1);
    return t;
}

/** One finished run and everything it leaves observable. */
struct Outcome
{
    RankResult result;
    StatGroup rank_stats{"enmc.rank"};
    StatGroup dram_stats{"enmc.rank.dram"};
    fault::FaultCounters injector;
};

template <typename Drive>
Outcome
runCase(const SkipCase &c, Drive drive)
{
    Payload payload;
    RankTask task = randomTask(c, payload);
    fault::FaultInjector injector(faultConfig(c.faults, c.seed), 0);
    if (c.faults != Faults::None)
        task.injector = &injector;
    EnmcConfig cfg;
    cfg.hw_tile_sequencer = c.sequencer;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    const auto job = runtime::compileClassification(task, cfg);
    Outcome out;
    out.result = drive(rank, job.program, task);
    out.rank_stats.mergeFrom(rank.stats());
    out.dram_stats.mergeFrom(rank.dramController().stats());
    out.injector = injector.counters();
    return out;
}

void
expectSameStats(const StatGroup &a, const StatGroup &b)
{
    ASSERT_EQ(a.counters().size(), b.counters().size()) << a.name();
    for (const auto &[name, s] : a.counters())
        EXPECT_EQ(s.value.value(), b.counter(name).value())
            << a.name() << "." << name;
    ASSERT_EQ(a.scalars().size(), b.scalars().size()) << a.name();
    for (const auto &[name, s] : a.scalars()) {
        const ScalarStat &o = b.scalar(name);
        EXPECT_EQ(s.value.count(), o.count()) << a.name() << "." << name;
        // Bit-for-bit, not merely close.
        const double av[3] = {s.value.sum(), s.value.min(), s.value.max()};
        const double bv[3] = {o.sum(), o.min(), o.max()};
        EXPECT_EQ(std::memcmp(av, bv, sizeof(av)), 0)
            << a.name() << "." << name << " sum " << av[0] << " vs "
            << bv[0];
    }
    ASSERT_EQ(a.histograms().size(), b.histograms().size()) << a.name();
    for (const auto &[name, h] : a.histograms()) {
        const Histogram &o = b.histogram(name);
        EXPECT_EQ(h.value.underflow(), o.underflow()) << name;
        EXPECT_EQ(h.value.overflow(), o.overflow()) << name;
        for (size_t i = 0; i < h.value.numBins(); ++i)
            EXPECT_EQ(h.value.bin(i), o.bin(i)) << name << " bin " << i;
    }
}

void
expectSameCounters(const fault::FaultCounters &a,
                   const fault::FaultCounters &b)
{
    static_assert(sizeof(fault::FaultCounters) % sizeof(uint64_t) == 0);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0)
        << "injected " << a.injected_words << "/" << b.injected_words
        << " detected " << a.detected << "/" << b.detected
        << " dropped " << a.inst_dropped << "/" << b.inst_dropped;
}

class RankSkipDifferential : public ::testing::TestWithParam<SkipCase>
{
};

TEST_P(RankSkipDifferential, RunMatchesPerCycleStep)
{
    const SkipCase c = GetParam();
    const Outcome skip = runCase(
        c, [](EnmcRank &rank, const Program &prog, const RankTask &task) {
            return rank.run(prog, task);
        });
    const Outcome step = runCase(
        c, [](EnmcRank &rank, const Program &prog, const RankTask &task) {
            rank.start(prog, task);
            while (!rank.done())
                rank.step();
            return rank.takeResult();
        });

    const RankResult &a = skip.result;
    const RankResult &b = step.result;
#define EXPECT_FIELD(f) EXPECT_EQ(a.f, b.f) << #f
    EXPECT_FIELD(cycles);
    EXPECT_FIELD(instructions);
    EXPECT_FIELD(generated_instructions);
    EXPECT_FIELD(screen_bytes);
    EXPECT_FIELD(exec_bytes);
    EXPECT_FIELD(output_bytes);
    EXPECT_FIELD(screener_busy);
    EXPECT_FIELD(executor_busy);
    EXPECT_FIELD(candidates);
    EXPECT_FIELD(dram_reads);
    EXPECT_FIELD(dram_writes);
    EXPECT_FIELD(dram_acts);
    EXPECT_FIELD(dram_refs);
    EXPECT_FIELD(peak_weight_buf);
    EXPECT_FIELD(peak_psum_buf);
    EXPECT_FIELD(peak_exec_buf);
    EXPECT_FIELD(peak_output_buf);
    EXPECT_FIELD(uncorrectable_words);
    EXPECT_FIELD(uncorrectable_weak_words);
    EXPECT_FIELD(uncorrectable_strong_words);
    EXPECT_FIELD(ecc_redundancy_reads);
    EXPECT_FIELD(ecc_decode_cycles);
    EXPECT_FIELD(degraded_candidates);
    EXPECT_FIELD(fault_retries);
    EXPECT_FIELD(candidate_ids);
#undef EXPECT_FIELD
    expectSameCounters(a.faults, b.faults);
    expectSameCounters(skip.injector, step.injector);
    ASSERT_EQ(a.logits.size(), b.logits.size());
    for (size_t i = 0; i < a.logits.size(); ++i) {
        ASSERT_EQ(a.logits[i].size(), b.logits[i].size());
        EXPECT_EQ(std::memcmp(a.logits[i].data(), b.logits[i].data(),
                              a.logits[i].size() * sizeof(float)),
                  0)
            << "item " << i;
    }
    expectSameStats(skip.rank_stats, step.rank_stats);
    expectSameStats(skip.dram_stats, step.dram_stats);

    // The case must reach the paths it exists to cover.
    EXPECT_GT(b.dram_refs, 0u) << "no refresh";
    if (c.faults == Faults::None) {
        EXPECT_GT(b.candidates, 0u);
    } else if (c.faults == Faults::DataBer) {
        EXPECT_GT(b.faults.injected_words, 0u);
    } else if (c.faults == Faults::InstFaults) {
        EXPECT_GT(b.faults.inst_dropped + b.faults.inst_corrupted, 0u);
    } else if (c.faults == Faults::EccOverhead) {
        EXPECT_GT(b.ecc_redundancy_reads, 0u);
    } else if (c.faults == Faults::StuckRank) {
        EXPECT_GT(b.faults.stuck_reads, 0u);
    }
}

std::vector<SkipCase>
skipCases()
{
    using tensor::QuantBits;
    using tensor::QuantScheme;
    const QuantBits bits[] = {QuantBits::Int2, QuantBits::Int4,
                              QuantBits::Int8};
    const Faults faults[] = {Faults::None, Faults::DataBer,
                             Faults::InstFaults, Faults::EccOverhead,
                             Faults::StuckRank};
    const uint64_t batches[] = {1, 3, 8, 16};
    std::vector<SkipCase> cases;
    // Every quantization, scheme, normalization, sequencer setting and
    // fault setting appears at least once; the seed varies the shape.
    uint64_t seed = 1;
    for (const QuantBits q : bits) {
        for (const QuantScheme s :
             {QuantScheme::Symmetric, QuantScheme::Asymmetric}) {
            for (const bool sequencer : {false, true}) {
                const Faults f = faults[seed % 5];
                cases.push_back({seed, q, s, seed % 2 == 0,
                                 batches[seed % 4], sequencer, f, true});
                ++seed;
            }
        }
    }
    for (const Faults f : faults)
        cases.push_back({seed++, QuantBits::Int4, QuantScheme::Symmetric,
                         false, 4, seed % 2 == 0, f, true});
    for (const bool sequencer : {false, true})
        cases.push_back({seed++, QuantBits::Int4, QuantScheme::Symmetric,
                         true, 2, sequencer, Faults::None, false});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Random, RankSkipDifferential,
                         ::testing::ValuesIn(skipCases()), caseName);

// ---------------------------------------------------------------- reuse

TEST(RankReuse, SecondRunOfOneRankRepeatsTheFirst)
{
    // start() builds a fresh DRAM controller, so a second run() on one
    // rank starts on cycle 0 with a fresh refresh phase, closed rows and
    // zeroed counters (ECC redundancy reads and decode cycles included).
    const SkipCase c{7, tensor::QuantBits::Int4,
                     tensor::QuantScheme::Symmetric, false, 4, true,
                     Faults::EccOverhead, true};
    Payload payload;
    RankTask task = randomTask(c, payload);
    fault::FaultInjector injector(faultConfig(c.faults, c.seed), 0);
    task.injector = &injector;
    EnmcConfig cfg;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    const auto job = runtime::compileClassification(task, cfg);
    const RankResult first = rank.run(job.program, task);
    const RankResult second = rank.run(job.program, task);
    EXPECT_GT(first.dram_refs, 0u);
    EXPECT_GT(first.ecc_redundancy_reads, 0u);
    EXPECT_EQ(second.cycles, first.cycles);
    EXPECT_EQ(second.dram_reads, first.dram_reads);
    EXPECT_EQ(second.ecc_redundancy_reads, first.ecc_redundancy_reads);
    EXPECT_TRUE(second == first);
}

// ------------------------------------------------------------- watchdogs

RankTask
timingTask()
{
    RankTask t;
    t.categories = 2048;
    t.hidden = 128;
    t.reduced = 64;
    t.expected_candidates = 16;
    t.class_weight_base = 1ull << 24;
    t.feature_base = 1ull << 26;
    t.output_base = 1ull << 27;
    return t;
}

TEST(RankWatchdog, BoundIsTheLastCycleTheLoopMayStart)
{
    // The per-cycle loop panics at its top once cycle max_cycles + 1 has
    // run unfinished, so a run that needs C cycles passes at
    // max_cycles = C - 1 and fails at C - 2. A skip must neither jump
    // past that bound nor stop short of it.
    const RankTask task = timingTask();
    EnmcConfig cfg;
    const auto job = runtime::compileClassification(task, cfg);
    const auto run = [&](Cycles max_cycles) {
        EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
        return rank.run(job.program, task, max_cycles).cycles;
    };
    const Cycles c = run(2'000'000'000ull);
    ASSERT_GT(c, 1000u);
    EXPECT_EQ(run(c - 1), c);
    EXPECT_DEATH(run(c - 2), "ENMC rank watchdog");
}

TEST(RankWatchdog, DeadlockedProgramPanicsWithoutTickingEveryCycle)
{
    // MUL_ADD_INT4 with the sequencer off waits for a tile LDR that never
    // comes: no unit ever acts again, only refresh. The skips jump from
    // refresh to refresh, so even a 10^9-cycle bound fails fast.
    const RankTask task = timingTask();
    const Program prog = {
        makeInit(StatusReg::TileRows, 64),
        makeCompute(Opcode::MulAddInt4, BufferId::ScreenFeature,
                    BufferId::ScreenWeight),
    };
    EnmcConfig cfg;
    EnmcRank rank(cfg, rankOrg(), dram::Timing::ddr4_2400());
    EXPECT_DEATH(rank.run(prog, task, 5000), "ENMC rank watchdog");
    EXPECT_DEATH(rank.run(prog, task, 1'000'000'000ull),
                 "ENMC rank watchdog");
}

} // namespace
} // namespace enmc::arch
