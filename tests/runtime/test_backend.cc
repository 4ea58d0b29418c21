/**
 * @file
 * Tests for the execution-backend layer: registry lookup, the ENMC
 * family's functional execution, run-to-run determinism of every
 * registered backend, the `runJob` memo and the fault seed it may
 * ignore, the single shared task layout, and bit-identical
 * thread-pooled functional execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "runtime/backend.h"
#include "runtime/partition.h"
#include "runtime/system.h"
#include "screening/trainer.h"
#include "workloads/synthetic.h"

namespace enmc::runtime {
namespace {

JobSpec
smallJob(uint64_t l = 65536, uint64_t batch = 2)
{
    JobSpec spec;
    spec.categories = l;
    spec.hidden = 256;
    spec.reduced = 64;
    spec.batch = batch;
    spec.candidates = l / 100;
    return spec;
}

// ------------------------------------------------------------- registry

TEST(BackendRegistry, ListsAllBuiltins)
{
    const auto names = backendNames();
    for (const char *expected :
         {"enmc", "nda", "chameleon", "tensordimm", "tensordimm-large",
          "cpu", "cpu-full", "auto"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << "missing backend " << expected;
    }
}

TEST(BackendRegistry, CreatesEveryRegisteredBackend)
{
    for (const auto &name : backendNames()) {
        if (name.rfind("test-", 0) == 0)
            continue; // entries other tests registered
        const auto backend = createBackend(name);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->name(), name);
    }
}

TEST(BackendRegistry, UnknownNameDies)
{
    EXPECT_DEATH((void)createBackend("not-a-backend"), "unknown backend");
}

TEST(BackendRegistry, UnknownNameDeathListsTheRegistry)
{
    // The miss message must enumerate what *is* registered, so a typo'd
    // --backend flag is self-diagnosing.
    EXPECT_DEATH((void)createBackend("not-a-backend"),
                 "registered:.*enmc");
}

TEST(BackendRegistry, ContainsReflectsRegistration)
{
    auto &reg = BackendRegistry::instance();
    EXPECT_FALSE(reg.contains("test-contains"));
    reg.add("test-contains", [](const SystemConfig &cfg) {
        return std::make_unique<EnmcBackend>(cfg);
    });
    EXPECT_TRUE(reg.contains("test-contains"));
    const auto names = backendNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "test-contains"),
              names.end());
}

TEST(BackendRegistry, DuplicateRegistrationReplacesTheFactory)
{
    // The factories outlive this test in the global registry (later
    // tests create every registered name), so they count through state
    // they own rather than through references to this frame.
    auto &reg = BackendRegistry::instance();
    auto first_calls = std::make_shared<int>(0);
    auto second_calls = std::make_shared<int>(0);
    reg.add("test-dup", [first_calls](const SystemConfig &cfg) {
        ++*first_calls;
        return std::make_unique<EnmcBackend>(cfg);
    });
    reg.add("test-dup", [second_calls](const SystemConfig &cfg) {
        ++*second_calls;
        return std::make_unique<EnmcBackend>(cfg);
    });
    (void)createBackend("test-dup");
    EXPECT_EQ(*first_calls, 0) << "replaced factory must never run";
    EXPECT_EQ(*second_calls, 1);
}

TEST(BackendRegistry, FunctionalCapabilityIsTheEnmcFamilyOnly)
{
    // Given a slice without payloads, the ENMC family takes it and asks
    // for the payloads; every other registry backend refuses outright.
    arch::RankTask task;
    task.categories = 16;
    task.hidden = 32;
    task.reduced = 8;
    for (const auto &name : backendNames()) {
        if (name.rfind("test-", 0) == 0)
            continue;
        const bool enmc = name == "enmc" || name == "enmc-resilient";
        const auto backend = createBackend(name);
        EXPECT_DEATH((void)backend->runFunctionalSlice(task),
                     enmc ? "needs tensor payloads"
                          : "does not support functional")
            << name;
    }
}

TEST(BackendRegistry, NonFunctionalBackendRefusesFunctionalSlices)
{
    const auto backend = createBackend("tensordimm");
    arch::RankTask task;
    task.categories = 16;
    task.hidden = 32;
    task.reduced = 8;
    EXPECT_DEATH((void)backend->runFunctionalSlice(task),
                 "does not support functional");
}

// ---------------------------------------------------------- determinism

TEST(BackendDeterminism, EveryBackendRepeatsTimingExactly)
{
    const JobSpec spec = smallJob();
    for (const auto &name : backendNames()) {
        if (name == "auto")
            continue; // adaptive by design: consecutive calls are warm-up
                      // probes of different candidates (decision-sequence
                      // determinism is covered in test_planner.cc)
        const auto backend = createBackend(name);
        const TimingResult a = backend->runJob(spec);
        const TimingResult b = backend->runJob(spec);
        EXPECT_EQ(a.rank_cycles, b.rank_cycles) << name;
        EXPECT_EQ(a.rank.screen_bytes, b.rank.screen_bytes) << name;
        EXPECT_EQ(a.rank.exec_bytes, b.rank.exec_bytes) << name;
        EXPECT_EQ(a.rank.dram_reads, b.rank.dram_reads) << name;
        EXPECT_DOUBLE_EQ(a.seconds, b.seconds) << name;
        EXPECT_GT(a.rank_cycles, 0u) << name;
    }
}

TEST(BackendDeterminism, FreshInstanceMatchesReusedInstance)
{
    const JobSpec spec = smallJob();
    for (const auto &name : backendNames()) {
        const Cycles first = createBackend(name)->runJob(spec).rank_cycles;
        const Cycles second = createBackend(name)->runJob(spec).rank_cycles;
        EXPECT_EQ(first, second) << name;
    }
}

TEST(BackendDeterminism, BackendsRankRelativeToEachOther)
{
    // The whole point of the uniform interface: timings compare directly.
    const JobSpec spec = smallJob();
    const double enmc = createBackend("enmc")->runJob(spec).seconds;
    const double td = createBackend("tensordimm")->runJob(spec).seconds;
    const double cpu_full = createBackend("cpu-full")->runJob(spec).seconds;
    EXPECT_LT(enmc, td);       // dual-module INT4 screening wins
    EXPECT_LT(td, cpu_full);   // any NMP scheme beats the CPU baseline
}

// ------------------------------------------------------------- job memo

/** A timing model that counts its runs; each run's result is distinct. */
class CountingBackend : public Backend
{
  public:
    CountingBackend() : Backend(SystemConfig{}) {}

    std::string name() const override { return "test-counting"; }
    arch::RankResult runSlice(const arch::RankTask &) const override
    {
        return {};
    }
    TimingResult runJob(const JobSpec &spec) const override
    {
        TimingResult r;
        r.rank_cycles = ++runs;
        r.seconds = static_cast<double>(spec.categories);
        return r;
    }

    mutable uint64_t runs = 0;
};

TEST(JobMemo, RunsTheBackendOncePerDistinctSpec)
{
    const CountingBackend backend;
    const JobMemo memo(backend);
    const std::vector<JobSpec> specs = {smallJob(), smallJob(4096),
                                        smallJob(65536, 4)};
    for (int pass = 0; pass < 3; ++pass) {
        for (size_t i = 0; i < specs.size(); ++i) {
            const TimingResult &r = memo.runJob(specs[i]);
            EXPECT_EQ(r.rank_cycles, i + 1) << "a hit returns the first run";
            EXPECT_EQ(r.seconds, static_cast<double>(specs[i].categories));
        }
    }
    EXPECT_EQ(backend.runs, specs.size());
}

TEST(JobMemo, EverySingleFieldChangeMisses)
{
    const JobSpec base = smallJob();
    std::vector<std::pair<const char *, JobSpec>> variants;
    const auto vary = [&](const char *field, auto change) {
        JobSpec spec = base;
        change(spec);
        variants.emplace_back(field, spec);
    };
    vary("categories", [](JobSpec &s) { ++s.categories; });
    vary("hidden", [](JobSpec &s) { ++s.hidden; });
    vary("reduced", [](JobSpec &s) { ++s.reduced; });
    vary("quant", [](JobSpec &s) { s.quant = tensor::QuantBits::Int8; });
    vary("batch", [](JobSpec &s) { ++s.batch; });
    vary("candidates", [](JobSpec &s) { ++s.candidates; });
    vary("sigmoid", [](JobSpec &s) { s.sigmoid = !s.sigmoid; });

    const CountingBackend backend;
    const JobMemo memo(backend);
    (void)memo.runJob(base);
    for (const auto &[field, spec] : variants) {
        const uint64_t before = backend.runs;
        (void)memo.runJob(spec);
        EXPECT_EQ(backend.runs, before + 1) << field << " must miss";
        (void)memo.runJob(spec);
        EXPECT_EQ(backend.runs, before + 1) << field << " must then hit";
    }
    (void)memo.runJob(base);
    EXPECT_EQ(backend.runs, variants.size() + 1);
}

void
expectSameTiming(const TimingResult &a, const TimingResult &b,
                 const std::string &name)
{
#define EXPECT_FIELD(f) EXPECT_EQ(a.f, b.f) << name << ": " #f
    EXPECT_FIELD(seconds);
    EXPECT_FIELD(rank_cycles);
    EXPECT_FIELD(extrapolated);
    EXPECT_FIELD(ranks);
    EXPECT_FIELD(rank.cycles);
    EXPECT_FIELD(rank.instructions);
    EXPECT_FIELD(rank.generated_instructions);
    EXPECT_FIELD(rank.screen_bytes);
    EXPECT_FIELD(rank.exec_bytes);
    EXPECT_FIELD(rank.output_bytes);
    EXPECT_FIELD(rank.screener_busy);
    EXPECT_FIELD(rank.executor_busy);
    EXPECT_FIELD(rank.candidates);
    EXPECT_FIELD(rank.dram_reads);
    EXPECT_FIELD(rank.dram_writes);
    EXPECT_FIELD(rank.dram_acts);
    EXPECT_FIELD(rank.dram_refs);
    EXPECT_FIELD(rank.peak_weight_buf);
    EXPECT_FIELD(rank.peak_psum_buf);
    EXPECT_FIELD(rank.peak_exec_buf);
    EXPECT_FIELD(rank.peak_output_buf);
    EXPECT_FIELD(rank.faults.injected_words);
    EXPECT_FIELD(rank.faults.corrected);
    EXPECT_FIELD(rank.faults.detected);
    EXPECT_FIELD(rank.faults.escaped);
    EXPECT_FIELD(rank.uncorrectable_words);
    EXPECT_FIELD(rank.ecc_redundancy_reads);
    EXPECT_FIELD(rank.ecc_decode_cycles);
    EXPECT_FIELD(rank.degraded_candidates);
    EXPECT_FIELD(rank.fault_retries);
    EXPECT_FIELD(rank.logits);
    EXPECT_FIELD(rank.candidate_ids);
#undef EXPECT_FIELD
}

TEST(JobMemo, MemoisedResultEqualsAFreshRunOnEveryBackend)
{
    const JobSpec spec = smallJob();
    for (const auto &name : backendNames()) {
        if (name == "auto")
            continue; // adaptive: consecutive runs probe other candidates
        const auto backend = createBackend(name);
        const JobMemo memo(*backend);
        (void)memo.runJob(spec);
        expectSameTiming(memo.runJob(spec), backend->runJob(spec), name);
    }
}

TEST(JobMemo, NoBackendTimingReadsTheFaultSeed)
{
    // A cluster times every node's shards through one backend and memo,
    // though each node's system draws its own fault seed: that is exact
    // only while no runJob reads the seed, even with the fault model on.
    SystemConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.data_ber = 1e-4;
    cfg.fault.stuck_ranks = {1};
    cfg.fault.ecc_overhead = true;
    SystemConfig reseeded = cfg;
    reseeded.fault.seed = cfg.fault.seed + 3;
    const JobSpec spec = smallJob();
    for (const auto &name : backendNames()) {
        if (name.rfind("test-", 0) == 0)
            continue;
        expectSameTiming(createBackend(name, cfg)->runJob(spec),
                         createBackend(name, reseeded)->runJob(spec), name);
    }
}

// --------------------------------------------------------------- layout

TEST(TaskLayoutPolicy, TimingAndFunctionalPathsShareOneLayout)
{
    // The timing path builds tasks through makeSliceTask; the functional
    // path assigns the layout on its hand-built slice task. For the same
    // task shape the five base addresses must be byte-identical.
    const JobSpec spec = smallJob();
    const uint64_t rows = 1024, cands = 32;
    const arch::RankTask timing =
        EnmcSystem::makeSliceTask(spec, rows, cands);

    arch::RankTask functional;
    functional.categories = rows;
    functional.hidden = spec.hidden;
    functional.reduced = spec.reduced;
    functional.quant = spec.quant;
    functional.batch = spec.batch;
    TaskLayout::assign(functional);

    EXPECT_EQ(functional.screen_weight_base, timing.screen_weight_base);
    EXPECT_EQ(functional.class_weight_base, timing.class_weight_base);
    EXPECT_EQ(functional.bias_base, timing.bias_base);
    EXPECT_EQ(functional.feature_base, timing.feature_base);
    EXPECT_EQ(functional.output_base, timing.output_base);
}

TEST(TaskLayoutPolicy, RegionsAreDisjointAndAligned)
{
    arch::RankTask task;
    task.categories = 777;
    task.hidden = 300;
    task.reduced = 75;
    task.batch = 3;
    const uint64_t footprint = TaskLayout::assign(task);

    const Addr bases[] = {task.screen_weight_base, task.class_weight_base,
                          task.bias_base, task.feature_base,
                          task.output_base};
    for (size_t i = 0; i + 1 < 5; ++i)
        EXPECT_LT(bases[i], bases[i + 1]);
    for (Addr base : bases)
        EXPECT_EQ(base % TaskLayout::kAlign, 0u);
    EXPECT_GE(footprint,
              task.output_base + task.categories * sizeof(float));
}

TEST(RankPartitionerPolicy, CoversRangeWithContiguousDisjointSlices)
{
    const auto slices = RankPartitioner::partition(100, 1000, 7);
    ASSERT_FALSE(slices.empty());
    EXPECT_EQ(slices.front().begin, 100u);
    uint64_t covered = 0;
    for (size_t i = 0; i < slices.size(); ++i) {
        EXPECT_GT(slices[i].rows, 0u);
        if (i > 0) {
            EXPECT_EQ(slices[i].begin,
                      slices[i - 1].begin + slices[i - 1].rows);
        }
        covered += slices[i].rows;
    }
    EXPECT_EQ(covered, 1000u);
    EXPECT_LE(slices.size(), 7u);
}

TEST(RankPartitionerPolicy, DropsTrailingEmptySlices)
{
    // 10 rows over 8 parts: ceil slicing gives 2-row slices, so only 5
    // slices carry work.
    const auto slices = RankPartitioner::partition(0, 10, 8);
    EXPECT_EQ(slices.size(), 5u);
    EXPECT_EQ(slices.back().begin + slices.back().rows, 10u);
}

// ------------------------------------------------- threaded functional

class ThreadedFunctional : public ::testing::Test
{
  protected:
    ThreadedFunctional()
        : model_(makeConfig())
    {
        screening::ScreenerConfig cfg;
        cfg.categories = 1024;
        cfg.hidden = 64;
        cfg.selection = screening::SelectionMode::Threshold;
        Rng rng(11);
        screener_ = std::make_unique<screening::Screener>(cfg, rng);
        Rng data = model_.makeRng(2);
        auto train = model_.sampleHiddenBatch(data, 128);
        screening::Trainer trainer(model_.classifier(), *screener_,
                                   screening::TrainerConfig{});
        trainer.train(train, {});
        screener_->freezeQuantized();
        const float cut = screening::tuneThreshold(*screener_, train, 32);
        screener_->setSelection(screening::SelectionMode::Threshold, 32,
                                cut);
        h_batch_ = model_.sampleHiddenBatch(data, 3);
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 1024;
        cfg.hidden = 64;
        return cfg;
    }

    EnmcSystem::FunctionalResult
    runWithThreads(uint64_t threads) const
    {
        SystemConfig cfg;
        cfg.sim_threads = threads;
        EnmcSystem sys(cfg);
        return sys.runFunctional(model_.classifier(), *screener_, h_batch_,
                                 8);
    }

    workloads::SyntheticModel model_;
    std::unique_ptr<screening::Screener> screener_;
    std::vector<tensor::Vector> h_batch_;
};

TEST_F(ThreadedFunctional, PooledRunsBitMatchSerial)
{
    const auto serial = runWithThreads(1);
    for (uint64_t threads : {2ull, 8ull}) {
        const auto pooled = runWithThreads(threads);
        EXPECT_EQ(pooled.rank_cycles, serial.rank_cycles)
            << threads << " threads";
        ASSERT_EQ(pooled.logits.size(), serial.logits.size());
        for (size_t item = 0; item < serial.logits.size(); ++item) {
            for (size_t i = 0; i < serial.logits[item].size(); ++i)
                ASSERT_EQ(pooled.logits[item][i], serial.logits[item][i])
                    << threads << " threads, item " << item << " logit "
                    << i;
            ASSERT_EQ(pooled.candidates[item], serial.candidates[item])
                << threads << " threads, item " << item;
            for (size_t i = 0; i < serial.probabilities[item].size(); ++i)
                ASSERT_EQ(pooled.probabilities[item][i],
                          serial.probabilities[item][i]);
        }
    }
}

TEST_F(ThreadedFunctional, GlobalPoolBitMatchesSerial)
{
    const auto serial = runWithThreads(1);
    const auto pooled = runWithThreads(0); // process-wide pool
    EXPECT_EQ(pooled.rank_cycles, serial.rank_cycles);
    for (size_t item = 0; item < serial.logits.size(); ++item) {
        for (size_t i = 0; i < serial.logits[item].size(); ++i)
            ASSERT_EQ(pooled.logits[item][i], serial.logits[item][i]);
        ASSERT_EQ(pooled.candidates[item], serial.candidates[item]);
    }
}

} // namespace
} // namespace enmc::runtime
