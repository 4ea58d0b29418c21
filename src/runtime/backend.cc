#include "runtime/backend.h"

#include <algorithm>

#include "common/logging.h"
#include "enmc/rank.h"
#include "runtime/compiler.h"
#include "runtime/partition.h"
#include "runtime/planner.h"
#include "runtime/resilience.h"

namespace enmc::runtime {

arch::RankResult
Backend::runFunctionalSlice(const arch::RankTask &task) const
{
    (void)task;
    ENMC_PANIC("backend '", name(), "' does not support functional execution");
}

TimingResult
Backend::runJob(const JobSpec &spec) const
{
    ENMC_ASSERT(spec.categories > 0, "job dimensions not set");
    const uint64_t ranks = cfg_.totalRanks();
    arch::RankTask task = EnmcSystem::makeSliceTask(
        spec, RankPartitioner::sliceRows(spec.categories, ranks),
        RankPartitioner::evenShare(spec.candidates, ranks));

    // Very large slices are truncated and scaled linearly — screening is
    // tile-homogeneous, so the steady-state rate transfers (validated
    // against full runs for the ENMC path in tests/runtime).
    const uint64_t max_rows = 64 * 1024;
    double scale = 1.0;
    if (task.categories > max_rows) {
        scale = static_cast<double>(task.categories) / max_rows;
        task.expected_candidates = std::max<uint64_t>(
            1, static_cast<uint64_t>(task.expected_candidates / scale));
        task.categories = max_rows;
    }

    const arch::RankResult r = runSlice(task);
    TimingResult res;
    res.rank = r;
    res.ranks = ranks;
    res.extrapolated = scale != 1.0;
    res.rank_cycles = static_cast<Cycles>(r.cycles * scale);
    res.seconds = cyclesToSeconds(res.rank_cycles, cfg_.timing.freq_hz);
    if (res.extrapolated) {
        res.rank.cycles = res.rank_cycles;
        res.rank.screen_bytes =
            static_cast<uint64_t>(r.screen_bytes * scale);
        res.rank.exec_bytes = static_cast<uint64_t>(r.exec_bytes * scale);
        res.rank.output_bytes =
            static_cast<uint64_t>(r.output_bytes * scale);
        res.rank.dram_reads = static_cast<uint64_t>(r.dram_reads * scale);
        res.rank.dram_writes = static_cast<uint64_t>(r.dram_writes * scale);
        res.rank.dram_acts = static_cast<uint64_t>(r.dram_acts * scale);
        res.rank.dram_refs = static_cast<uint64_t>(r.dram_refs * scale);
    }
    return res;
}

// ---------------------------------------------------------------- ENMC

EnmcBackend::EnmcBackend(const SystemConfig &cfg)
    : Backend(cfg)
{
}

arch::RankResult
EnmcBackend::runSlice(const arch::RankTask &task) const
{
    const dram::Organization rank_org = cfg_.org.singleRankView();
    arch::EnmcRank rank(cfg_.enmc, rank_org, cfg_.timing);
    const CompiledJob job = compileClassification(task, cfg_.enmc);
    return rank.run(job.program, task);
}

arch::RankResult
EnmcBackend::runFunctionalSlice(const arch::RankTask &task) const
{
    ENMC_ASSERT(task.functional(),
                "functional slice needs tensor payloads attached");
    return runSlice(task);
}

TimingResult
EnmcBackend::runJob(const JobSpec &spec) const
{
    // The ENMC system has its own two-point tile extrapolation, strictly
    // better than the generic truncate-and-scale default.
    return EnmcSystem(cfg_).runTiming(spec);
}

// ----------------------------------------------------------------- NMP

NmpBackend::NmpBackend(std::string name, const nmp::EngineConfig &engine,
                       const SystemConfig &cfg)
    : Backend(cfg), name_(std::move(name)), engine_(engine)
{
}

arch::RankResult
NmpBackend::runSlice(const arch::RankTask &task) const
{
    nmp::NmpEngine engine(engine_, cfg_.org.singleRankView(), cfg_.timing);
    return engine.run(task);
}

// ----------------------------------------------------------------- CPU

CpuBackend::CpuBackend(const SystemConfig &cfg, bool screening,
                       const nmp::CpuConfig &cpu)
    : Backend(cfg), screening_(screening), cpu_(cpu)
{
}

double
CpuBackend::sliceSeconds(const arch::RankTask &task) const
{
    return screening_
               ? nmp::cpuScreeningTime(cpu_, task.categories, task.hidden,
                                       task.reduced,
                                       task.expected_candidates, task.batch,
                                       task.quant)
               : nmp::cpuFullClassificationTime(cpu_, task.categories,
                                                task.hidden, task.batch);
}

arch::RankResult
CpuBackend::runSlice(const arch::RankTask &task) const
{
    const double seconds = sliceSeconds(task);
    arch::RankResult res;
    res.cycles = secondsToCycles(seconds, cfg_.timing.freq_hz);
    res.screen_bytes =
        screening_ ? task.categories * task.screenRowBytes() : 0;
    res.exec_bytes =
        screening_
            ? task.expected_candidates * task.batch * task.classRowBytes()
            : task.categories * task.classRowBytes();
    res.candidates = task.expected_candidates * task.batch;
    return res;
}

TimingResult
CpuBackend::runJob(const JobSpec &spec) const
{
    // The host runs the whole job; there is no rank partitioning.
    arch::RankTask task;
    task.categories = spec.categories;
    task.hidden = spec.hidden;
    task.reduced = spec.reduced;
    task.quant = spec.quant;
    task.batch = spec.batch;
    task.expected_candidates = std::max<uint64_t>(1, spec.candidates);

    TimingResult res;
    res.rank = runSlice(task);
    res.ranks = 1;
    res.rank_cycles = res.rank.cycles;
    res.seconds = cyclesToSeconds(res.rank_cycles, cfg_.timing.freq_hz);
    return res;
}

// ------------------------------------------------------------ job memo

const TimingResult &
JobMemo::runJob(const JobSpec &spec) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = results_.find(spec);
    if (it == results_.end())
        it = results_.emplace(spec, backend_.runJob(spec)).first;
    return it->second;
}

// ------------------------------------------------------------- registry

BackendRegistry::BackendRegistry()
{
    add("enmc", [](const SystemConfig &cfg) {
        return std::make_unique<EnmcBackend>(cfg);
    });
    add("enmc-resilient", [](const SystemConfig &cfg) {
        return std::make_unique<ResilientBackend>(cfg);
    });
    add("nda", [](const SystemConfig &cfg) {
        return std::make_unique<NmpBackend>(
            "nda", nmp::EngineConfig::nda(), cfg);
    });
    add("chameleon", [](const SystemConfig &cfg) {
        return std::make_unique<NmpBackend>(
            "chameleon", nmp::EngineConfig::chameleon(), cfg);
    });
    add("tensordimm", [](const SystemConfig &cfg) {
        return std::make_unique<NmpBackend>(
            "tensordimm", nmp::EngineConfig::tensorDimm(), cfg);
    });
    add("tensordimm-large", [](const SystemConfig &cfg) {
        return std::make_unique<NmpBackend>(
            "tensordimm-large", nmp::EngineConfig::tensorDimmLarge(), cfg);
    });
    add("cpu", [](const SystemConfig &cfg) {
        return std::make_unique<CpuBackend>(cfg, /*screening=*/true);
    });
    add("cpu-full", [](const SystemConfig &cfg) {
        return std::make_unique<CpuBackend>(cfg, /*screening=*/false);
    });
    add("auto", [](const SystemConfig &cfg) {
        return std::make_unique<AutoBackend>(cfg);
    });
}

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

void
BackendRegistry::add(const std::string &name, BackendFactory factory)
{
    factories_[name] = std::move(factory);
}

bool
BackendRegistry::contains(const std::string &name) const
{
    return factories_.count(name) != 0;
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &[name, factory] : factories_)
        out.push_back(name);
    return out;
}

std::unique_ptr<Backend>
BackendRegistry::create(const std::string &name,
                        const SystemConfig &cfg) const
{
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
        std::string known;
        for (const auto &n : names())
            known += (known.empty() ? "" : ", ") + n;
        ENMC_PANIC("unknown backend '", name, "' (registered: ", known,
                   ")");
    }
    return it->second(cfg);
}

std::unique_ptr<Backend>
createBackend(const std::string &name, const SystemConfig &cfg)
{
    return BackendRegistry::instance().create(name, cfg);
}

std::vector<std::string>
backendNames()
{
    return BackendRegistry::instance().names();
}

} // namespace enmc::runtime
