#include "runtime/resilience.h"

#include <algorithm>

#include "common/logging.h"

namespace enmc::runtime {

ResilientBackend::ResilientBackend(const SystemConfig &cfg)
    : Backend(cfg), inner_(cfg),
      stats_("runtime.resilient"),
      stat_slices_(stats_.addCounter("slices", "slice executions")),
      stat_retries_(stats_.addCounter("retries",
                                      "uncorrectable-slice re-executions")),
      stat_degraded_(stats_.addCounter(
          "degradedSlices",
          "slices answered with approximate logits after retry exhaustion")),
      stat_penalty_cycles_(stats_.addCounter(
          "penaltyCycles", "backoff cycles added by retries")),
      stat_blacklisted_(stats_.addCounter("blacklistedRanks",
                                          "stuck ranks dropped from jobs")),
      stats_registration_(stats_)
{
}

std::vector<uint32_t>
ResilientBackend::healthyRanks() const
{
    std::vector<uint32_t> out;
    for (uint32_t r = 0; r < cfg_.totalRanks(); ++r) {
        // A stuck rank fails every slice deterministically, so it always
        // reaches the blacklist threshold; `blacklist_after` only sets
        // how many failed probes the host pays before dropping it.
        if (cfg_.fault.enabled && cfg_.fault.rankStuck(r))
            continue;
        out.push_back(r);
    }
    return out;
}

arch::RankResult
ResilientBackend::runWithRetry(const arch::RankTask &task,
                               bool functional) const
{
    auto execute = [&](const arch::RankTask &t) {
        return functional ? inner_.runFunctionalSlice(t)
                          : inner_.runSlice(t);
    };

    arch::RankResult res = execute(task);
    fault::FaultInjector *injector = task.injector;
    if (injector == nullptr || !injector->enabled()) {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stat_slices_;
        return res;
    }

    // A stuck rank fails deterministically: retrying is wasted work, and
    // the blacklisting path (runJob/runFunctionalJob) handles it.
    const bool stuck = injector->config().rankStuck(task.rank_index);

    // With retry_weak off (differentiated-protection policy), erasures on
    // the weak screener path never trigger a slice retry: they only
    // perturb candidate membership, which the exact executor recompute
    // already bounds. Only strong-path erasures are worth re-reading.
    auto retryWorthy = [this](const arch::RankResult &r) {
        return cfg_.resilience.retry_weak
                   ? r.uncorrectable_words > 0
                   : r.uncorrectable_strong_words > 0;
    };

    Cycles backoff = cfg_.resilience.retry_backoff_cycles;
    Cycles penalty = 0;
    uint64_t retries = 0;
    while (retryWorthy(res) && !stuck &&
           retries < cfg_.resilience.max_retries) {
        ++retries;
        penalty += backoff;
        backoff *= 2;
        // A retry re-reads DRAM: transient faults draw fresh samples from
        // a per-attempt stream; its counters merge back into the caller's
        // injector so the accounting invariant spans all attempts.
        fault::FaultInjector retry_injector(
            injector->config(),
            injector->stream() + (retries << 32));
        arch::RankTask retry_task = task;
        retry_task.injector = &retry_injector;
        res = execute(retry_task);
        injector->counters() += retry_injector.counters();
    }
    res.cycles += penalty;
    res.fault_retries = retries;

    if (retryWorthy(res) && !stuck && !cfg_.resilience.degrade)
        ENMC_PANIC("slice still uncorrectable after ", retries,
                   " retries and degradation is disabled");

    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stat_slices_;
        stat_retries_ += retries;
        stat_penalty_cycles_ += penalty;
        if (retryWorthy(res) && !stuck)
            ++stat_degraded_;
    }
    return res;
}

arch::RankResult
ResilientBackend::runSlice(const arch::RankTask &task) const
{
    return runWithRetry(task, /*functional=*/false);
}

arch::RankResult
ResilientBackend::runFunctionalSlice(const arch::RankTask &task) const
{
    return runWithRetry(task, /*functional=*/true);
}

TimingResult
ResilientBackend::runJob(const JobSpec &spec) const
{
    const std::vector<uint32_t> healthy = healthyRanks();
    ENMC_ASSERT(!healthy.empty(), "every rank is blacklisted");

    // Repartition over the survivors (fewer ranks, bigger slices) and
    // time them exactly as the plain enmc backend times a job.
    TimingResult res = EnmcSystem(cfg_).runTiming(spec, healthy.size());
    // Discovering each dead rank cost the host `blacklist_after` failed
    // probe slices of one backoff each before it was dropped.
    const uint64_t blacklisted = cfg_.totalRanks() - healthy.size();
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stat_blacklisted_ += blacklisted;
    }
    res.rank_cycles += blacklisted * cfg_.resilience.blacklist_after *
                       cfg_.resilience.retry_backoff_cycles;
    res.seconds = cyclesToSeconds(res.rank_cycles, cfg_.timing.freq_hz);
    if (res.extrapolated)
        res.rank.cycles = res.rank_cycles;
    return res;
}

EnmcSystem::FunctionalResult
ResilientBackend::runFunctionalJob(const nn::Classifier &classifier,
                                   const screening::Screener &screener,
                                   const std::vector<tensor::Vector> &h_batch,
                                   uint64_t ranks_to_use) const
{
    const std::vector<uint32_t> healthy = healthyRanks();
    ENMC_ASSERT(!healthy.empty(), "every rank is blacklisted");
    SystemConfig cfg = cfg_;
    cfg.functional_rank_ids = healthy;
    cfg.resilient = true;
    const uint64_t ranks =
        std::min<uint64_t>(ranks_to_use, healthy.size());
    return EnmcSystem(cfg).runFunctional(classifier, screener, h_batch,
                                         ranks);
}

} // namespace enmc::runtime
