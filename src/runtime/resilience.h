/**
 * @file
 * The resilience policy layer on top of SECDED: what the host runtime
 * does when ECC *detects* an error it cannot correct.
 *
 * Three escalating responses (each configurable via
 * `SystemConfig::resilience`):
 *  - **retry with backoff**: a detected-uncorrectable slice is re-read
 *    and re-executed; transient faults draw fresh samples on each
 *    attempt, so retries converge at realistic error rates. Each retry
 *    adds an exponentially growing cycle penalty.
 *  - **rank blacklisting**: a rank that keeps failing (a stuck-at rank
 *    fails deterministically) is dropped from the partition; the job is
 *    repartitioned across the remaining healthy ranks via
 *    `RankPartitioner` — throughput degrades, correctness does not.
 *  - **graceful degradation**: when retries are exhausted and the rank
 *    still reports uncorrectable executor rows, the affected candidates
 *    keep their approximate (screener) logits instead of failing the
 *    query — the paper's screening stage doubles as a fallback answer.
 *
 * Registered as backend "enmc-resilient"; with faults disabled it is
 * bit-identical to the plain "enmc" backend.
 */

#ifndef ENMC_RUNTIME_RESILIENCE_H
#define ENMC_RUNTIME_RESILIENCE_H

#include <mutex>
#include <vector>

#include "common/stats.h"
#include "obs/registry.h"
#include "runtime/backend.h"

namespace enmc::runtime {

/** EnmcBackend wrapped in the retry / blacklist / degrade policy. */
class ResilientBackend : public Backend
{
  public:
    explicit ResilientBackend(const SystemConfig &cfg);

    std::string name() const override { return "enmc-resilient"; }

    /**
     * One slice (timing or functional) with retry-with-backoff: while the
     * rank reports detected-uncorrectable words, re-execute with a fresh
     * per-attempt fault stream (counters merge back into the task's
     * injector), up to `resilience.max_retries` times; each retry adds a
     * doubling cycle penalty. Exhausted retries degrade (approximate-only
     * logits for the affected candidates) when `resilience.degrade`, else
     * panic. Stuck ranks are not retried — they fail deterministically
     * and are the blacklisting path's job.
     */
    arch::RankResult runSlice(const arch::RankTask &task) const override;

    /**
     * Full-job timing over the *healthy* ranks only: blacklisted ranks
     * are dropped and the job is repartitioned, so each survivor takes a
     * proportionally larger slice, timed by EnmcSystem::runTiming like
     * the plain enmc backend. Detecting each dead rank costs
     * `blacklist_after` failed probe attempts of backoff each.
     */
    TimingResult runJob(const JobSpec &spec) const override;

    /**
     * Functional job over the healthy ranks (the functional counterpart
     * of runJob's repartitioning). Delegates to
     * EnmcSystem::runFunctional with `functional_rank_ids` set to the
     * healthy list and slices routed through this wrapper.
     */
    EnmcSystem::FunctionalResult
    runFunctionalJob(const nn::Classifier &classifier,
                     const screening::Screener &screener,
                     const std::vector<tensor::Vector> &h_batch,
                     uint64_t ranks_to_use = 4) const;

    /** Rank ids that survive blacklisting (all ranks if faults are off). */
    std::vector<uint32_t> healthyRanks() const;

  private:
    EnmcBackend inner_;

    // Policy-layer stats ("runtime.resilient"). Slices run concurrently
    // on pool workers, so updates lock stats_mutex_ (the counters are
    // plain uint64s); member references let const slice methods tally.
    mutable std::mutex stats_mutex_;
    StatGroup stats_;
    Counter &stat_slices_;
    Counter &stat_retries_;
    Counter &stat_degraded_;
    Counter &stat_penalty_cycles_;
    Counter &stat_blacklisted_;
    // Declared last so the group unregisters before any stat dies.
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::runtime

#endif // ENMC_RUNTIME_RESILIENCE_H
