/**
 * @file
 * Profile-driven adaptive offload planner (NMPO, arXiv:2106.15284) and
 * the `"auto"` registry backend built on it.
 *
 * ENMC's evaluation shows the crossover between host-CPU SIMD and
 * in-DIMM screening shifts with batch size and candidate count, so a
 * static backend choice leaves throughput on the table. The planner
 * closes that gap at runtime: it bins requests by (batch size, candidate
 * count, workload shape), seeds per-bin cost estimates from a short
 * profiling warm-up (round-robin over the candidate backends), then
 * routes each job to the argmin-cost backend under an exponentially
 * decayed latency estimator per (bin, backend). Periodic forced
 * exploration re-probes non-best candidates so the plan adapts when
 * traffic shifts or a backend degrades; backends marked unavailable
 * (e.g. blacklisted ranks, a scripted fault burst) are never routed to.
 *
 * Determinism contract: decisions are a pure function of (decision
 * sequence, config, seed). The planner holds no clocks and draws
 * randomness only from its own seeded Rng at exploration points, so a
 * replayed trace reproduces the same decision sequence bit for bit, for
 * any `ENMC_THREADS`. Functional outputs never depend on the decision:
 * the planner routes *timing* only, so logits stay memcmp-equal to every
 * fixed-backend reference.
 */

#ifndef ENMC_RUNTIME_PLANNER_H
#define ENMC_RUNTIME_PLANNER_H

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/registry.h"
#include "runtime/backend.h"

namespace enmc::runtime {

/** Planner knobs and their `ENMC_PLAN_*` environment overrides. */
struct PlannerConfig
{
    /**
     * Backend registry keys the planner chooses between. Names missing
     * from the registry are skipped (a plugin may be absent from this
     * build); fewer than two usable candidates is a fatal configuration
     * error — a single-candidate planner is a fixed backend in disguise.
     */
    std::vector<std::string> candidates = {
        "cpu",        "enmc",       "enmc-resilient",
        "nda",        "chameleon",  "tensordimm",
        "tensordimm-large"};                      // ENMC_PLAN_BACKENDS

    /** Warm-up probes per (bin, backend) before cost-based routing. */
    uint64_t warmup_rounds = 1;                   // ENMC_PLAN_WARMUP_ROUNDS

    /**
     * Force one exploration probe (a seeded draw over the non-best
     * candidates) every N decisions per bin; 0 disables exploration.
     */
    uint64_t explore_every = 64;                  // ENMC_PLAN_EXPLORE_EVERY

    /** EWMA history weight in [0, 1): est = decay*est + (1-decay)*obs. */
    double decay = 0.3;                           // ENMC_PLAN_DECAY

    /** Seed of the exploration draw stream. */
    uint64_t seed = 42;                           // ENMC_PLAN_SEED

    /**
     * Scripted mid-run degradation (deterministic fault burst): after
     * `kill_after` planned batches, `kill_backend` is marked unavailable;
     * `revive_after` more batches later it returns (0 = never revives).
     * Empty `kill_backend` disables the script.
     */
    std::string kill_backend;                     // ENMC_PLAN_KILL_BACKEND
    uint64_t kill_after = 0;                      // ENMC_PLAN_KILL_AFTER
    uint64_t revive_after = 0;                    // ENMC_PLAN_REVIVE_AFTER
};

/** `base` with every `ENMC_PLAN_*` override applied; fatal on bad values. */
PlannerConfig plannerConfigFromEnv(PlannerConfig base = PlannerConfig{});

/** Fatal unless the configuration is self-consistent. */
void validate(const PlannerConfig &cfg);

/**
 * One traffic bin: jobs that share a batch-size bucket, a candidate-count
 * bucket and a workload shape plan together. Buckets are power-of-two so
 * nearby shapes pool their observations.
 */
struct PlanBin
{
    uint32_t batch_bucket = 0;  //!< ceil(log2(batch))
    uint32_t cand_bucket = 0;   //!< ceil(log2(candidates))
    uint64_t categories = 0;    //!< workload identity: label-space size
    uint64_t hidden = 0;        //!< workload identity: hidden width

    bool operator<(const PlanBin &o) const
    {
        return std::tie(batch_bucket, cand_bucket, categories, hidden) <
               std::tie(o.batch_bucket, o.cand_bucket, o.categories,
                        o.hidden);
    }
    bool operator==(const PlanBin &o) const
    {
        return batch_bucket == o.batch_bucket &&
               cand_bucket == o.cand_bucket &&
               categories == o.categories && hidden == o.hidden;
    }

    /** "b3.c9.l670208.d512" — for logs and debugging. */
    std::string label() const;
};

/**
 * The adaptive offload planner: per-bin EWMA latency estimators over a
 * fixed candidate list, warm-up round-robin seeding, argmin routing,
 * seeded periodic exploration, and availability masking.
 *
 * Thread safety: plan/observe/setAvailable lock internally (the live
 * serve executor and the main thread may interleave); the decision
 * sequence is still deterministic because callers serialize dispatches.
 */
class OffloadPlanner
{
  public:
    enum class Kind : uint8_t {
        Warmup,   //!< round-robin profiling probe (estimator seeding)
        Explore,  //!< forced re-probe of a non-best candidate
        Steady,   //!< argmin-cost routing
    };

    struct Decision
    {
        size_t backend = 0; //!< index into names()
        Kind kind = Kind::Steady;
    };

    /** @param names Resolved candidate names (>= 2, registry-validated). */
    OffloadPlanner(const PlannerConfig &cfg,
                   std::vector<std::string> names);

    /** The bin a job plans in. */
    static PlanBin binFor(const JobSpec &spec);

    /** Decide where the next job in `bin` runs. Call exactly once per
     *  dispatched batch, before `observe`. */
    Decision plan(const PlanBin &bin);

    /** Feed the observed latency of a planned dispatch back. */
    void observe(const PlanBin &bin, size_t backend, double latency_us);

    /** Mark a candidate (un)available; unavailable backends are never
     *  planned. Panics if nothing would remain available. */
    void setAvailable(const std::string &name, bool available);

    const std::vector<std::string> &names() const { return names_; }
    size_t candidateCount() const { return names_.size(); }

    /** Argmin estimate over available candidates; -1 before any
     *  observation in the bin. */
    int argminEstimate(const PlanBin &bin) const;

    uint64_t planCount() const;

    const PlannerConfig &config() const { return cfg_; }
    StatGroup &stats() { return stats_; }

  private:
    struct BinState
    {
        std::vector<double> estimate_us;   //!< EWMA per candidate
        std::vector<uint64_t> observations;
        uint64_t plans = 0;
        uint64_t since_explore = 0;
    };

    BinState &binState(const PlanBin &bin);
    size_t indexOf(const std::string &name) const;
    int argminLocked(const BinState &b) const;
    size_t availableCount() const;
    void setAvailableLocked(size_t backend, bool available);
    void applyScriptLocked();

    PlannerConfig cfg_;
    std::vector<std::string> names_;
    std::vector<bool> available_;
    std::map<PlanBin, BinState> bins_;
    Rng explore_rng_;
    uint64_t plans_ = 0;
    int last_steady_ = -1;  //!< previous steady choice (switch detection)
    bool script_killed_ = false;
    bool script_revived_ = false;

    mutable std::mutex mutex_;

    // Planner stats ("plan.*"): per-backend win counts, switch events,
    // estimator snapshots. Per-backend stats are keyed "dispatch.<name>"
    // / "estimateUs.<name>" so the metrics validator can cross-check
    // Σ dispatches against the serve batcher.
    StatGroup stats_;
    Counter &stat_plans_;
    Counter &stat_warmup_;
    Counter &stat_explore_;
    Counter &stat_steady_;
    Counter &stat_switches_;
    Counter &stat_dead_;
    Counter &stat_bins_;
    Counter &stat_kills_;
    Counter &stat_revivals_;
    std::vector<Counter *> stat_dispatch_;
    std::vector<ScalarStat *> stat_estimate_;
    obs::StatRegistration stats_registration_;
};

/**
 * The `"auto"` registry backend: a planner in front of real candidate
 * backends. `runJob` plans per call, routes to the chosen backend
 * (through that candidate's `JobMemo`) and feeds the observed latency
 * back. Construction fails loudly — listing the candidate set — when
 * fewer than two candidates resolve against the registry; a silent
 * single-backend planner would defeat the point.
 */
class AutoBackend : public Backend
{
  public:
    explicit AutoBackend(const SystemConfig &cfg,
                         PlannerConfig plan = plannerConfigFromEnv());

    std::string name() const override { return "auto"; }
    /** Panics: the planner bins whole jobs, so it is reached through
     *  runJob only. */
    arch::RankResult runSlice(const arch::RankTask &task) const override;
    TimingResult runJob(const JobSpec &spec) const override;

    /** One planned dispatch with full provenance (the serve loop records
     *  `backend` on every response of the batch). */
    struct PlannedRun
    {
        TimingResult timing;
        std::string backend;
        OffloadPlanner::Kind kind = OffloadPlanner::Kind::Steady;
    };
    PlannedRun runPlanned(const JobSpec &spec) const;

    OffloadPlanner &planner() const { return *planner_; }

  private:
    std::vector<std::unique_ptr<Backend>> backends_;
    /** One per candidate, in `backends_` order: each probe is simulated
     *  once per job spec. */
    std::deque<JobMemo> jobs_;
    // The planner adapts across const runJob calls (logically the
    // backend's routing state, not its configuration).
    std::unique_ptr<OffloadPlanner> planner_;
};

} // namespace enmc::runtime

#endif // ENMC_RUNTIME_PLANNER_H
