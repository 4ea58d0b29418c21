#include "runtime/planner.h"

#include <algorithm>
#include <sstream>

#include "common/env.h"
#include "common/logging.h"

namespace enmc::runtime {

namespace {

uint32_t
ceilLog2(uint64_t v)
{
    uint32_t bucket = 0;
    for (uint64_t p = 1; p < v; p <<= 1)
        ++bucket;
    return bucket;
}

std::string
join(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names)
        out += (out.empty() ? "" : ", ") + n;
    return out;
}

} // namespace

// ---------------------------------------------------------------- config

PlannerConfig
plannerConfigFromEnv(PlannerConfig base)
{
    if (const char *raw = envString("ENMC_PLAN_BACKENDS")) {
        std::vector<std::string> names;
        std::string token;
        std::istringstream ss{std::string(raw)};
        while (std::getline(ss, token, ','))
            names.push_back(token);
        base.candidates = std::move(names);
    }
    base.warmup_rounds =
        envU64("ENMC_PLAN_WARMUP_ROUNDS", base.warmup_rounds);
    base.explore_every =
        envU64("ENMC_PLAN_EXPLORE_EVERY", base.explore_every);
    base.decay = envF64("ENMC_PLAN_DECAY", base.decay);
    base.seed = envU64("ENMC_PLAN_SEED", base.seed);
    if (const char *kill = envString("ENMC_PLAN_KILL_BACKEND"))
        base.kill_backend = kill;
    base.kill_after = envU64("ENMC_PLAN_KILL_AFTER", base.kill_after);
    base.revive_after = envU64("ENMC_PLAN_REVIVE_AFTER", base.revive_after);
    validate(base);
    return base;
}

void
validate(const PlannerConfig &cfg)
{
    if (cfg.candidates.size() < 2)
        ENMC_FATAL("planner needs at least two candidate backends, got ",
                   cfg.candidates.size(), " [", join(cfg.candidates),
                   "] — a single-candidate planner is a fixed backend in "
                   "disguise; select that backend directly instead");
    for (size_t i = 0; i < cfg.candidates.size(); ++i) {
        const std::string &name = cfg.candidates[i];
        if (name.empty())
            ENMC_FATAL("planner candidate ", i, " is an empty name "
                       "(check ENMC_PLAN_BACKENDS for stray commas)");
        if (name == "auto" || name == "cluster")
            ENMC_FATAL("planner candidate '", name, "' would nest a "
                       "meta-backend inside the planner");
        for (size_t j = i + 1; j < cfg.candidates.size(); ++j)
            if (cfg.candidates[j] == name)
                ENMC_FATAL("planner candidate '", name, "' listed twice "
                           "in [", join(cfg.candidates), "]");
    }
    if (cfg.warmup_rounds == 0)
        ENMC_FATAL("ENMC_PLAN_WARMUP_ROUNDS must be >= 1: the estimator "
                   "needs at least one profiling probe per backend");
    if (!(cfg.decay >= 0.0 && cfg.decay < 1.0))
        ENMC_FATAL("ENMC_PLAN_DECAY must lie in [0, 1), got ", cfg.decay);
    if (!cfg.kill_backend.empty()) {
        const auto &c = cfg.candidates;
        if (std::find(c.begin(), c.end(), cfg.kill_backend) == c.end())
            ENMC_FATAL("ENMC_PLAN_KILL_BACKEND '", cfg.kill_backend,
                       "' is not a planner candidate [", join(c), "]");
    }
}

// ------------------------------------------------------------------- bin

std::string
PlanBin::label() const
{
    return "b" + std::to_string(batch_bucket) + ".c" +
           std::to_string(cand_bucket) + ".l" + std::to_string(categories) +
           ".d" + std::to_string(hidden);
}

PlanBin
OffloadPlanner::binFor(const JobSpec &spec)
{
    PlanBin bin;
    bin.batch_bucket = ceilLog2(std::max<uint64_t>(1, spec.batch));
    bin.cand_bucket = ceilLog2(std::max<uint64_t>(1, spec.candidates));
    bin.categories = spec.categories;
    bin.hidden = spec.hidden;
    return bin;
}

// --------------------------------------------------------------- planner

OffloadPlanner::OffloadPlanner(const PlannerConfig &cfg,
                               std::vector<std::string> names)
    : cfg_(cfg),
      names_(std::move(names)),
      available_(names_.size(), true),
      explore_rng_(cfg.seed),
      stats_("plan"),
      stat_plans_(stats_.addCounter("plans", "planner decisions made")),
      stat_warmup_(stats_.addCounter("warmupPlans",
                                     "round-robin profiling probes")),
      stat_explore_(stats_.addCounter("explorePlans",
                                      "forced exploration probes")),
      stat_steady_(stats_.addCounter("steadyPlans",
                                     "argmin-cost routing decisions")),
      stat_switches_(stats_.addCounter(
          "switchEvents", "steady-state backend changed vs previous")),
      stat_dead_(stats_.addCounter(
          "deadDispatches", "plans routed to an unavailable backend "
                            "(must stay zero)")),
      stat_bins_(stats_.addCounter("bins", "distinct traffic bins seen")),
      stat_kills_(stats_.addCounter("killEvents",
                                    "scripted backend kills applied")),
      stat_revivals_(stats_.addCounter("reviveEvents",
                                       "scripted backend revivals applied")),
      stats_registration_(stats_)
{
    ENMC_ASSERT(names_.size() >= 2,
                "planner constructed with ", names_.size(), " candidates");
    for (const auto &name : names_) {
        stat_dispatch_.push_back(&stats_.addCounter(
            "dispatch." + name, "jobs the planner routed to " + name));
        stat_estimate_.push_back(&stats_.addScalar(
            "estimateUs." + name,
            "EWMA latency-estimate trajectory (us) for " + name));
    }
}

size_t
OffloadPlanner::indexOf(const std::string &name) const
{
    for (size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return i;
    ENMC_PANIC("planner has no candidate '", name, "' (candidates: ",
               join(names_), ")");
}

OffloadPlanner::BinState &
OffloadPlanner::binState(const PlanBin &bin)
{
    auto it = bins_.find(bin);
    if (it == bins_.end()) {
        BinState fresh;
        fresh.estimate_us.assign(names_.size(), -1.0);
        fresh.observations.assign(names_.size(), 0);
        it = bins_.emplace(bin, std::move(fresh)).first;
        ++stat_bins_;
    }
    return it->second;
}

int
OffloadPlanner::argminLocked(const BinState &b) const
{
    int best = -1;
    for (size_t i = 0; i < names_.size(); ++i) {
        if (!available_[i] || b.observations[i] == 0)
            continue;
        if (best < 0 || b.estimate_us[i] < b.estimate_us[best])
            best = static_cast<int>(i);
    }
    return best;
}

size_t
OffloadPlanner::availableCount() const
{
    size_t n = 0;
    for (bool a : available_)
        n += a;
    return n;
}

void
OffloadPlanner::setAvailableLocked(size_t backend, bool available)
{
    ENMC_ASSERT(backend < names_.size(), "backend index out of range");
    if (available_[backend] == available)
        return;
    if (!available && availableCount() == 1)
        ENMC_PANIC("planner cannot mark '", names_[backend],
                   "' unavailable: no candidate would remain");
    available_[backend] = available;
}

void
OffloadPlanner::applyScriptLocked()
{
    if (cfg_.kill_backend.empty())
        return;
    const size_t victim = indexOf(cfg_.kill_backend);
    if (!script_killed_ && plans_ >= cfg_.kill_after) {
        setAvailableLocked(victim, false);
        script_killed_ = true;
        ++stat_kills_;
        inform("planner fault script: killed '", cfg_.kill_backend,
               "' after ", plans_, " plans");
    }
    if (script_killed_ && !script_revived_ && cfg_.revive_after > 0 &&
        plans_ >= cfg_.kill_after + cfg_.revive_after) {
        setAvailableLocked(victim, true);
        script_revived_ = true;
        ++stat_revivals_;
        inform("planner fault script: revived '", cfg_.kill_backend,
               "' after ", plans_, " plans");
    }
}

OffloadPlanner::Decision
OffloadPlanner::plan(const PlanBin &bin)
{
    std::lock_guard<std::mutex> lock(mutex_);
    applyScriptLocked();
    BinState &b = binState(bin);
    ++plans_;
    ++stat_plans_;
    ++b.plans;

    Decision d;
    // Warm-up: round-robin until every available candidate has seeded its
    // estimator. A revived backend whose warm-up was cut short re-enters
    // here; one that finished warm-up is re-probed by exploration.
    int probe = -1;
    for (size_t i = 0; i < names_.size(); ++i) {
        if (available_[i] && b.observations[i] < cfg_.warmup_rounds) {
            probe = static_cast<int>(i);
            break;
        }
    }
    if (probe >= 0) {
        d.backend = static_cast<size_t>(probe);
        d.kind = Kind::Warmup;
        ++stat_warmup_;
    } else {
        const int best = argminLocked(b);
        ENMC_ASSERT(best >= 0,
                    "no available candidate has an estimate in bin ",
                    bin.label());
        bool explored = false;
        if (cfg_.explore_every > 0 &&
            ++b.since_explore >= cfg_.explore_every) {
            std::vector<size_t> others;
            for (size_t i = 0; i < names_.size(); ++i)
                if (available_[i] && static_cast<int>(i) != best)
                    others.push_back(i);
            if (!others.empty()) {
                b.since_explore = 0;
                const auto pick = explore_rng_.uniformInt(
                    0, static_cast<int64_t>(others.size()) - 1);
                d.backend = others[static_cast<size_t>(pick)];
                d.kind = Kind::Explore;
                ++stat_explore_;
                explored = true;
            }
        }
        if (!explored) {
            d.backend = static_cast<size_t>(best);
            d.kind = Kind::Steady;
            ++stat_steady_;
            if (last_steady_ >= 0 && last_steady_ != best)
                ++stat_switches_;
            last_steady_ = best;
        }
    }

    if (!available_[d.backend]) {
        ++stat_dead_;
        ENMC_PANIC("planner routed to unavailable backend '",
                   names_[d.backend], "' in bin ", bin.label());
    }
    ++(*stat_dispatch_[d.backend]);
    return d;
}

void
OffloadPlanner::observe(const PlanBin &bin, size_t backend,
                        double latency_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ENMC_ASSERT(backend < names_.size(), "backend index out of range");
    BinState &b = binState(bin);
    double &est = b.estimate_us[backend];
    est = b.observations[backend] == 0
              ? latency_us
              : cfg_.decay * est + (1.0 - cfg_.decay) * latency_us;
    ++b.observations[backend];
    stat_estimate_[backend]->sample(est);
}

void
OffloadPlanner::setAvailable(const std::string &name, bool available)
{
    std::lock_guard<std::mutex> lock(mutex_);
    setAvailableLocked(indexOf(name), available);
}

int
OffloadPlanner::argminEstimate(const PlanBin &bin) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = bins_.find(bin);
    return it == bins_.end() ? -1 : argminLocked(it->second);
}

uint64_t
OffloadPlanner::planCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return plans_;
}

// ---------------------------------------------------------- auto backend

AutoBackend::AutoBackend(const SystemConfig &cfg, PlannerConfig plan)
    : Backend(cfg)
{
    validate(plan);
    const auto &registry = BackendRegistry::instance();
    std::vector<std::string> resolved;
    for (const auto &name : plan.candidates) {
        if (!registry.contains(name)) {
            warn("planner: skipping unregistered candidate backend '",
                 name, "'");
            continue;
        }
        resolved.push_back(name);
    }
    if (resolved.size() < 2)
        ENMC_FATAL("backend 'auto' needs at least two registered candidate "
                   "backends but only ", resolved.size(), " of [",
                   join(plan.candidates), "] resolved (registered: ",
                   join(registry.names()), "); a single-candidate planner "
                   "is a fixed backend — select it directly instead");
    if (!plan.kill_backend.empty() &&
        std::find(resolved.begin(), resolved.end(), plan.kill_backend) ==
            resolved.end())
        ENMC_FATAL("ENMC_PLAN_KILL_BACKEND '", plan.kill_backend,
                   "' did not resolve against the registry (resolved "
                   "candidates: ", join(resolved), ")");
    for (const auto &name : resolved) {
        backends_.push_back(registry.create(name, cfg));
        jobs_.emplace_back(*backends_.back());
    }
    plan.candidates = resolved;
    planner_ = std::make_unique<OffloadPlanner>(plan, std::move(resolved));
}

arch::RankResult
AutoBackend::runSlice(const arch::RankTask &) const
{
    ENMC_PANIC("the auto backend plans whole jobs; use runJob, not "
               "runSlice");
}

AutoBackend::PlannedRun
AutoBackend::runPlanned(const JobSpec &spec) const
{
    const PlanBin bin = OffloadPlanner::binFor(spec);
    const OffloadPlanner::Decision d = planner_->plan(bin);

    const TimingResult &timing = jobs_[d.backend].runJob(spec);
    planner_->observe(bin, d.backend, timing.seconds * 1e6);
    return {timing, planner_->names()[d.backend], d.kind};
}

TimingResult
AutoBackend::runJob(const JobSpec &spec) const
{
    return runPlanned(spec).timing;
}

} // namespace enmc::runtime
