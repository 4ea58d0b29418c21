/**
 * @file
 * The execution-backend abstraction: one interface in front of the three
 * execution stacks the repo grew — the cycle-level ENMC rank model
 * (`arch::EnmcRank`), the rank-level NMP baselines (`nmp::NmpEngine`:
 * NDA / Chameleon / TensorDIMM / TensorDIMM-Large) and the CPU roofline
 * (`nmp::cpu*Time`).
 *
 * Benches, examples and future serving layers select a backend by name
 * from the string-keyed registry instead of `#include`-level dispatch:
 *
 *   auto backend = runtime::createBackend("tensordimm");
 *   runtime::TimingResult r = backend->runJob(spec);
 *
 * All backends express results in the DDR command-clock domain of the
 * system configuration they were created with, so timings compare
 * directly (the NMPO-style uniform device abstraction the profiling
 * layer needs).
 */

#ifndef ENMC_RUNTIME_BACKEND_H
#define ENMC_RUNTIME_BACKEND_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "enmc/task.h"
#include "nmp/cpu.h"
#include "nmp/engine.h"
#include "runtime/system.h"

namespace enmc::runtime {

/** One execution target behind the uniform device interface. */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Registry key ("enmc", "tensordimm", "cpu", ...). */
    virtual std::string name() const = 0;

    /**
     * Execute one rank slice. The slice is functional exactly when
     * `task.functional()` (it carries tensor payloads); only the ENMC
     * family executes those, every other backend panics on them.
     */
    virtual arch::RankResult runSlice(const arch::RankTask &task) const = 0;

    /**
     * Full-job timing: partition the job across the system's ranks and
     * run the representative slice. The default truncates very large
     * slices and scales linearly (screening is tile-homogeneous);
     * backends with their own extrapolation override this.
     */
    virtual TimingResult runJob(const JobSpec &spec) const;

    const SystemConfig &config() const { return cfg_; }

  protected:
    explicit Backend(const SystemConfig &cfg) : cfg_(cfg) {}

    SystemConfig cfg_;
};

/** The ENMC rank model (Screener + Executor + FILTER, Fig. 7). */
class EnmcBackend : public Backend
{
  public:
    explicit EnmcBackend(const SystemConfig &cfg);

    std::string name() const override { return "enmc"; }
    arch::RankResult runSlice(const arch::RankTask &task) const override;
    TimingResult runJob(const JobSpec &spec) const override;
};

/** A Table 4 NMP baseline (NDA / Chameleon / TensorDIMM / -Large). */
class NmpBackend : public Backend
{
  public:
    NmpBackend(std::string name, const nmp::EngineConfig &engine,
               const SystemConfig &cfg);

    std::string name() const override { return name_; }
    arch::RankResult runSlice(const arch::RankTask &task) const override;

    const nmp::EngineConfig &engineConfig() const { return engine_; }

  private:
    std::string name_;
    nmp::EngineConfig engine_;
};

/** The host CPU roofline (Section 6.2's Xeon 8280). */
class CpuBackend : public Backend
{
  public:
    /**
     * @param screening true = CPU + approximate screening; false = the
     *        full-classification baseline everything normalizes to.
     */
    CpuBackend(const SystemConfig &cfg, bool screening = true,
               const nmp::CpuConfig &cpu = nmp::CpuConfig{});

    std::string name() const override
    {
        return screening_ ? "cpu" : "cpu-full";
    }
    arch::RankResult runSlice(const arch::RankTask &task) const override;
    TimingResult runJob(const JobSpec &spec) const override;

  private:
    double sliceSeconds(const arch::RankTask &task) const;

    bool screening_;
    nmp::CpuConfig cpu_;
};

/**
 * `runJob` of one backend instance, memoised on the whole `JobSpec`.
 * Every timing model is deterministic in the spec, so each distinct
 * spec is simulated once; the lock is held while a miss runs, so
 * concurrent callers never simulate the same spec twice. The memo sits
 * beside the backend rather than inside `Backend::runJob`, whose callers
 * may repeat it on purpose (to time the simulator, or to check it).
 */
class JobMemo
{
  public:
    /** `backend` must outlive the memo. */
    explicit JobMemo(const Backend &backend) : backend_(backend) {}

    /** The backend's `runJob(spec)`, simulated on the first call only. */
    const TimingResult &runJob(const JobSpec &spec) const;

  private:
    const Backend &backend_;
    mutable std::mutex mutex_;
    mutable std::map<JobSpec, TimingResult> results_;
};

/** Builds a backend against a system configuration. */
using BackendFactory =
    std::function<std::unique_ptr<Backend>(const SystemConfig &)>;

/**
 * String-keyed backend registry. The built-in backends ("enmc", "nda",
 * "chameleon", "tensordimm", "tensordimm-large", "cpu", "cpu-full") are
 * registered on first use; plugins may add more.
 */
class BackendRegistry
{
  public:
    static BackendRegistry &instance();

    /** Register (or replace) a factory under `name`. */
    void add(const std::string &name, BackendFactory factory);

    bool contains(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /** Instantiate `name`; panics listing the registry on a miss. */
    std::unique_ptr<Backend>
    create(const std::string &name,
           const SystemConfig &cfg = SystemConfig{}) const;

  private:
    BackendRegistry();

    std::map<std::string, BackendFactory> factories_;
};

/** Shorthand for BackendRegistry::instance().create(...). */
std::unique_ptr<Backend>
createBackend(const std::string &name,
              const SystemConfig &cfg = SystemConfig{});

/** Shorthand for BackendRegistry::instance().names(). */
std::vector<std::string> backendNames();

} // namespace enmc::runtime

#endif // ENMC_RUNTIME_BACKEND_H
