/**
 * @file
 * Generic rank-level NMP engine used to model the three baselines of
 * paper Table 4 (NDA, Chameleon, TensorDIMM) running the approximate
 * screening algorithm.
 *
 * The baselines share the non-intrusive rank-level placement of ENMC but
 * differ from it in exactly the ways Section 7.2 calls out:
 *  - homogeneous FP32 compute units (no INT4 path): screening streams
 *    FP32 screener weights and runs on the FP32 array;
 *  - no on-the-fly threshold filter: per-tile partial sums spill to DRAM
 *    and are read back for candidate selection ("the buffer overflow
 *    results in frequent DRAM memory accesses");
 *  - a single compute unit: the screening and candidate phases serialize
 *    instead of running on parallel Screener/Executor modules.
 *
 * Unit-specific GEMV efficiency distinguishes the three:
 *  - NDA's CGRA issues MACs through general FUs at ~50% utilization;
 *  - Chameleon's 4x4 systolic array needs 4 concurrent vectors to fill
 *    its columns, so GEMV utilization is min(batch,4)/4;
 *  - TensorDIMM's 16-lane VPU vectorizes along d at full utilization.
 */

#ifndef ENMC_NMP_ENGINE_H
#define ENMC_NMP_ENGINE_H

#include <memory>
#include <string>

#include "common/stats.h"
#include "common/units.h"
#include "dram/controller.h"
#include "dram/stream.h"
#include "enmc/task.h"
#include "obs/registry.h"

namespace enmc::nmp {

/** Which baseline architecture an engine instance models. */
enum class EngineKind { Nda, Chameleon, TensorDimm, TensorDimmLarge };

const char *engineKindName(EngineKind kind);

/** Table 4 configuration of one rank-level NMP core. */
struct EngineConfig
{
    EngineKind kind = EngineKind::TensorDimm;
    double freq_hz = 400e6;
    size_t fp32_macs = 16;        //!< peak MACs/cycle
    size_t buffer_bytes = 512;    //!< on-core working buffer (per queue)
    size_t queues = 3;            //!< TensorDIMM: 512B queue x 3
    /** Fraction of peak MACs achieved on GEMV at a given batch. */
    double gemvEfficiency(uint64_t batch) const;

    static EngineConfig nda();
    static EngineConfig chameleon();
    static EngineConfig tensorDimm();
    /** TensorDIMM-Large: 4x the compute and buffering (Fig. 14/15). */
    static EngineConfig tensorDimmLarge();
};

/** Cycle-level execution of one rank's slice on a baseline NMP core. */
class NmpEngine
{
  public:
    NmpEngine(const EngineConfig &cfg, const dram::Organization &org,
              const dram::Timing &timing);

    /**
     * Run the approximate-screening classification for one rank slice.
     * Timing-only (the baselines are never the numeric reference).
     */
    arch::RankResult run(const arch::RankTask &task,
                         Cycles max_cycles = 20'000'000'000ull);

  private:
    /** Stream `bytes` while the MAC array needs `macs` operations. */
    void streamPhase(uint64_t bytes, uint64_t mac_cycles, Addr base,
                     dram::ReqType type, arch::RankResult &res,
                     Cycles max_cycles);

    Cycles macCycles(uint64_t macs, double efficiency) const;

    /** Cycles before the DRAM controller's next event (all of them quiet). */
    Cycles quietCycles() const;
    /** Jump `n` quiet cycles ahead (n <= quietCycles()). */
    void skip(Cycles n);

    /** Tally a finished run into the engine's stat group. */
    void recordRun(const arch::RankResult &res);

    EngineConfig cfg_;
    dram::Organization org_;
    dram::Timing timing_;
    std::unique_ptr<dram::Controller> dram_;
    Cycles now_ = 0;

    StatGroup stats_;
    Counter &stat_runs_;
    Counter &stat_candidates_;
    Counter &stat_screen_bytes_;
    Counter &stat_exec_bytes_;
    Counter &stat_output_bytes_;
    ScalarStat &stat_cycles_;
    // Declared last so the group unregisters before any stat dies.
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::nmp

#endif // ENMC_NMP_ENGINE_H
