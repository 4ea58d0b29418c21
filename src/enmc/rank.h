/**
 * @file
 * Cycle-level model of one ENMC rank (paper Fig. 7).
 *
 * The rank couples an ENMC controller (status registers, instruction FIFO,
 * decoder, instruction generator), a simplified per-rank DRAM controller
 * (the cycle-accurate dram::Controller over a single-rank organization),
 * a Screener unit (INT4 MAC array + threshold filter) and an Executor
 * unit (FP32 MAC array + special-function unit). The Screener and the
 * Executor run in parallel and contend for the rank's DRAM bandwidth
 * through the shared controller — the dual-module feature the paper's
 * speedups come from.
 *
 * The same instruction stream drives both timing and functional
 * execution; with tensor payloads attached to the task, the rank's
 * numeric output bit-matches the reference screening pipeline.
 */

#ifndef ENMC_ENMC_RANK_H
#define ENMC_ENMC_RANK_H

#include <deque>
#include <memory>
#include <optional>

#include "common/stats.h"
#include "dram/controller.h"
#include "dram/stream.h"
#include "enmc/buffers.h"
#include "enmc/config.h"
#include "enmc/isa.h"
#include "enmc/task.h"
#include "obs/registry.h"

namespace enmc::arch {

/** One ENMC rank: controller + DRAM controller + Screener + Executor. */
class EnmcRank
{
  public:
    /**
     * @param cfg ENMC logic configuration (Table 3).
     * @param org Single-rank DRAM organization (ranks must be 1).
     * @param timing DDR timing (Table 3).
     */
    EnmcRank(const EnmcConfig &cfg, const dram::Organization &org,
             const dram::Timing &timing);

    /**
     * Execute a host program against a task. Runs to completion and
     * returns results + statistics.
     *
     * Equivalent to start() then step() until done(), but a step() that
     * acts on nothing is followed by a jump over every cycle before the
     * earliest countdown expiry or DRAM event (see step()), so the
     * result, every stat and every fault stream index are those of the
     * per-cycle loop.
     *
     * @param prog Instruction stream as issued by the host compiler.
     * @param task Work descriptor (see RankTask).
     * @param max_cycles Watchdog bound: panics once cycle max_cycles + 1
     *        has run without the program finishing.
     */
    RankResult run(const Program &prog, const RankTask &task,
                   Cycles max_cycles = 2'000'000'000ull);

    /**
     * One cycle of run() after start(): deliver at most one host
     * instruction (the rank owns the whole C/A bus), then tick().
     *
     * @return true if the cycle changed state beyond the countdown
     *         timers (an instruction delivered or attempted, dispatched
     *         or generated; a request enqueued; a tile or candidate op
     *         started or finished; a filter run; RETURN done; a
     *         countdown started or expired). False
     *         means every unit found nothing to do, and each later cycle
     *         will too until a countdown (MAC array, SFU, RETURN drain,
     *         host DQ stall) expires or the DRAM controller reaches its
     *         nextEventCycle().
     */
    bool step();

    // ---- tick-level interface (multi-rank channel simulation) ----

    /**
     * Arm the rank with a program + task without running it. Afterwards
     * call tick() once per DDR command cycle until done(); instruction
     * delivery is the caller's job via tryDeliverInstruction() (the
     * shared channel C/A bus arbitrates between ranks).
     */
    void start(const Program &prog, const RankTask &task);

    /** Advance one DDR command-clock cycle (dram + all units). */
    void tick();

    /** Next host instruction to deliver, or null when all delivered. */
    const Instruction *pendingInstruction() const;

    /**
     * Deliver the pending instruction into the controller FIFO.
     * @return false if the FIFO is full (retry later).
     */
    bool tryDeliverInstruction();

    /**
     * Inject an out-of-band instruction (e.g. a host QUERY poll, Fig. 10)
     * ahead of program delivery. @return false if the FIFO is full.
     */
    bool injectInstruction(const Instruction &inst);

    /** Program fully executed and every unit drained? */
    bool done() const;

    /** Results of a finished tick-level run (valid once done()). */
    RankResult takeResult();

    /**
     * Inject a regular host memory request into this rank ("our ENMC
     * DIMM can also support regular memory requests"): it contends with
     * the Screener/Executor traffic in the rank's DRAM controller.
     * @return false if the request queue is full.
     */
    bool injectHostRequest(dram::Request req);

    /** Read a status register (QUERY path, also used by tests). */
    uint64_t statusReg(StatusReg reg) const;

    /** The current run's DRAM controller (built by start()). */
    const dram::Controller &dramController() const { return *dram_; }

    /** This rank's "enmc.rank" stats (folded in by takeResult()). */
    const StatGroup &stats() const { return stats_; }

  private:
    // ---- screener pipeline ----
    struct TileOp
    {
        uint64_t tile = 0;           //!< tile index
        uint64_t rows = 0;           //!< rows in this tile
        dram::StreamTransfer load;
        bool load_started = false;
        bool compute_requested = false;
        bool compute_started = false;
        bool compute_done = false;
        bool filter_requested = false;
        uint64_t weight_reserved = 0; //!< SRAM bytes held while computing
        uint64_t psum_reserved = 0;
    };

    // ---- executor pipeline ----
    struct CandOp
    {
        uint64_t item = 0;           //!< batch item
        uint64_t row = 0;            //!< slice-local category row
        dram::StreamTransfer load;
        bool load_started = false;
        bool compute_started = false;
        uint64_t stage_reserved = 0; //!< SRAM bytes held while staged
    };

    /** Output buffer bytes the asynchronous drain ships per cycle. */
    static constexpr uint64_t kOutputDrainBytes = 16;

    void reset(const RankTask &task);
    void hostIssue();
    /**
     * After a step() that acted on nothing: advance every clock, countdown
     * and busy counter over the quiet cycles that follow, stopping before
     * the first cycle that may act and at cycle `limit` at the latest.
     */
    void skipQuietCycles(Cycles limit);
    void dispatch();
    bool dispatchOne(const Instruction &inst);
    void screenerTick();
    void executorTick();
    void generatorTick();
    void sfuAndReturnTick();
    bool allUnitsIdle() const;

    /** Functional: screen one tile, returning per-item candidates. */
    void filterTileFunctional(const TileOp &op);
    /** Timing-only: synthesize the tile's candidate count. */
    void filterTileSynthetic(const TileOp &op);
    void emitCandidate(uint64_t item, uint64_t row);

    /**
     * Pass a functional read buffer through the task's fault + ECC model
     * (erasing detected-uncorrectable words) under the ECC scheme of
     * protection class `cls`. Requires task_->injector.
     * @return number of detected-uncorrectable words.
     */
    uint64_t faultReadBuffer(std::span<uint8_t> bytes,
                             fault::Protection cls);
    /** True when this task reads through an active fault injector. */
    bool faulty() const;
    /** One instruction-delivery attempt through the C/A fault model. */
    bool instructionDelivered();

    Cycles computeCycles(uint64_t macs_needed, uint64_t array_width) const;

    EnmcConfig cfg_;
    dram::Organization org_;
    dram::Timing timing_;
    std::unique_ptr<dram::Controller> dram_;

    /** Hardware tile sequencer: emit the next tile's ops internally. */
    void sequencerTick();

    /** Tiles in the screener pipeline that are not fully computed. */
    uint64_t activeTiles() const;

    /**
     * Begin fetching screening tile `tile`; optionally pre-arm its
     * compute/filter steps (the sequencer path arms both).
     * @return false when the prefetch window is full.
     */
    bool startTileOp(uint64_t tile, bool compute, bool filter);

    // controller state
    uint64_t regs_[static_cast<size_t>(StatusReg::NumRegs)] = {};
    std::deque<Instruction> fifo_;
    const Program *prog_ = nullptr;
    size_t host_pc_ = 0;
    Cycles host_stall_ = 0;          //!< DQ-payload issue cycles
    std::deque<std::pair<uint64_t, uint64_t>> cand_queue_; //!< (item,row)
    // hardware tile sequencer state (Mode register bit 0)
    bool sequencer_active_ = false;
    uint64_t seq_next_tile_ = 0;
    uint64_t seq_tiles_ = 0;

    // screener state
    std::deque<TileOp> screen_ops_;
    Cycles screen_busy_ = 0;
    dram::StreamTransfer feature_load_;
    bool feature_loaded_ = true;
    double synth_cand_accum_ = 0.0;

    // executor state
    std::deque<CandOp> exec_ops_;
    Cycles exec_busy_ = 0;
    tensor::Vector exec_row_scratch_;   //!< faulty-read staging row

    // fault-injection state
    uint64_t fault_word_seq_ = 0;       //!< unique index per data word read
    uint64_t inst_attempts_ = 0;        //!< instruction delivery attempts
    fault::FaultCounters fault_base_;   //!< injector snapshot at reset()

    // SFU / output state
    Cycles sfu_busy_ = 0;
    Cycles return_busy_ = 0;
    bool softmax_requested_ = false;
    bool return_requested_ = false;
    bool return_done_ = false;

    // On-DIMM SRAM buffers (Table 3 sizes); stages reserve/release as
    // data flows, proving the tiling fits the hardware.
    SramBuffer screen_weight_sram_;
    SramBuffer screen_psum_sram_;
    SramBuffer exec_stage_sram_;
    SramBuffer output_sram_;

    const RankTask *task_ = nullptr;
    RankResult result_;
    Cycles now_ = 0;
    bool acted_ = false;   //!< this step() changed more than a countdown

    // Observability: per-rank stats, folded into the process-wide
    // "enmc.rank" aggregate when this (usually slice-lived) rank retires.
    StatGroup stats_;
    Counter &stat_instructions_;
    Counter &stat_generated_;
    Counter &stat_candidates_;
    Counter &stat_screen_bytes_;
    Counter &stat_exec_bytes_;
    Counter &stat_output_bytes_;
    Counter &stat_uncorrectable_;
    Counter &stat_fault_retries_;
    ScalarStat &stat_cycles_;
    ScalarStat &stat_screener_util_;
    ScalarStat &stat_executor_util_;
    // Declared last so the group unregisters before any stat dies.
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::arch

#endif // ENMC_ENMC_RANK_H
