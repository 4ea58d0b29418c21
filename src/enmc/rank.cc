#include "enmc/rank.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"

namespace enmc::arch {

namespace {

/** Bits per weight element for a quantization level. */
uint64_t
weightBits(tensor::QuantBits q)
{
    return q == tensor::QuantBits::Fp32
               ? 32
               : static_cast<uint64_t>(tensor::quantBitCount(q));
}

} // namespace

uint64_t
RankTask::screenRowBytes() const
{
    return ceilDiv(reduced * weightBits(quant), 8);
}

EnmcRank::EnmcRank(const EnmcConfig &cfg, const dram::Organization &org,
                   const dram::Timing &timing)
    : cfg_(cfg), org_(org),
      screen_weight_sram_("screener.weight", cfg.screen_weight_buf),
      screen_psum_sram_("screener.psum", cfg.psum_buf),
      exec_stage_sram_("executor.stage",
                       cfg.exec_weight_buf + cfg.exec_feature_buf),
      output_sram_("output", cfg.output_buf),
      stats_("enmc.rank"),
      stat_instructions_(stats_.addCounter("instructions",
                                           "host instructions executed")),
      stat_generated_(stats_.addCounter(
          "generatedInstructions", "sequencer-generated instructions")),
      stat_candidates_(stats_.addCounter("candidates",
                                         "rows passing the screen filter")),
      stat_screen_bytes_(stats_.addCounter("screenBytes",
                                           "bytes streamed by the screener")),
      stat_exec_bytes_(stats_.addCounter("execBytes",
                                         "bytes streamed by the executor")),
      stat_output_bytes_(stats_.addCounter("outputBytes",
                                           "bytes returned to the host")),
      stat_uncorrectable_(stats_.addCounter(
          "uncorrectableWords", "detected-uncorrectable words consumed")),
      stat_fault_retries_(stats_.addCounter("faultRetries",
                                            "instruction delivery retries")),
      stat_cycles_(stats_.addScalar("cycles", "DDR cycles per program run")),
      stat_screener_util_(stats_.addScalar(
          "screenerUtil", "screener MAC-array busy fraction")),
      stat_executor_util_(stats_.addScalar(
          "executorUtil", "executor MAC-array busy fraction")),
      stats_registration_(stats_)
{
    ENMC_ASSERT(org.channels == 1 && org.ranks == 1,
                "EnmcRank owns exactly one rank");
    dram::ControllerConfig dcfg;
    dram_ = std::make_unique<dram::Controller>(org, timing, dcfg,
                                               "enmc.rank.dram");
}

uint64_t
EnmcRank::statusReg(StatusReg reg) const
{
    return regs_[static_cast<size_t>(reg)];
}

Cycles
EnmcRank::computeCycles(uint64_t macs_needed, uint64_t array_width) const
{
    const Cycles logic = ceilDiv(macs_needed, array_width);
    return crossDomain(logic, cfg_.freq_hz, dram_->channel().timing().freq_hz);
}

void
EnmcRank::reset(const RankTask &task)
{
    std::fill(std::begin(regs_), std::end(regs_), 0);
    fifo_.clear();
    prog_ = nullptr;
    host_pc_ = 0;
    host_stall_ = 0;
    sequencer_active_ = false;
    seq_next_tile_ = 0;
    seq_tiles_ = 0;
    cand_queue_.clear();
    screen_ops_.clear();
    screen_busy_ = 0;
    feature_loaded_ = true;
    synth_cand_accum_ = 0.0;
    exec_ops_.clear();
    exec_busy_ = 0;
    sfu_busy_ = 0;
    return_busy_ = 0;
    softmax_requested_ = false;
    return_requested_ = false;
    return_done_ = false;
    now_ = 0;
    task_ = &task;
    result_ = RankResult{};
    exec_row_scratch_.clear();
    fault_word_seq_ = 0;
    inst_attempts_ = 0;
    // Per-rank ECC statistics surface through the rank's DRAM controller
    // stat group; the functional data path below shares the same injector.
    dram_->attachFaultInjector(task.injector);
    fault_base_ = task.injector ? task.injector->counters()
                                : fault::FaultCounters{};
    ecc_redundancy_base_ = dram_->eccRedundancyReads();
    ecc_decode_base_ = dram_->eccDecodeCyclesCharged();
    screen_weight_sram_.clear();
    screen_psum_sram_.clear();
    exec_stage_sram_.clear();
    output_sram_.clear();
    if (task.functional()) {
        result_.logits.assign(task.batch,
                              tensor::Vector(task.categories, 0.0f));
        result_.candidate_ids.assign(task.batch, {});
    }
}

void
EnmcRank::sequencerTick()
{
    if (!sequencer_active_)
        return;
    // One generated tile per cycle, bounded by the prefetch window.
    if (startTileOp(seq_next_tile_, true, true)) {
        acted_ = true;
        result_.generated_instructions += 3; // LDR + MUL_ADD + FILTER
        if (++seq_next_tile_ == seq_tiles_)
            sequencer_active_ = false;
    }
}

bool
EnmcRank::faulty() const
{
    return task_ != nullptr && task_->injector != nullptr &&
           task_->injector->enabled();
}

uint64_t
EnmcRank::faultReadBuffer(std::span<uint8_t> bytes, fault::Protection cls)
{
    const RankTask &task = *task_;
    const uint64_t words = ceilDiv(bytes.size(), 8);
    uint64_t unc = 0;
    if (task.injector->config().rankStuck(task.rank_index)) {
        // A stuck rank returns garbage on every burst; ECC flags the
        // whole buffer and it arrives as an erasure.
        std::fill(bytes.begin(), bytes.end(), uint8_t{0});
        task.injector->counters().stuck_reads += words;
        unc = words;
    } else {
        unc = task.injector->readBuffer(bytes, fault_word_seq_, cls);
    }
    fault_word_seq_ += words;
    result_.uncorrectable_words += unc;
    if (cls == fault::Protection::Weak)
        result_.uncorrectable_weak_words += unc;
    else if (cls == fault::Protection::Strong)
        result_.uncorrectable_strong_words += unc;
    return unc;
}

bool
EnmcRank::instructionDelivered()
{
    // PRE-tunneled instructions carry C/A parity: a dropped or corrupted
    // word both manifest as a failed delivery the host repeats next
    // cycle. Each attempt draws a fresh sample, so retries converge.
    if (!faulty())
        return true;
    return task_->injector->instructionFate(inst_attempts_++) ==
           fault::FaultInjector::InstFate::Deliver;
}

void
EnmcRank::hostIssue()
{
    // The host memory controller issues at most one PRECHARGE-tunneled
    // instruction per command cycle; payload-carrying instructions occupy
    // the DQ bus for a burst (tbl cycles) before the next can issue.
    if (host_stall_ > 0) {
        --host_stall_;
        return;
    }
    if (host_pc_ >= prog_->size() || fifo_.size() >= cfg_.inst_fifo_depth)
        return;
    acted_ = true; // even a failed attempt draws from the C/A fault stream
    if (!instructionDelivered())
        return; // delivery failed; the host re-sends next cycle
    const Instruction &inst = (*prog_)[host_pc_++];
    if (inst.has_payload)
        host_stall_ = dram_->channel().timing().tbl;
    fifo_.push_back(inst);
}

uint64_t
EnmcRank::activeTiles() const
{
    uint64_t active = 0;
    for (const auto &op : screen_ops_)
        if (!op.compute_done)
            ++active;
    return active;
}

bool
EnmcRank::startTileOp(uint64_t tile, bool compute, bool filter)
{
    const RankTask &task = *task_;
    if (activeTiles() >= cfg_.prefetch_tiles)
        return false;
    const uint64_t tile_rows = statusReg(StatusReg::TileRows);
    ENMC_ASSERT(tile_rows > 0, "TileRows register not initialized");
    TileOp op;
    op.tile = tile;
    op.rows = std::min<uint64_t>(tile_rows,
                                 task.categories - tile * tile_rows);
    op.compute_requested = compute;
    op.filter_requested = filter;
    uint64_t bytes = op.rows * task.screenRowBytes();
    // If the batched projected features exceed the feature buffer, they
    // are re-streamed alongside every tile (k-chunked MACs).
    const uint64_t feat_bytes =
        ceilDiv(task.batch * task.reduced * weightBits(task.quant), 8);
    if (feat_bytes > cfg_.screen_feature_buf)
        bytes += feat_bytes;
    // Screener tiles are the weak-or-no-ECC path: an INT4 weight flip
    // only perturbs approximate logits, and surviving candidates are
    // recomputed exactly by the executor.
    op.load.start(task.screen_weight_base +
                      tile * tile_rows * task.screenRowBytes(),
                  bytes, dram::ReqType::Read, 64,
                  fault::Protection::Weak);
    op.load_started = true;
    result_.screen_bytes += bytes;
    screen_ops_.push_back(std::move(op));
    return true;
}

bool
EnmcRank::dispatchOne(const Instruction &inst)
{
    const RankTask &task = *task_;
    switch (inst.op) {
      case Opcode::Reg:
        if (inst.reg_write)
            regs_[static_cast<size_t>(inst.reg)] = inst.payload;
        return true;
      case Opcode::Ldr: {
        if (inst.buf0 == BufferId::ScreenFeature) {
            const uint64_t bytes =
                ceilDiv(task.batch * task.reduced * weightBits(task.quant),
                        8);
            feature_load_.start(inst.payload, bytes, dram::ReqType::Read,
                                64, fault::Protection::Weak);
            feature_loaded_ = false;
            result_.screen_bytes += bytes;
            return true;
        }
        if (inst.buf0 == BufferId::ScreenWeight) {
            const uint64_t tile_rows = statusReg(StatusReg::TileRows);
            ENMC_ASSERT(tile_rows > 0, "TileRows register not initialized");
            const uint64_t tile_bytes = tile_rows * task.screenRowBytes();
            const uint64_t tile =
                (inst.payload - task.screen_weight_base) / tile_bytes;
            return startTileOp(tile, false, false);
        }
        ENMC_PANIC("LDR to unsupported buffer ", bufferName(inst.buf0));
      }
      case Opcode::MulAddInt4: {
        if (regs_[static_cast<size_t>(StatusReg::Mode)] &
            kModeHwTileSequencer) {
            // The instruction generator expands the whole screening loop.
            const uint64_t tile_rows = statusReg(StatusReg::TileRows);
            ENMC_ASSERT(tile_rows > 0, "TileRows register not initialized");
            sequencer_active_ = true;
            seq_next_tile_ = 0;
            seq_tiles_ = ceilDiv(task.categories, tile_rows);
            return true;
        }
        for (auto &op : screen_ops_) {
            if (!op.compute_requested) {
                op.compute_requested = true;
                return true;
            }
        }
        return false; // no tile pending: wait for its LDR
      }
      case Opcode::Filter: {
        for (auto &op : screen_ops_) {
            if (!op.filter_requested) {
                op.filter_requested = true;
                return true;
            }
        }
        return false;
      }
      case Opcode::Barrier:
        return allUnitsIdle();
      case Opcode::Softmax:
      case Opcode::Sigmoid: {
        // Exp-accumulation over streamed approximate logits overlaps
        // screening; the non-overlapped epilogue is exp+div over the
        // candidate set.
        softmax_requested_ = true;
        sfu_busy_ = crossDomain(
            2 * ceilDiv(std::max<uint64_t>(result_.candidates, 1),
                        cfg_.sfu_lanes),
            cfg_.freq_hz, dram_->channel().timing().freq_hz);
        return true;
      }
      case Opcode::Return: {
        return_requested_ = true;
        // Per item: one 8B partial normalizer + (index, value) pairs.
        result_.output_bytes =
            task.batch * 8 + result_.candidates * 8;
        const uint64_t lines =
            ceilDiv(result_.output_bytes, org_.accessBytes());
        return_busy_ = lines * dram_->channel().timing().tbl;
        return true;
      }
      case Opcode::Clr:
        // Buffers/registers cleared; pipeline state must already be idle.
        ENMC_ASSERT(allUnitsIdle(), "CLR with busy units");
        std::fill(std::begin(regs_), std::end(regs_), 0);
        return true;
      case Opcode::Nop:
        return true;
      case Opcode::Move:
      case Opcode::Str:
        // Buffer-to-buffer / buffer-to-DRAM moves take one logic cycle
        // plus the DMA for STR; used by diagnostics, not the main loop.
        if (inst.op == Opcode::Str) {
            const uint64_t bytes = cfg_.psum_buf;
            dram::Request req;
            req.addr = inst.payload;
            req.type = dram::ReqType::Write;
            dram_->enqueue(std::move(req));
            result_.output_bytes += bytes;
        }
        return true;
      case Opcode::AddInt4:
      case Opcode::MulInt4:
        screen_busy_ += computeCycles(cfg_.int4_macs, cfg_.int4_macs);
        return true;
      case Opcode::AddFp32:
      case Opcode::MulFp32:
      case Opcode::MulAddFp32:
        exec_busy_ += computeCycles(cfg_.fp32_macs, cfg_.fp32_macs);
        return true;
    }
    ENMC_PANIC("unhandled opcode in dispatch");
}

void
EnmcRank::dispatch()
{
    if (fifo_.empty())
        return;
    if (dispatchOne(fifo_.front())) {
        acted_ = true;
        ++result_.instructions;
        fifo_.pop_front();
    }
}

void
EnmcRank::filterTileFunctional(const TileOp &op)
{
    const RankTask &task = *task_;
    const uint64_t tile_rows = statusReg(StatusReg::TileRows);
    const uint64_t row0 = op.tile * tile_rows;  // slice-local
    const uint64_t src0 = task.row_offset + row0; // payload row

    // With a fault injector armed, the tile's weights pass through the
    // fault + ECC model once per DRAM fetch (they are read once and reused
    // across the batch). Detected-uncorrectable words arrive as erasures
    // (zeroed), so a detected fault perturbs its rows' approximate logits
    // instead of poisoning them with garbage.
    tensor::QuantizedMatrix scratch;
    const tensor::QuantizedMatrix *weights = task.screen_weights;
    if (faulty()) {
        const size_t cols = task.screen_weights->cols;
        scratch.rows = op.rows;
        scratch.cols = cols;
        scratch.bits = task.screen_weights->bits;
        const auto first = task.screen_weights->values.begin() + src0 * cols;
        scratch.values.assign(first, first + op.rows * cols);
        const auto sfirst = task.screen_weights->scales.begin() + src0;
        scratch.scales.assign(sfirst, sfirst + op.rows);
        scratch.scheme = task.screen_weights->scheme;
        if (scratch.scheme == tensor::QuantScheme::Asymmetric) {
            const auto zfirst =
                task.screen_weights->zero_points.begin() + src0;
            scratch.zero_points.assign(zfirst, zfirst + op.rows);
        }
        faultReadBuffer({reinterpret_cast<uint8_t *>(scratch.values.data()),
                         scratch.values.size()},
                        fault::Protection::Weak);
        // Sub-byte weights are stored packed in DRAM but sign-extended
        // into int8 scratch lanes here, so a raw storage flip must fold
        // back into the narrow two's-complement domain: a real packed
        // nibble can be perturbed by at most its own width (e.g. +-8
        // for INT4), never by a full int8 high bit. Folding is the
        // identity for clean lanes and maps the byte-domain flip rate
        // onto exactly the packed-domain rate (high-lane flips model
        // bits the packed layout does not store).
        const int width = tensor::quantBitCount(scratch.bits);
        if (width > 0 && width < 8) {
            const int mask = (1 << width) - 1;
            if (scratch.scheme == tensor::QuantScheme::Asymmetric) {
                // Asymmetric codes are unsigned levels in [0, 2^w - 1];
                // fold flips back into that domain without sign-extending.
                for (int8_t &v : scratch.values)
                    v = static_cast<int8_t>(v & mask);
            } else {
                const int sign = 1 << (width - 1);
                for (int8_t &v : scratch.values)
                    v = static_cast<int8_t>(((v & mask) ^ sign) - sign);
            }
        }
        weights = &scratch;
    }

    // Bias rows from the tile's first payload row on.
    const std::span<const float> bias(task.screen_bias->data() + src0,
                                      op.rows);
    for (uint64_t item = 0; item < task.batch; ++item) {
        const auto &yq = task.features_q[item];
        auto &logits = result_.logits[item];
        // SIMD integer MAC over the tile's rows [0, op.rows), in place or
        // from the scratch copy; bit-exact vs. the reference int64 loop on
        // every dispatch target.
        tensor::gemvQuantizedRows(
            *weights, yq.values, yq.scale, bias,
            std::span<float>(logits.data() + row0, op.rows), 0, op.rows,
            weights == task.screen_weights ? src0 : 0);
        for (uint64_t r = row0; r < row0 + op.rows; ++r)
            if (logits[r] >= task.threshold)
                emitCandidate(item, r);
    }
}

void
EnmcRank::filterTileSynthetic(const TileOp &op)
{
    const RankTask &task = *task_;
    // Spread the expected candidate count uniformly over tiles; the
    // accumulator keeps the long-run rate exact.
    synth_cand_accum_ +=
        static_cast<double>(task.expected_candidates) * task.batch *
        static_cast<double>(op.rows) / static_cast<double>(task.categories);
    while (synth_cand_accum_ >= 1.0) {
        synth_cand_accum_ -= 1.0;
        const uint64_t item = result_.candidates % task.batch;
        const uint64_t tile_rows = statusReg(StatusReg::TileRows);
        emitCandidate(item, op.tile * tile_rows);
    }
}

void
EnmcRank::emitCandidate(uint64_t item, uint64_t row)
{
    cand_queue_.emplace_back(item, row);
    ++result_.candidates;
    regs_[static_cast<size_t>(StatusReg::CandidateCount)] =
        result_.candidates;
    if (task_->functional())
        result_.candidate_ids[item].push_back(static_cast<uint32_t>(row));
}

void
EnmcRank::screenerTick()
{
    if (!feature_loaded_) {
        acted_ |= feature_load_.pump(*dram_);
        if (feature_load_.done()) {
            feature_loaded_ = true;
            acted_ = true;
        }
    }
    // Pump in-flight tile loads up to the prefetch window.
    uint64_t pumped = 0;
    for (auto &op : screen_ops_) {
        if (op.load_started && !op.load.done()) {
            acted_ |= op.load.pump(*dram_);
            if (++pumped >= cfg_.prefetch_tiles)
                break;
        }
    }
    // MAC array.
    if (screen_busy_ > 0) {
        --screen_busy_;
        ++result_.screener_busy;
        if (screen_busy_ == 0) {
            for (auto &op : screen_ops_) {
                if (op.compute_started && !op.compute_done) {
                    op.compute_done = true;
                    acted_ = true;
                    break;
                }
            }
        }
    }
    if (screen_busy_ == 0 && feature_loaded_) {
        for (auto &op : screen_ops_) {
            if (op.compute_requested && !op.compute_started &&
                op.load.done()) {
                const RankTask &task = *task_;
                // Consume one ping/pong half of the weight buffer and a
                // psum slot per (row, item) until the filter drains it.
                const uint64_t half = cfg_.screen_weight_buf / 2;
                const uint64_t psum = op.rows * task.batch * 4;
                if (!screen_weight_sram_.fits(half) ||
                    !screen_psum_sram_.fits(psum)) {
                    break; // wait for the filter to free space
                }
                screen_weight_sram_.reserve(half);
                screen_psum_sram_.reserve(psum);
                op.weight_reserved = half;
                op.psum_reserved = psum;
                op.compute_started = true;
                acted_ = true;
                const uint64_t macs_per_row =
                    ceilDiv(task.reduced, cfg_.int4_macs);
                screen_busy_ = crossDomain(
                    op.rows * task.batch * macs_per_row, cfg_.freq_hz,
                    dram_->channel().timing().freq_hz);
                screen_busy_ = std::max<Cycles>(screen_busy_, 1);
                break;
            }
            if (!op.compute_done)
                break; // in-order execution
        }
    }
    // Threshold filter: one comparator-array pass per finished tile.
    if (!screen_ops_.empty()) {
        TileOp &front = screen_ops_.front();
        if (front.compute_done && front.filter_requested) {
            if (task_->functional())
                filterTileFunctional(front);
            else
                filterTileSynthetic(front);
            screen_weight_sram_.release(front.weight_reserved);
            screen_psum_sram_.release(front.psum_reserved);
            screen_ops_.pop_front();
            acted_ = true;
        }
    }
}

void
EnmcRank::generatorTick()
{
    // The instruction generator turns one candidate into the Executor's
    // (LDR row; MUL_ADD_FP32) pair per cycle, bounded by a small queue.
    if (cand_queue_.empty() || exec_ops_.size() >= 8)
        return;
    const auto [item, row] = cand_queue_.front();
    cand_queue_.pop_front();
    acted_ = true;
    CandOp op;
    op.item = item;
    op.row = row;
    exec_ops_.push_back(std::move(op));
    result_.generated_instructions += 2;
}

void
EnmcRank::executorTick()
{
    const RankTask &task = *task_;
    // The hidden vector h (d * 4 bytes) never fits the 256B feature
    // buffer, so each candidate streams its weight row *and* the feature
    // in alternating 256B chunks (the feature chunks come from an open
    // DRAM row and interleave with the row fetch). One CandOp's load is
    // therefore 2 * d * 4 bytes.

    // Pump in-flight loads and start new ones (double buffering).
    uint64_t inflight = 0;
    for (auto &op : exec_ops_) {
        if (op.load_started && !op.load.done()) {
            acted_ |= op.load.pump(*dram_);
            ++inflight;
        }
    }
    for (auto &op : exec_ops_) {
        if (inflight >= 2)
            break;
        if (!op.load_started) {
            // Stage into one ping/pong half of the executor buffers.
            const uint64_t half =
                (cfg_.exec_weight_buf + cfg_.exec_feature_buf) / 2;
            if (!exec_stage_sram_.fits(half))
                break;
            exec_stage_sram_.reserve(half);
            op.stage_reserved = half;
            const uint64_t bytes = 2 * task.classRowBytes();
            // FP32 executor rows keep strong protection: a silent flip
            // here corrupts the accurate logit with no recovery path.
            op.load.start(task.class_weight_base +
                              op.row * task.classRowBytes(),
                          bytes, dram::ReqType::Read, 64,
                          fault::Protection::Strong);
            op.load_started = true;
            acted_ = true;
            result_.exec_bytes += bytes;
            ++inflight;
        }
    }

    // FP32 MAC array.
    if (exec_busy_ > 0) {
        --exec_busy_;
        ++result_.executor_busy;
        if (exec_busy_ == 0 && !exec_ops_.empty() &&
            exec_ops_.front().compute_started) {
            const CandOp &op = exec_ops_.front();
            if (task.functional()) {
                const uint64_t src = task.row_offset + op.row;
                const auto row = task.class_weights->row(src);
                if (faulty()) {
                    // The FP32 row streams through the fault + ECC model.
                    // Detected-uncorrectable words come back zeroed —
                    // known-location erasures — so the dot product below
                    // is the erasure-masked accurate logit: only the
                    // erased lanes' contribution is lost. That bound
                    // holds no matter how the weak (screener) path is
                    // protected, unlike falling back to the stored
                    // approximate logit, which may be silent garbage
                    // when the screener runs unprotected. The resilience
                    // layer can still retry the slice for a clean read.
                    exec_row_scratch_.assign(row.begin(), row.end());
                    const uint64_t unc = faultReadBuffer(
                        {reinterpret_cast<uint8_t *>(
                             exec_row_scratch_.data()),
                         exec_row_scratch_.size() * sizeof(float)},
                        fault::Protection::Strong);
                    if (unc > 0)
                        ++result_.degraded_candidates;
                    result_.logits[op.item][op.row] =
                        tensor::dot(exec_row_scratch_,
                                    task.features[op.item]) +
                        (*task.class_bias)[src];
                } else {
                    const float logit =
                        tensor::dot(row, task.features[op.item]) +
                        (*task.class_bias)[src];
                    result_.logits[op.item][op.row] = logit;
                }
            }
            exec_stage_sram_.release(op.stage_reserved);
            // Each accurate candidate parks an (index, value) entry in
            // the output buffer until the asynchronous drain ships it.
            output_sram_.reserve(8);
            exec_ops_.pop_front();
            acted_ = true;
        }
    }
    if (exec_busy_ == 0 && !exec_ops_.empty()) {
        CandOp &front = exec_ops_.front();
        if (!front.compute_started && front.load.done()) {
            front.compute_started = true;
            acted_ = true;
            exec_busy_ = computeCycles(task.hidden, cfg_.fp32_macs);
            exec_busy_ = std::max<Cycles>(exec_busy_, 1);
        }
    }
}

void
EnmcRank::sfuAndReturnTick()
{
    // Asynchronous output drain: the output buffer streams results back
    // to the host as they are produced (16 B per command cycle, half the
    // DQ rate — the other half carries host traffic). Nothing waits on
    // it, so it is a countdown like the busy timers.
    output_sram_.release(
        std::min(output_sram_.occupied(), kOutputDrainBytes));

    if (sfu_busy_ > 0) {
        --sfu_busy_;
        return;
    }
    if (return_requested_ && !return_done_) {
        if (return_busy_ > 0)
            --return_busy_;
        if (return_busy_ == 0) {
            return_done_ = true;
            acted_ = true;
        }
    }
}

bool
EnmcRank::allUnitsIdle() const
{
    return !sequencer_active_ && screen_ops_.empty() && exec_ops_.empty() &&
           cand_queue_.empty() && screen_busy_ == 0 && exec_busy_ == 0 &&
           feature_loaded_;
}

void
EnmcRank::start(const Program &prog, const RankTask &task)
{
    reset(task);
    ENMC_ASSERT(!task.functional() ||
                    (task.features_q.size() == task.batch &&
                     task.features.size() == task.batch),
                "functional task needs per-item features");
    prog_ = &prog;
}

void
EnmcRank::tick()
{
    ++now_;
    dram_->tick();
    dispatch();
    screenerTick();
    executorTick();
    sequencerTick();
    generatorTick();
    sfuAndReturnTick();

    // Status register (read by host QUERY polls, Fig. 10):
    // bit 0 = any unit busy, bit 1 = RETURN still draining.
    uint64_t status = 0;
    if (!allUnitsIdle() || sfu_busy_ > 0)
        status |= 1;
    if (return_requested_ && !return_done_)
        status |= 2;
    regs_[static_cast<size_t>(StatusReg::Status)] = status;
}

bool
EnmcRank::injectHostRequest(dram::Request req)
{
    return dram_->enqueue(std::move(req));
}

const Instruction *
EnmcRank::pendingInstruction() const
{
    ENMC_ASSERT(prog_ != nullptr, "rank not started");
    return host_pc_ < prog_->size() ? &(*prog_)[host_pc_] : nullptr;
}

bool
EnmcRank::tryDeliverInstruction()
{
    ENMC_ASSERT(prog_ != nullptr, "rank not started");
    if (host_pc_ >= prog_->size() || fifo_.size() >= cfg_.inst_fifo_depth)
        return false;
    if (!instructionDelivered())
        return false; // C/A fault: the caller's arbitration loop retries
    fifo_.push_back((*prog_)[host_pc_++]);
    return true;
}

bool
EnmcRank::injectInstruction(const Instruction &inst)
{
    if (fifo_.size() >= cfg_.inst_fifo_depth)
        return false;
    fifo_.push_back(inst);
    return true;
}

bool
EnmcRank::done() const
{
    if (prog_ == nullptr)
        return true;
    const bool host_done = host_pc_ >= prog_->size() && fifo_.empty();
    return host_done && allUnitsIdle() && sfu_busy_ == 0 &&
           (!return_requested_ || return_done_) && dram_->idle();
}

RankResult
EnmcRank::takeResult()
{
    ENMC_ASSERT(done(), "takeResult() before the program finished");
    result_.cycles = now_;
    result_.dram_reads = dram_->channel().commandCount(dram::Cmd::Rd);
    result_.dram_writes = dram_->channel().commandCount(dram::Cmd::Wr);
    result_.dram_acts = dram_->channel().commandCount(dram::Cmd::Act);
    result_.dram_refs = dram_->channel().commandCount(dram::Cmd::Ref);
    result_.peak_weight_buf = screen_weight_sram_.peak();
    result_.peak_psum_buf = screen_psum_sram_.peak();
    result_.peak_exec_buf = exec_stage_sram_.peak();
    result_.peak_output_buf = output_sram_.peak();
    if (task_->injector != nullptr) {
        result_.faults = task_->injector->counters();
        result_.faults -= fault_base_; // delta for shared streams
    }
    result_.ecc_redundancy_reads =
        dram_->eccRedundancyReads() - ecc_redundancy_base_;
    result_.ecc_decode_cycles =
        dram_->eccDecodeCyclesCharged() - ecc_decode_base_;
    regs_[static_cast<size_t>(StatusReg::InstCount)] = result_.instructions;

    stat_instructions_ += result_.instructions;
    stat_generated_ += result_.generated_instructions;
    stat_candidates_ += result_.candidates;
    stat_screen_bytes_ += result_.screen_bytes;
    stat_exec_bytes_ += result_.exec_bytes;
    stat_output_bytes_ += result_.output_bytes;
    stat_uncorrectable_ += result_.uncorrectable_words;
    stat_fault_retries_ += result_.fault_retries;
    stat_cycles_.sample(static_cast<double>(result_.cycles));
    if (result_.cycles > 0) {
        stat_screener_util_.sample(
            static_cast<double>(result_.screener_busy) / result_.cycles);
        stat_executor_util_.sample(
            static_cast<double>(result_.executor_busy) / result_.cycles);
    }
    return std::move(result_);
}

bool
EnmcRank::step()
{
    ENMC_ASSERT(prog_ != nullptr, "rank not started");
    // A countdown that starts or expires acts too: a unit that ran before
    // it in this cycle sees the change only in the next one.
    const auto counting = [this] {
        return std::array{host_stall_ > 0, screen_busy_ > 0,
                          exec_busy_ > 0, sfu_busy_ > 0};
    };
    const auto before = counting();
    acted_ = false;
    hostIssue();
    tick();
    return acted_ || counting() != before;
}

void
EnmcRank::skipQuietCycles(Cycles limit)
{
    if (limit <= now_)
        return;
    // A countdown that expires on the n-th next cycle leaves n - 1 quiet
    // cycles; the n-th runs as a step(). Until then each unit sees the
    // state that just made it do nothing.
    Cycles span = limit - now_;
    const auto expiresIn = [&span](Cycles n) {
        span = std::min(span, n - 1);
    };
    expiresIn(dram_->nextEventCycle() - dram_->now());
    if (host_stall_ > 0)
        expiresIn(host_stall_);
    if (screen_busy_ > 0)
        expiresIn(screen_busy_);
    if (exec_busy_ > 0)
        expiresIn(exec_busy_);
    // RETURN's countdown is frozen while the SFU runs.
    const bool returning =
        sfu_busy_ == 0 && return_requested_ && !return_done_;
    if (sfu_busy_ > 0)
        expiresIn(sfu_busy_);
    else if (returning)
        expiresIn(std::max<Cycles>(return_busy_, 1));
    if (span == 0)
        return;

    now_ += span;
    dram_->skipTo(dram_->now() + span);
    host_stall_ -= std::min(host_stall_, span);
    if (screen_busy_ > 0) {
        screen_busy_ -= span;
        result_.screener_busy += span;
    }
    if (exec_busy_ > 0) {
        exec_busy_ -= span;
        result_.executor_busy += span;
    }
    if (sfu_busy_ > 0)
        sfu_busy_ -= span;
    else if (returning)
        return_busy_ -= span;
    output_sram_.release(
        std::min(output_sram_.occupied(), kOutputDrainBytes * span));
}

RankResult
EnmcRank::run(const Program &prog, const RankTask &task, Cycles max_cycles)
{
    start(prog, task);
    while (!done()) {
        if (now_ > max_cycles)
            ENMC_PANIC("ENMC rank watchdog: program did not finish");
        // A skip stops at max_cycles + 1, where the per-cycle loop would
        // also have panicked.
        if (!step() && !done())
            skipQuietCycles(max_cycles + 1);
    }
    return takeResult();
}

} // namespace enmc::arch
