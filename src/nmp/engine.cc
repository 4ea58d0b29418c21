#include "nmp/engine.h"

#include <algorithm>

#include "common/logging.h"

namespace enmc::nmp {

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Nda: return "NDA";
      case EngineKind::Chameleon: return "Chameleon";
      case EngineKind::TensorDimm: return "TensorDIMM";
      case EngineKind::TensorDimmLarge: return "TensorDIMM-Large";
    }
    return "?";
}

double
EngineConfig::gemvEfficiency(uint64_t batch) const
{
    switch (kind) {
      case EngineKind::Nda:
        // General FUs: address generation / routing shares issue slots.
        return 0.5;
      case EngineKind::Chameleon:
        // 4x4 systolic array: one vector per column; GEMV fills
        // min(batch, 4) of the 4 columns.
        return static_cast<double>(std::min<uint64_t>(batch, 4)) / 4.0;
      case EngineKind::TensorDimm:
      case EngineKind::TensorDimmLarge:
        // SIMD lanes vectorize along the hidden dimension.
        return 1.0;
    }
    return 1.0;
}

EngineConfig
EngineConfig::nda()
{
    EngineConfig c;
    c.kind = EngineKind::Nda;
    c.fp32_macs = 16;      // 4*4 functional units (Table 4)
    c.buffer_bytes = 1024; // 1KB memory
    c.queues = 1;
    return c;
}

EngineConfig
EngineConfig::chameleon()
{
    EngineConfig c;
    c.kind = EngineKind::Chameleon;
    c.fp32_macs = 16;      // 4*4 systolic array
    c.buffer_bytes = 1024;
    c.queues = 1;
    return c;
}

EngineConfig
EngineConfig::tensorDimm()
{
    EngineConfig c;
    c.kind = EngineKind::TensorDimm;
    c.fp32_macs = 16;      // 16-lane VPU
    c.buffer_bytes = 512;  // 512B queue x 3
    c.queues = 3;
    return c;
}

EngineConfig
EngineConfig::tensorDimmLarge()
{
    EngineConfig c = tensorDimm();
    c.kind = EngineKind::TensorDimmLarge;
    c.fp32_macs = 64;
    c.buffer_bytes = 2048;
    return c;
}

NmpEngine::NmpEngine(const EngineConfig &cfg, const dram::Organization &org,
                     const dram::Timing &timing)
    : cfg_(cfg), org_(org), timing_(timing),
      stats_(std::string("nmp.") + engineKindName(cfg.kind)),
      stat_runs_(stats_.addCounter("runs", "slice programs executed")),
      stat_candidates_(stats_.addCounter("candidates",
                                         "rows passing the screen filter")),
      stat_screen_bytes_(stats_.addCounter("screenBytes",
                                           "bytes streamed while screening")),
      stat_exec_bytes_(stats_.addCounter(
          "execBytes", "bytes streamed during exact classification")),
      stat_output_bytes_(stats_.addCounter("outputBytes",
                                           "bytes returned to the host")),
      stat_cycles_(stats_.addScalar("cycles", "DDR cycles per slice run")),
      stats_registration_(stats_)
{
    ENMC_ASSERT(org.channels == 1 && org.ranks == 1,
                "NmpEngine owns exactly one rank");
}

Cycles
NmpEngine::macCycles(uint64_t macs, double efficiency) const
{
    const double eff_macs =
        std::max(1.0, cfg_.fp32_macs * efficiency);
    const Cycles logic =
        static_cast<Cycles>(ceilDiv(macs, static_cast<uint64_t>(eff_macs)));
    return crossDomain(logic, cfg_.freq_hz, timing_.freq_hz);
}

void
NmpEngine::streamPhase(uint64_t bytes, uint64_t mac_cycles, Addr base,
                       dram::ReqType type, arch::RankResult &res,
                       Cycles max_cycles)
{
    dram::StreamTransfer xfer;
    if (bytes > 0)
        xfer.start(base, bytes, type);
    Cycles busy = mac_cycles;
    while ((bytes > 0 && !xfer.done()) || busy > 0) {
        ++now_;
        if (now_ > max_cycles)
            ENMC_PANIC("NMP engine watchdog expired");
        dram_->tick();
        if (bytes > 0)
            xfer.pump(*dram_);
        if (busy > 0)
            --busy;
        // The pump left the queue full or every line issued, so until the
        // controller's next event only `busy` counts down; once the
        // transfer is done, its expiry ends the loop. A skip stops where
        // the watchdog would fire.
        Cycles quiet = std::min(quietCycles(), max_cycles - now_);
        if (bytes == 0 || xfer.done())
            quiet = std::min(quiet, busy);
        skip(quiet);
        busy -= std::min(busy, quiet);
    }
    // Drain outstanding column accesses before the next phase (a single
    // compute unit cannot overlap phases).
    while (!dram_->idle()) {
        skip(quietCycles());
        ++now_;
        dram_->tick();
    }
    res.cycles = now_;
}

Cycles
NmpEngine::quietCycles() const
{
    return dram_->nextEventCycle() - dram_->now() - 1;
}

void
NmpEngine::skip(Cycles n)
{
    if (n == 0)
        return;
    now_ += n;
    dram_->skipTo(dram_->now() + n);
}

arch::RankResult
NmpEngine::run(const arch::RankTask &task, Cycles max_cycles)
{
    ENMC_ASSERT(!task.functional(),
                "baseline engines are timing-only models");
    // A fresh DRAM controller per run: clock, refresh phase, open rows
    // and command counts all start at zero.
    dram_ = std::make_unique<dram::Controller>(
        org_, timing_, dram::ControllerConfig{}, "nmp.rank.dram");
    arch::RankResult res;
    now_ = 0;
    const double eff = cfg_.gemvEfficiency(task.batch);
    const uint64_t l = task.categories;
    const uint64_t d = task.hidden;
    const uint64_t k = task.reduced;
    const uint64_t batch = task.batch;

    // Phase 1: feature staging (FP32; no quantized path on the baselines).
    const uint64_t feat_bytes = batch * k * sizeof(float);
    streamPhase(feat_bytes, 0, task.feature_base, dram::ReqType::Read, res,
                max_cycles);

    // Phase 2: screening GEMV over FP32 screener weights.
    const uint64_t screen_bytes = l * k * sizeof(float);
    const uint64_t screen_macs = l * batch * k;
    streamPhase(screen_bytes, macCycles(screen_macs, eff),
                task.screen_weight_base, dram::ReqType::Read, res,
                max_cycles);
    res.screen_bytes += feat_bytes + screen_bytes;

    // Phase 3: partial-sum spill. The approximate logits (l x batch FP32)
    // exceed the on-core buffers, so they spill to DRAM and are read back
    // for selection.
    const uint64_t psum_bytes = l * batch * sizeof(float);
    if (psum_bytes > cfg_.buffer_bytes * cfg_.queues) {
        streamPhase(psum_bytes, 0, task.output_base, dram::ReqType::Write,
                    res, max_cycles);
        // Read back + compare on the FP32 array.
        streamPhase(psum_bytes, macCycles(l * batch, eff),
                    task.output_base, dram::ReqType::Read, res, max_cycles);
        res.screen_bytes += 2 * psum_bytes;
    }

    // Phase 4: candidates-only classification (weight row + feature
    // streamed per candidate, as on ENMC's Executor).
    const uint64_t cands = task.expected_candidates * batch;
    const uint64_t cand_bytes = cands * 2 * d * sizeof(float);
    const uint64_t cand_macs = cands * d;
    streamPhase(cand_bytes, macCycles(cand_macs, eff),
                task.class_weight_base, dram::ReqType::Read, res,
                max_cycles);
    res.exec_bytes += cand_bytes;
    res.candidates = cands;

    // Phase 5: softmax on the FP32 array (no SFU): ~5 ops per element for
    // a Taylor exp, over approximate logits + candidates.
    const uint64_t softmax_macs = (l * batch + cands) * 5;
    streamPhase(0, macCycles(softmax_macs, eff), 0, dram::ReqType::Read,
                res, max_cycles);

    // Phase 6: return results to the host.
    res.output_bytes = batch * 8 + cands * 8;
    const Cycles ret =
        ceilDiv(res.output_bytes, org_.accessBytes()) * timing_.tbl;
    for (Cycles left = ret; left > 0;) {
        // A skip stops where the watchdog would fire.
        const Cycles quiet =
            std::min({quietCycles(), left - 1,
                      max_cycles - std::min(now_, max_cycles)});
        skip(quiet);
        ++now_;
        if (now_ > max_cycles)
            ENMC_PANIC("NMP engine watchdog expired");
        dram_->tick();
        left -= quiet + 1;
    }
    res.dram_reads = dram_->channel().commandCount(dram::Cmd::Rd);
    res.dram_writes = dram_->channel().commandCount(dram::Cmd::Wr);
    res.dram_acts = dram_->channel().commandCount(dram::Cmd::Act);
    res.dram_refs = dram_->channel().commandCount(dram::Cmd::Ref);
    res.cycles = now_;
    recordRun(res);
    return res;
}

void
NmpEngine::recordRun(const arch::RankResult &res)
{
    ++stat_runs_;
    stat_candidates_ += res.candidates;
    stat_screen_bytes_ += res.screen_bytes;
    stat_exec_bytes_ += res.exec_bytes;
    stat_output_bytes_ += res.output_bytes;
    stat_cycles_.sample(static_cast<double>(res.cycles));
}

} // namespace enmc::nmp
