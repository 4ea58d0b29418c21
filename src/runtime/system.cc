#include "runtime/system.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "runtime/backend.h"
#include "runtime/compiler.h"
#include "runtime/partition.h"
#include "runtime/resilience.h"
#include "tensor/tune.h"

namespace enmc::runtime {

using arch::RankResult;
using arch::RankTask;

EnmcSystem::EnmcSystem(const SystemConfig &cfg)
    : cfg_(cfg),
      stats_("runtime.system"),
      stat_functional_runs_(stats_.addCounter("functionalRuns",
                                              "functional jobs executed")),
      stat_timing_runs_(stats_.addCounter("timingRuns",
                                          "timing jobs executed")),
      stat_slices_(stats_.addCounter("slices", "rank slices merged")),
      stat_batch_items_(stats_.addCounter("batchItems",
                                          "batch items classified")),
      stat_candidates_(stats_.addCounter("candidates",
                                         "candidate rows exactly scored")),
      stat_fault_injected_(stats_.addCounter(
          "faultInjectedWords", "data words with injected faults")),
      stat_fault_corrected_(stats_.addCounter(
          "faultCorrected", "faulty words repaired by SECDED")),
      stat_fault_detected_(stats_.addCounter(
          "faultDetected", "faulty words detected uncorrectable")),
      stat_fault_escaped_(stats_.addCounter(
          "faultEscaped", "faulty words silently corrupted")),
      stat_uncorrectable_(stats_.addCounter(
          "uncorrectableWords", "uncorrectable words after resilience")),
      stat_uncorrectable_weak_(stats_.addCounter(
          "uncorrectableWeakWords",
          "uncorrectable words on the weak (screener) path")),
      stat_uncorrectable_strong_(stats_.addCounter(
          "uncorrectableStrongWords",
          "uncorrectable words on the strong (executor) path")),
      stat_redundancy_reads_(stats_.addCounter(
          "faultRedundancyReads", "extra bursts fetching ECC check bits")),
      stat_decode_cycles_(stats_.addCounter(
          "faultDecodeCycles", "ECC syndrome-decode cycles charged")),
      stat_degraded_(stats_.addCounter(
          "degradedCandidates", "candidates answered approximately")),
      stat_slice_cycles_(stats_.addScalar("sliceCycles",
                                          "simulated cycles per slice")),
      stat_slice_skew_(stats_.addHistogram(
          "sliceSkew", "slice cycles relative to the slowest slice",
          0.0, 1.0, 20)),
      stats_registration_(stats_)
{
    // Honour ENMC_TUNE_JSON before the first kernel call of any backend
    // (idempotent; performance-only, never changes results).
    tensor::tune::loadFromEnv();
    ENMC_ASSERT(cfg.totalRanks() >= 1, "system needs at least one rank");

    // Per-protection-class mirrors: each class must satisfy the same
    // accounting invariant as the aggregate (injected == corrected +
    // detected + escaped), checkable from the exported JSON alone.
    static const char *const kClassTitle[] = {"None", "Weak", "Strong"};
    for (int c = 0; c < fault::kNumProtectionClasses; ++c) {
        const std::string p = std::string("fault") + kClassTitle[c];
        const std::string cls = fault::protectionName(
            static_cast<fault::Protection>(c));
        stat_class_[c][0] = &stats_.addCounter(
            p + "Injected", cls + "-class words with injected faults");
        stat_class_[c][1] = &stats_.addCounter(
            p + "Corrected", cls + "-class faulty words repaired");
        stat_class_[c][2] = &stats_.addCounter(
            p + "Detected", cls + "-class words detected uncorrectable");
        stat_class_[c][3] = &stats_.addCounter(
            p + "Escaped", cls + "-class words silently corrupted");
    }
}

void
EnmcSystem::recordSlice(const RankResult &res) const
{
    ++stat_slices_;
    stat_candidates_ += res.candidates;
    stat_fault_injected_ += res.faults.injected_words;
    stat_fault_corrected_ += res.faults.corrected;
    stat_fault_detected_ += res.faults.detected;
    stat_fault_escaped_ += res.faults.escaped;
    for (int c = 0; c < fault::kNumProtectionClasses; ++c) {
        const fault::FaultCounters::ClassCounters &pc = res.faults.per_class[c];
        *stat_class_[c][0] += pc.injected;
        *stat_class_[c][1] += pc.corrected;
        *stat_class_[c][2] += pc.detected;
        *stat_class_[c][3] += pc.escaped;
    }
    stat_uncorrectable_ += res.uncorrectable_words;
    stat_uncorrectable_weak_ += res.uncorrectable_weak_words;
    stat_uncorrectable_strong_ += res.uncorrectable_strong_words;
    stat_redundancy_reads_ += res.ecc_redundancy_reads;
    stat_decode_cycles_ += res.ecc_decode_cycles;
    stat_degraded_ += res.degraded_candidates;
    stat_slice_cycles_.sample(static_cast<double>(res.cycles));
}

RankTask
EnmcSystem::makeSliceTask(const JobSpec &spec, uint64_t slice_categories,
                          uint64_t slice_candidates)
{
    ENMC_ASSERT(spec.hidden > 0 && spec.reduced > 0 &&
                    slice_categories > 0,
                "job dimensions not set");
    RankTask task;
    task.categories = slice_categories;
    task.hidden = spec.hidden;
    task.reduced = spec.reduced;
    task.quant = spec.quant;
    task.batch = spec.batch;
    task.sigmoid = spec.sigmoid;
    task.expected_candidates = std::max<uint64_t>(1, slice_candidates);
    TaskLayout::assign(task);
    return task;
}

RankTask
EnmcSystem::makeRankTask(const JobSpec &spec) const
{
    ENMC_ASSERT(spec.categories > 0, "job dimensions not set");
    const uint64_t ranks = cfg_.totalRanks();
    return makeSliceTask(spec,
                         RankPartitioner::sliceRows(spec.categories, ranks),
                         RankPartitioner::evenShare(spec.candidates, ranks));
}

TimingResult
EnmcSystem::runRank(const RankTask &task, uint64_t ranks) const
{
    const EnmcBackend backend(cfg_);
    TimingResult res;
    res.rank = backend.runSlice(task);
    res.rank_cycles = res.rank.cycles;
    res.ranks = ranks;
    res.seconds = cyclesToSeconds(res.rank_cycles, cfg_.timing.freq_hz);
    recordSlice(res.rank);

    // The representative rank's simulated screen/exec busy windows on the
    // DDR-clock timeline (same reconstruction as the functional path).
    obs::Tracer &tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
        const double us_per_cycle = 1e6 / cfg_.timing.freq_hz;
        const double end_us = res.rank.cycles * us_per_cycle;
        const double screen_us = res.rank.screener_busy * us_per_cycle;
        const double exec_us = res.rank.executor_busy * us_per_cycle;
        const uint32_t rank_id = task.rank_index;
        tracer.complete("screen", "sim", obs::kSimPid, rank_id, 0.0,
                        screen_us);
        tracer.instant("filter", "sim", obs::kSimPid, rank_id, screen_us,
                       {{"candidates",
                         static_cast<double>(res.rank.candidates)}});
        tracer.complete("exec", "sim", obs::kSimPid, rank_id,
                        end_us - exec_us, exec_us);
    }
    return res;
}

TimingResult
EnmcSystem::runTiming(const JobSpec &spec, uint64_t ranks) const
{
    ENMC_ASSERT(spec.categories > 0, "job dimensions not set");
    ++stat_timing_runs_;
    obs::TraceSpan span("runTiming", "pipeline");
    span.arg("categories", static_cast<double>(spec.categories));
    span.arg("batch", static_cast<double>(spec.batch));
    const RankTask task = makeSliceTask(
        spec, RankPartitioner::sliceRows(spec.categories, ranks),
        RankPartitioner::evenShare(spec.candidates, ranks));
    const uint64_t tile_rows = screeningTileRows(task, cfg_.enmc);
    const uint64_t tiles = ceilDiv(task.categories, tile_rows);

    if (tiles <= cfg_.max_sim_tiles)
        return runRank(task, ranks);

    // Representative-tile extrapolation: measure two truncated slice
    // sizes, fit cycles = a + b * tiles, and extend. Candidate work and
    // traffic scale with the same ratio (screening is tile-homogeneous).
    const uint64_t n2 = cfg_.max_sim_tiles;
    const uint64_t n1 = cfg_.max_sim_tiles / 2;
    auto truncated = [&](uint64_t n) {
        RankTask t = task;
        t.categories = n * tile_rows;
        t.expected_candidates = std::max<uint64_t>(
            1, static_cast<uint64_t>(
                   static_cast<double>(task.expected_candidates) *
                   t.categories / task.categories));
        return runRank(t, ranks);
    };
    const TimingResult r1 = truncated(n1);
    const TimingResult r2 = truncated(n2);

    const double per_tile =
        static_cast<double>(r2.rank_cycles - r1.rank_cycles) /
        static_cast<double>(n2 - n1);
    TimingResult res = r2;
    res.extrapolated = true;
    res.rank_cycles = r2.rank_cycles +
        static_cast<Cycles>(per_tile * static_cast<double>(tiles - n2));
    res.seconds = cyclesToSeconds(res.rank_cycles, cfg_.timing.freq_hz);

    const double scale = static_cast<double>(task.categories) /
                         (static_cast<double>(n2) * tile_rows);
    res.rank.cycles = res.rank_cycles;
    res.rank.screen_bytes =
        static_cast<uint64_t>(r2.rank.screen_bytes * scale);
    res.rank.exec_bytes = static_cast<uint64_t>(r2.rank.exec_bytes * scale);
    res.rank.output_bytes =
        static_cast<uint64_t>(r2.rank.output_bytes * scale);
    res.rank.candidates = task.expected_candidates * task.batch;
    res.rank.instructions =
        static_cast<uint64_t>(r2.rank.instructions * scale);
    res.rank.screener_busy =
        static_cast<Cycles>(r2.rank.screener_busy * scale);
    res.rank.executor_busy =
        static_cast<Cycles>(r2.rank.executor_busy * scale);
    res.rank.dram_reads = static_cast<uint64_t>(r2.rank.dram_reads * scale);
    res.rank.dram_writes =
        static_cast<uint64_t>(r2.rank.dram_writes * scale);
    res.rank.dram_acts = static_cast<uint64_t>(r2.rank.dram_acts * scale);
    res.rank.dram_refs = static_cast<uint64_t>(r2.rank.dram_refs * scale);
    return res;
}

EnmcSystem::FunctionalResult
EnmcSystem::runFunctionalRange(const nn::Classifier &classifier,
                               const screening::Screener &screener,
                               const std::vector<tensor::Vector> &h_batch,
                               uint64_t ranks_to_use, uint64_t row_begin,
                               uint64_t row_count) const
{
    ENMC_ASSERT(!h_batch.empty(), "empty batch");
    ENMC_ASSERT(screener.quantizedFrozen(),
                "freezeQuantized() before running on hardware");
    ENMC_ASSERT(screener.config().selection ==
                    screening::SelectionMode::Threshold,
                "the hardware FILTER needs a threshold-mode screener");
    ENMC_ASSERT(row_begin + row_count <= classifier.categories(),
                "row range out of bounds");
    const uint64_t ranks = std::min<uint64_t>(ranks_to_use, row_count);
    const uint64_t batch = h_batch.size();

    ++stat_functional_runs_;
    stat_batch_items_ += batch;
    obs::TraceSpan request_span("request", "pipeline");
    request_span.arg("rows", static_cast<double>(row_count));
    request_span.arg("batch", static_cast<double>(batch));
    request_span.arg("ranks", static_cast<double>(ranks));

    // Per-item projected + quantized features (computed once, shared by
    // all ranks, exactly as the host broadcast works).
    std::vector<tensor::QuantizedVector> yq;
    {
        obs::TraceSpan span("screen.project", "pipeline");
        for (const auto &h : h_batch)
            yq.push_back(tensor::quantize(screener.project(h),
                                          screener.config().quant));
    }

    const tensor::QuantizedMatrix &wq = screener.quantizedWeights();

    // Fail-open screening guard: with the weak (screener) path running
    // unprotected and a data BER armed, a silent flip in a packed
    // weight perturbs one approximate logit by
    // |delta_value| * row_scale * |feature| — and the only harm it can
    // do is demote a true candidate (an inflated logit self-corrects
    // by *becoming* a candidate the executor recomputes exactly). So
    // the FILTER cut is lowered by `weak_guard` units of the expected
    // perturbation, scaled by the per-row corruption probability: the
    // margin vanishes at low BER and widens the candidate set just
    // enough at high BER.
    float weak_margin = 0.0f;
    if (cfg_.fault.enabled && cfg_.fault.data_ber > 0.0 &&
        cfg_.fault.schemeFor(fault::Protection::Weak) ==
            fault::EccScheme::None &&
        cfg_.resilience.weak_guard > 0.0) {
        double feat_mag = 0.0;
        for (const auto &q : yq) {
            double sum = 0.0;
            for (const int8_t v : q.values)
                sum += std::abs(static_cast<double>(v));
            feat_mag += q.scale * sum /
                        static_cast<double>(std::max<size_t>(
                            q.values.size(), 1));
        }
        feat_mag /= static_cast<double>(yq.size());
        double mean_scale = 0.0;
        for (const float s : wq.scales)
            mean_scale += s;
        mean_scale /= static_cast<double>(std::max<size_t>(
            wq.scales.size(), 1));
        // A flip lands in the packed two's-complement domain (the rank
        // folds its scratch back to the storage width), so one flip in
        // a w-bit weight perturbs it by 2^k, k < w: mean (2^w - 1) / w.
        const int width = tensor::quantBitCount(wq.bits) > 0
                              ? tensor::quantBitCount(wq.bits)
                              : 8;
        const double mean_flip =
            (static_cast<double>(1 << width) - 1.0) / width;
        const double corrupt_p = std::min(
            1.0, cfg_.fault.data_ber * static_cast<double>(wq.cols) *
                     width);
        weak_margin = static_cast<float>(cfg_.resilience.weak_guard *
                                         corrupt_p * mean_flip *
                                         mean_scale * feat_mag);
    }

    const std::vector<RowSlice> slices =
        RankPartitioner::partition(row_begin, row_count, ranks);
    const EnmcBackend plain_backend(cfg_);
    const ResilientBackend resilient_backend(cfg_);
    const Backend &backend =
        cfg_.resilient ? static_cast<const Backend &>(resilient_backend)
                       : plain_backend;

    // Each slice is a self-contained rank simulation: workers build their
    // own EnmcRank instance over their rows of the shared (read-only)
    // tensors, park the RankResult in a per-slice slot, and the merge
    // below walks the slots in slice order — so the output is
    // bit-identical for any worker count.
    // Maps slice index -> the physical rank simulating it (also the trace
    // track the slice's spans land on).
    auto sliceRankId = [&](size_t s) {
        return cfg_.functional_rank_ids.empty()
                   ? static_cast<uint32_t>(s)
                   : cfg_.functional_rank_ids[s %
                                              cfg_.functional_rank_ids
                                                  .size()];
    };

    std::vector<RankResult> results(slices.size());
    parallelFor(0, slices.size(), cfg_.sim_threads, [&](size_t s) {
        const uint64_t row0 = slices[s].begin;
        const uint64_t rows = slices[s].rows;
        obs::TraceSpan slice_span("slice.sim", "pipeline", sliceRankId(s));
        slice_span.arg("slice", static_cast<double>(s));
        slice_span.arg("rows", static_cast<double>(rows));

        RankTask task;
        task.categories = rows;
        task.hidden = classifier.hidden();
        task.reduced = screener.reducedDim();
        task.quant = screener.config().quant;
        task.batch = batch;
        task.sigmoid =
            classifier.normalization() == nn::Normalization::Sigmoid;
        task.threshold = screener.config().threshold - weak_margin;
        // The rank reads its rows of the shared tensors in place.
        task.screen_weights = &wq;
        task.screen_bias = &screener.bias();
        task.class_weights = &classifier.weights();
        task.class_bias = &classifier.bias();
        task.row_offset = row0;
        task.features_q = yq;
        task.features = h_batch;

        // Same layout policy as the timing path (TaskLayout is the only
        // place the reserve policy lives).
        TaskLayout::assign(task);

        // Per-slice fault streams: every sample is pure in (seed, stream,
        // index), so pooled runs stay bit-identical to serial ones.
        const uint32_t rank_id = sliceRankId(s);
        task.rank_index = rank_id;
        fault::FaultInjector injector(cfg_.fault, /*stream=*/rank_id);
        if (cfg_.fault.enabled)
            task.injector = &injector;

        results[s] = backend.runFunctionalSlice(task);
        // The slice injector accumulates every attempt (retries merge
        // their counters back into it); the result's own delta only
        // covers the final attempt.
        if (task.injector != nullptr)
            results[s].faults = injector.counters();
    });

    FunctionalResult out;
    out.logits.assign(batch, tensor::Vector(row_count, 0.0f));
    out.candidates.assign(batch, {});
    {
        obs::TraceSpan merge_span("merge", "pipeline");
        for (size_t s = 0; s < slices.size(); ++s) {
            const uint64_t row0 = slices[s].begin;
            const RankResult &rr = results[s];
            out.rank_cycles = std::max(out.rank_cycles, rr.cycles);
            out.faults += rr.faults;
            out.uncorrectable_words += rr.uncorrectable_words;
            out.uncorrectable_weak_words += rr.uncorrectable_weak_words;
            out.uncorrectable_strong_words += rr.uncorrectable_strong_words;
            out.ecc_redundancy_reads += rr.ecc_redundancy_reads;
            out.ecc_decode_cycles += rr.ecc_decode_cycles;
            out.degraded_candidates += rr.degraded_candidates;
            out.slice_cycles.push_back(rr.cycles);
            recordSlice(rr);
            for (uint64_t item = 0; item < batch; ++item) {
                std::copy(rr.logits[item].begin(), rr.logits[item].end(),
                          out.logits[item].begin() + (row0 - row_begin));
                for (uint32_t c : rr.candidate_ids[item])
                    out.candidates[item].push_back(
                        static_cast<uint32_t>(row0 + c));
            }
        }
    }
    out.seconds = cyclesToSeconds(out.rank_cycles, cfg_.timing.freq_hz);

    // Load-imbalance histogram: each slice's cycles relative to the
    // slowest slice (1.0 = critical path).
    if (out.rank_cycles > 0) {
        for (size_t s = 0; s < slices.size(); ++s)
            stat_slice_skew_.sample(
                static_cast<double>(results[s].cycles) /
                static_cast<double>(out.rank_cycles));
    }

    // Reconstruct each rank's simulated timeline (screen || exec on the
    // DDR clock) as trace spans on the kSimPid timeline: the screener
    // streams from cycle 0, the executor's busy window ends at the
    // slice's last cycle, and the filter handoff is the instant the
    // screener goes idle.
    obs::Tracer &tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
        const double us_per_cycle = 1e6 / cfg_.timing.freq_hz;
        for (size_t s = 0; s < slices.size(); ++s) {
            const RankResult &rr = results[s];
            const uint32_t rank_id = sliceRankId(s);
            const double end_us = rr.cycles * us_per_cycle;
            const double screen_us = rr.screener_busy * us_per_cycle;
            const double exec_us = rr.executor_busy * us_per_cycle;
            tracer.complete("screen", "sim", obs::kSimPid, rank_id, 0.0,
                            screen_us,
                            {{"rows", static_cast<double>(slices[s].rows)}});
            tracer.instant("filter", "sim", obs::kSimPid, rank_id,
                           screen_us,
                           {{"candidates",
                             static_cast<double>(rr.candidates)}});
            tracer.complete("exec", "sim", obs::kSimPid, rank_id,
                            end_us - exec_us, exec_us,
                            {{"candidates",
                              static_cast<double>(rr.candidates)}});
        }
    }
    return out;
}

EnmcSystem::FunctionalResult
EnmcSystem::runFunctional(const nn::Classifier &classifier,
                          const screening::Screener &screener,
                          const std::vector<tensor::Vector> &h_batch,
                          uint64_t ranks_to_use) const
{
    std::vector<FunctionalResult> parts;
    parts.push_back(runFunctionalRange(classifier, screener, h_batch,
                                       ranks_to_use, 0,
                                       classifier.categories()));
    return gatherShards(std::move(parts), classifier.normalization());
}

EnmcSystem::FunctionalResult
gatherShards(std::vector<EnmcSystem::FunctionalResult> parts,
             nn::Normalization norm)
{
    ENMC_ASSERT(!parts.empty(), "gather of zero shards");
    const size_t batch = parts.front().logits.size();
    size_t rows = 0;
    for (const EnmcSystem::FunctionalResult &part : parts) {
        ENMC_ASSERT(part.logits.size() == batch &&
                        part.candidates.size() == batch,
                    "shards disagree on the batch size");
        rows += batch == 0 ? 0 : part.logits.front().size();
    }
    EnmcSystem::FunctionalResult out = std::move(parts.front());
    for (tensor::Vector &z : out.logits)
        z.reserve(rows);
    for (size_t p = 1; p < parts.size(); ++p) {
        const EnmcSystem::FunctionalResult &part = parts[p];
        for (size_t item = 0; item < batch; ++item) {
            out.logits[item].insert(out.logits[item].end(),
                                    part.logits[item].begin(),
                                    part.logits[item].end());
            out.candidates[item].insert(out.candidates[item].end(),
                                        part.candidates[item].begin(),
                                        part.candidates[item].end());
        }
        out.rank_cycles = std::max(out.rank_cycles, part.rank_cycles);
        out.seconds = std::max(out.seconds, part.seconds);
        out.faults += part.faults;
        out.uncorrectable_words += part.uncorrectable_words;
        out.uncorrectable_weak_words += part.uncorrectable_weak_words;
        out.uncorrectable_strong_words += part.uncorrectable_strong_words;
        out.ecc_redundancy_reads += part.ecc_redundancy_reads;
        out.ecc_decode_cycles += part.ecc_decode_cycles;
        out.degraded_candidates += part.degraded_candidates;
        out.slice_cycles.insert(out.slice_cycles.end(),
                                part.slice_cycles.begin(),
                                part.slice_cycles.end());
    }

    // Root normalization, once over the gathered logits (SFU Taylor-4).
    out.probabilities.clear();
    out.probabilities.reserve(batch);
    for (const tensor::Vector &z : out.logits)
        out.probabilities.push_back(nn::normalizeTaylor(z, norm));
    return out;
}

} // namespace enmc::runtime
