#include "runtime/api.h"

#include <utility>

#include "common/logging.h"
#include "screening/serialize.h"
#include "tensor/ops.h"
#include "tensor/topk.h"

namespace enmc::runtime {

ClassifierOptions
classifierOptionsFromEnv(ClassifierOptions base)
{
    base.cache = screening::cacheConfigFromEnv(base.cache);
    base.snapshot = snapshotConfigFromEnv(base.snapshot);
    return base;
}

void
requireCacheExact(bool cache_on, tensor::QuantBits quant,
                  const SystemConfig &system)
{
    const char *with = quant == tensor::QuantBits::Fp32 ? "an FP32 screener"
                       : system.fault.enabled          ? "fault injection"
                       : system.resilient              ? "resilient mode"
                                                       : nullptr;
    if (cache_on && with != nullptr)
        ENMC_FATAL("the candidate cache cannot serve bit-exactly with ",
                   with, " (set cache.capacity=0)");
}

EnmcClassifier::EnmcClassifier(const nn::Classifier &teacher,
                               const ClassifierOptions &options,
                               const SystemConfig &system)
    : teacher_(teacher), options_(options), system_(system),
      slot_(options.snapshot), cache_(options.cache)
{
    requireCacheExact(cache_.enabled(), options_.quant, system_.config());
}

std::pair<std::unique_ptr<screening::Screener>, screening::TrainReport>
EnmcClassifier::trainScreener(uint64_t seed,
                              const std::vector<tensor::Vector> &train_h,
                              const std::vector<tensor::Vector> &val_h) const
{
    screening::ScreenerConfig cfg;
    cfg.categories = teacher_.categories();
    cfg.hidden = teacher_.hidden();
    cfg.reduction_scale = options_.reduction_scale;
    cfg.quant = options_.quant;
    cfg.scheme = options_.scheme;
    cfg.selection = screening::SelectionMode::Threshold;
    cfg.top_m = options_.candidates;
    Rng rng(seed);
    auto screener = std::make_unique<screening::Screener>(cfg, rng);
    screening::Trainer trainer(teacher_, *screener, options_.trainer);
    screening::TrainReport report = trainer.train(train_h, val_h);
    screener->freezeQuantized();
    const float threshold = screening::tuneThreshold(
        *screener, val_h.empty() ? train_h : val_h, options_.candidates);
    screener->setSelection(screening::SelectionMode::Threshold,
                           options_.candidates, threshold);
    return {std::move(screener), std::move(report)};
}

uint64_t
EnmcClassifier::publish(std::unique_ptr<const screening::Screener> screener,
                        uint64_t projection_seed)
{
    ENMC_ASSERT(screener->categories() == teacher_.categories() &&
                    screener->config().hidden == teacher_.hidden(),
                "screener does not match this classifier");
    requireCacheExact(cache_.enabled(), screener->config().quant,
                      system_.config());
    // Stale cache entries are dropped lazily on epoch-mismatch lookups.
    return slot_.publish(std::move(screener), projection_seed);
}

const screening::Screener &
EnmcClassifier::screener() const
{
    const auto snap = slot_.current();
    ENMC_ASSERT(snap != nullptr, "no screener published");
    // Once this returns only the slot holds the snapshot, so the next
    // publish retires and (with auto_collect) frees it: the header caveat.
    return snap->screener();
}

screening::TrainReport
EnmcClassifier::calibrate(const std::vector<tensor::Vector> &train_h,
                          const std::vector<tensor::Vector> &val_h)
{
    auto [screener, report] = trainScreener(options_.seed, train_h, val_h);
    publish(std::move(screener), options_.seed);
    return report;
}

uint64_t
EnmcClassifier::refresh(const std::vector<tensor::Vector> &train_h,
                        const std::vector<tensor::Vector> &val_h)
{
    // Derive a fresh seed so the retrained projection/init differ per
    // epoch but stay reproducible for a given (options.seed, epoch).
    const uint64_t seed = options_.seed + slot_.epoch() + 1;
    return publish(trainScreener(seed, train_h, val_h).first, seed);
}

ClassifierOutput
EnmcClassifier::serveHit(const screening::CacheEntry &entry,
                         const tensor::Vector &h, size_t k) const
{
    // The cached approximate logits are bitwise-valid for this request
    // (same sketch); exact candidate rows must come from *this* request's
    // hidden vector, computed with the same dot-product the rank
    // executor runs — so the served output is bit-identical to the
    // uncached path by construction.
    ClassifierOutput out;
    out.cache_hit = true;
    out.candidates = entry.candidates;
    tensor::Vector logits = entry.approx_logits;
    for (const uint32_t r : entry.candidates)
        logits[r] = tensor::dot(teacher_.weights().row(r), h) +
                    teacher_.bias()[r];
    out.probabilities =
        nn::normalizeTaylor(logits, teacher_.normalization());
    out.topk = tensor::topkIndices(out.probabilities, k);
    return out;
}

std::vector<ClassifierOutput>
EnmcClassifier::forward(const std::vector<tensor::Vector> &h_batch, size_t k,
                        const MissRunner &run_misses)
{
    // One snapshot for the whole batch: a concurrent refresh never mixes
    // epochs within a batch, and the snapshot cannot be freed while this
    // shared_ptr is held.
    const auto snap = slot_.current();
    ENMC_ASSERT(snap != nullptr, "calibrate() or load() before forward()");
    const screening::Screener &scr = snap->screener();
    const bool cache_on = cache_.enabled();

    std::vector<ClassifierOutput> out(h_batch.size());
    std::vector<size_t> miss_idx;
    std::vector<tensor::Vector> miss_h;
    std::vector<tensor::QuantizedVector> miss_yq;
    if (cache_on) {
        for (size_t i = 0; i < h_batch.size(); ++i) {
            tensor::QuantizedVector yq = tensor::quantize(
                scr.project(h_batch[i]), scr.config().quant);
            const screening::CacheEntry *hit =
                cache_.lookup(yq, snap->epoch(), scr);
            if (hit != nullptr) {
                out[i] = serveHit(*hit, h_batch[i], k);
            } else {
                miss_idx.push_back(i);
                miss_h.push_back(h_batch[i]);
                miss_yq.push_back(std::move(yq));
            }
        }
    }

    // Per-item functional results are batch-composition-invariant, so
    // running only the misses serves them bit-identical to a full
    // uncached batch, on one node or sharded across a cluster. Nothing
    // runs only when the cache served every item.
    const std::vector<tensor::Vector> &run_h = cache_on ? miss_h : h_batch;
    if (!cache_on || !miss_idx.empty()) {
        auto fr = run_misses
                      ? run_misses(teacher_, scr, run_h, options_.ranks)
                      : system_.runFunctional(teacher_, scr, run_h,
                                              options_.ranks);
        for (size_t j = 0; j < run_h.size(); ++j) {
            ClassifierOutput &o = out[cache_on ? miss_idx[j] : j];
            o.probabilities = std::move(fr.probabilities[j]);
            o.topk = tensor::topkIndices(o.probabilities, k);
            o.candidates = std::move(fr.candidates[j]);
            if (!cache_on)
                continue;
            // Cache the *approximate* logit vector: candidate rows of the
            // mixed result hold this request's exact logits — re-screen
            // just those rows so the entry is a pure function of the
            // sketch.
            tensor::Vector approx = std::move(fr.logits[j]);
            for (const uint32_t r : o.candidates)
                tensor::gemvQuantizedRows(scr.quantizedWeights(),
                                          miss_yq[j].values,
                                          miss_yq[j].scale, scr.bias(),
                                          approx, r, r + 1);
            cache_.insert(miss_yq[j], snap->epoch(), o.candidates,
                          std::move(approx));
        }
    }
    for (ClassifierOutput &o : out)
        o.snapshot_epoch = snap->epoch();
    return out;
}

void
EnmcClassifier::save(const std::string &path) const
{
    // One snapshot: the screener and the seed its projection was drawn
    // from always come from the same epoch.
    const auto snap = slot_.current();
    ENMC_ASSERT(snap != nullptr, "calibrate() before save()");
    screening::saveScreenerFile(snap->screener(), snap->projectionSeed(),
                                path);
}

void
EnmcClassifier::load(const std::string &path)
{
    uint64_t seed = 0;
    auto screener = screening::loadScreenerFile(path, &seed);
    publish(std::move(screener), seed);
}

std::vector<ClassifierOutput>
EnmcClassifier::forwardFull(const std::vector<tensor::Vector> &h_batch,
                            size_t k) const
{
    std::vector<ClassifierOutput> out(h_batch.size());
    // Batched GEMV: the classifier weights stream once per batch. Per-item
    // values are bit-identical to teacher_.probabilities(h_batch[i]).
    std::vector<tensor::Vector> probs = teacher_.probabilitiesBatch(h_batch);
    for (size_t i = 0; i < h_batch.size(); ++i) {
        out[i].probabilities = std::move(probs[i]);
        out[i].topk = tensor::topkIndices(out[i].probabilities, k);
    }
    return out;
}

} // namespace enmc::runtime
