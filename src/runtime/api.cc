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

EnmcClassifier::EnmcClassifier(const nn::Classifier &teacher,
                               const ClassifierOptions &options,
                               const SystemConfig &system)
    : teacher_(teacher), options_(options), system_(system),
      slot_(options.snapshot), cache_(options.cache)
{
    auto screener = makeScreener(options_.seed);
    calib_screener_ = screener.get();
    // Epoch 1 from birth: responses always carry a well-defined epoch.
    slot_.publish(std::move(screener));
    projection_seed_ = options_.seed;
}

std::unique_ptr<screening::Screener>
EnmcClassifier::makeScreener(uint64_t seed) const
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
    return std::make_unique<screening::Screener>(cfg, rng);
}

const screening::Screener &
EnmcClassifier::screener() const
{
    const auto snap = slot_.current();
    ENMC_ASSERT(snap != nullptr, "no screener published");
    // The snapshot stays alive through the slot's retired grace list even
    // if a publish lands right after this returns; see the header caveat.
    return snap->screener();
}

screening::TrainReport
EnmcClassifier::calibrate(const std::vector<tensor::Vector> &train_h,
                          const std::vector<tensor::Vector> &val_h)
{
    ENMC_ASSERT(calib_screener_ != nullptr,
                "calibrate() is the offline flow; after a hot-swap, train "
                "replacements outside and swapScreener() them in");
    screening::Trainer trainer(teacher_, *calib_screener_, options_.trainer);
    screening::TrainReport report = trainer.train(train_h, val_h);
    calib_screener_->freezeQuantized();
    const float threshold = screening::tuneThreshold(
        *calib_screener_, val_h.empty() ? train_h : val_h,
        options_.candidates);
    calib_screener_->setSelection(screening::SelectionMode::Threshold,
                                  options_.candidates, threshold);
    cache_.clear();
    calibrated_ = true;
    return report;
}

uint64_t
EnmcClassifier::swapScreener(std::unique_ptr<screening::Screener> screener,
                             uint64_t projection_seed)
{
    ENMC_ASSERT(screener != nullptr, "swapScreener: null screener");
    ENMC_ASSERT(screener->categories() == teacher_.categories() &&
                    screener->config().hidden == teacher_.hidden(),
                "swapScreener: screener does not match this classifier");
    if (screener->config().quant != tensor::QuantBits::Fp32 &&
        !screener->quantizedFrozen())
        screener->freezeQuantized();
    // The published snapshot is immutable from here on; the offline
    // calibration alias no longer points at the live version.
    calib_screener_ = nullptr;
    projection_seed_ = projection_seed;
    const uint64_t epoch = slot_.publish(std::move(screener));
    // Stale cache entries are dropped lazily on epoch-mismatch lookups.
    calibrated_ = true;
    return epoch;
}

uint64_t
EnmcClassifier::refresh(const std::vector<tensor::Vector> &train_h,
                        const std::vector<tensor::Vector> &val_h)
{
    // Derive a fresh seed so the retrained projection/init differ per
    // epoch but stay reproducible for a given (options.seed, epoch).
    const uint64_t seed = options_.seed + slot_.epoch() + 1;
    auto next = makeScreener(seed);
    screening::Trainer trainer(teacher_, *next, options_.trainer);
    trainer.train(train_h, val_h);
    next->freezeQuantized();
    const float threshold = screening::tuneThreshold(
        *next, val_h.empty() ? train_h : val_h, options_.candidates);
    next->setSelection(screening::SelectionMode::Threshold,
                       options_.candidates, threshold);
    return swapScreener(std::move(next), seed);
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
EnmcClassifier::forward(const std::vector<tensor::Vector> &h_batch, size_t k)
{
    ENMC_ASSERT(calibrated_, "calibrate() before forward()");
    // One snapshot for the whole batch: a concurrent hot-swap never
    // mixes epochs within a batch, and the snapshot cannot be freed
    // while this shared_ptr is held.
    const auto snap = slot_.current();
    ENMC_ASSERT(snap != nullptr, "no screener published");
    const screening::Screener &scr = snap->screener();
    const uint64_t epoch = snap->epoch();

    std::vector<ClassifierOutput> out(h_batch.size());
    // The cache key is the INT sketch, so an FP32 screener has nothing to
    // key on; fault/resilience streams depend on global injection order,
    // which a screening bypass would perturb — keep those bit-exact by
    // running them uncached.
    const SystemConfig &sys = system_.config();
    const bool cache_on = cache_.enabled() &&
                          scr.config().quant != tensor::QuantBits::Fp32 &&
                          !sys.fault.enabled && !sys.resilient;

    if (!cache_on) {
        const auto fr =
            system_.runFunctional(teacher_, scr, h_batch, options_.ranks);
        last_cycles_ = fr.rank_cycles;
        for (size_t i = 0; i < h_batch.size(); ++i) {
            out[i].probabilities = fr.probabilities[i];
            out[i].topk = tensor::topkIndices(fr.probabilities[i], k);
            out[i].candidates = fr.candidates[i];
            out[i].snapshot_epoch = epoch;
        }
        return out;
    }

    std::vector<size_t> miss_idx;
    std::vector<tensor::Vector> miss_h;
    std::vector<tensor::QuantizedVector> miss_yq;
    for (size_t i = 0; i < h_batch.size(); ++i) {
        tensor::QuantizedVector yq =
            tensor::quantize(scr.project(h_batch[i]), scr.config().quant);
        const screening::CacheEntry *hit =
            cache_.lookup(yq, epoch, scr);
        if (hit != nullptr) {
            out[i] = serveHit(*hit, h_batch[i], k);
            out[i].snapshot_epoch = epoch;
        } else {
            miss_idx.push_back(i);
            miss_h.push_back(h_batch[i]);
            miss_yq.push_back(std::move(yq));
        }
    }

    if (miss_idx.empty()) {
        last_cycles_ = 0;
        return out;
    }
    // Per-item functional results are batch-composition-invariant, so
    // screening only the misses serves them bit-identical to a full
    // uncached batch.
    auto fr = system_.runFunctional(teacher_, scr, miss_h, options_.ranks);
    last_cycles_ = fr.rank_cycles;
    const tensor::QuantizedMatrix &wq = scr.quantizedWeights();
    for (size_t j = 0; j < miss_idx.size(); ++j) {
        const size_t i = miss_idx[j];
        out[i].probabilities = fr.probabilities[j];
        out[i].topk = tensor::topkIndices(fr.probabilities[j], k);
        out[i].candidates = fr.candidates[j];
        out[i].snapshot_epoch = epoch;
        // Cache the *approximate* logit vector: candidate rows of the
        // mixed result hold this request's exact logits — re-screen just
        // those rows so the entry is a pure function of the sketch.
        tensor::Vector approx = std::move(fr.logits[j]);
        for (const uint32_t r : out[i].candidates)
            tensor::gemvQuantizedRows(wq, miss_yq[j].values,
                                      miss_yq[j].scale, scr.bias(), approx,
                                      r, r + 1);
        cache_.insert(miss_yq[j], epoch, out[i].candidates,
                      std::move(approx));
    }
    return out;
}

void
EnmcClassifier::save(const std::string &path) const
{
    ENMC_ASSERT(calibrated_, "calibrate() before save()");
    // The current screener's projection was drawn from projection_seed_.
    screening::saveScreenerFile(screener(), projection_seed_, path);
}

void
EnmcClassifier::load(const std::string &path)
{
    uint64_t seed = 0;
    auto screener = screening::loadScreenerFile(path, &seed);
    ENMC_ASSERT(screener->categories() == teacher_.categories() &&
                    screener->config().hidden == teacher_.hidden(),
                "loaded screener does not match this classifier");
    calib_screener_ = screener.get();
    projection_seed_ = seed;
    slot_.publish(std::move(screener));
    cache_.clear();
    calibrated_ = true;
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
