#include "screening/cache.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/env.h"
#include "common/logging.h"
#include "screening/screener.h"

namespace enmc::screening {

void
CacheConfig::validate() const
{
    if (!std::isfinite(margin) || margin < 0.0f)
        ENMC_FATAL("ENMC_CACHE_MARGIN must be finite and >= 0, got ",
                   margin);
}

CacheConfig
cacheConfigFromEnv(CacheConfig cfg)
{
    cfg.capacity = envU64("ENMC_CACHE_CAPACITY", cfg.capacity);
    cfg.margin = static_cast<float>(
        envF64("ENMC_CACHE_MARGIN", cfg.margin));
    cfg.validate();
    return cfg;
}

size_t
CandidateCache::KeyHash::operator()(const Key &k) const
{
    // FNV-1a over the sketch bytes; the bitwise scale + width fold in so
    // sketches that differ only in scale never share a bucket chain.
    uint64_t h = 1469598103934665603ull;
    const auto fold = [&h](uint64_t byte) {
        h ^= byte;
        h *= 1099511628211ull;
    };
    for (const int8_t v : k.values)
        fold(static_cast<uint8_t>(v));
    for (int i = 0; i < 4; ++i)
        fold((k.scale_bits >> (8 * i)) & 0xff);
    fold(k.bits);
    return static_cast<size_t>(h);
}

CandidateCache::CandidateCache(const CacheConfig &cfg)
    : cfg_(cfg),
      stats_("screening.cache"),
      stat_lookups_(stats_.addCounter("lookups", "cache probes")),
      stat_hits_(stats_.addCounter("hits", "bitwise sketch matches")),
      stat_misses_(stats_.addCounter(
          "misses", "probes without a same-epoch bitwise match")),
      stat_validated_(stats_.addCounter(
          "validated", "hits accepted by the margin re-screen")),
      stat_rejected_(stats_.addCounter(
          "rejected", "hits rejected by the margin re-screen")),
      stat_insertions_(stats_.addCounter("insertions", "entries written")),
      stat_evictions_(stats_.addCounter("evictions",
                                        "LRU entries evicted at capacity")),
      stat_bypass_(stats_.addCounter(
          "screenerBypass", "requests that skipped full screening")),
      stat_full_screens_(stats_.addCounter(
          "fullScreens", "requests that ran full screening")),
      stats_registration_(stats_)
{
    cfg_.validate();
}

CandidateCache::Key
CandidateCache::makeKey(const tensor::QuantizedVector &yq)
{
    Key k;
    k.values = yq.values;
    static_assert(sizeof(k.scale_bits) == sizeof(yq.scale));
    std::memcpy(&k.scale_bits, &yq.scale, sizeof(k.scale_bits));
    k.bits = static_cast<uint8_t>(tensor::quantBitCount(yq.bits));
    return k;
}

bool
CandidateCache::validateEntry(const CacheEntry &entry,
                              const tensor::QuantizedVector &yq,
                              const Screener &screener) const
{
    // Re-screen only the cached candidate rows against the live snapshot
    // and demand (a) bitwise agreement with the cached approximate logit
    // — a free integrity check on the epoch tagging — and (b) `margin`
    // headroom above the FILTER cut when thresholding selects candidates.
    const tensor::QuantizedMatrix &wq = screener.quantizedWeights();
    const ScreenerConfig &cfg = screener.config();
    const bool thresholded = cfg.selection == SelectionMode::Threshold;
    tensor::Vector z(wq.rows);
    for (const uint32_t r : entry.candidates) {
        if (r >= wq.rows || r >= entry.approx_logits.size())
            return false;
        tensor::gemvQuantizedRows(wq, yq.values, yq.scale, screener.bias(),
                                  z, r, r + 1);
        if (z[r] != entry.approx_logits[r])
            return false;
        if (thresholded && z[r] < cfg.threshold + cfg_.margin)
            return false;
    }
    return true;
}

const CacheEntry *
CandidateCache::lookup(const tensor::QuantizedVector &yq, uint64_t epoch,
                       const Screener &screener)
{
    if (!enabled())
        return nullptr;
    ++stat_lookups_;
    const Key key = makeKey(yq);
    const auto it = index_.find(key);
    if (it == index_.end()) {
        ++stat_misses_;
        ++stat_full_screens_;
        return nullptr;
    }
    if (it->second->entry.epoch != epoch) {
        // A hot-swap happened since this entry was written: the cached
        // geometry is stale. Drop it so the slot refills under the new
        // epoch instead of missing forever.
        lru_.erase(it->second);
        index_.erase(it);
        ++stat_misses_;
        ++stat_full_screens_;
        return nullptr;
    }
    ++stat_hits_;
    // Refresh recency before validation: even a rejected hit is evidence
    // the sketch is hot.
    lru_.splice(lru_.begin(), lru_, it->second);
    if (!validateEntry(it->second->entry, yq, screener)) {
        ++stat_rejected_;
        ++stat_full_screens_;
        return nullptr;
    }
    ++stat_validated_;
    ++stat_bypass_;
    return &it->second->entry;
}

void
CandidateCache::insert(const tensor::QuantizedVector &yq, uint64_t epoch,
                       std::vector<uint32_t> candidates,
                       tensor::Vector approx_logits)
{
    if (!enabled())
        return;
    Key key = makeKey(yq);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        // Same sketch re-screened (epoch bump or validation fallback):
        // overwrite in place and refresh recency.
        it->second->entry.epoch = epoch;
        it->second->entry.candidates = std::move(candidates);
        it->second->entry.approx_logits = std::move(approx_logits);
        lru_.splice(lru_.begin(), lru_, it->second);
        ++stat_insertions_;
        return;
    }
    if (lru_.size() >= cfg_.capacity) {
        index_.erase(lru_.back().key);
        lru_.pop_back();
        ++stat_evictions_;
    }
    lru_.push_front(Node{std::move(key),
                         CacheEntry{epoch, std::move(candidates),
                                    std::move(approx_logits)}});
    index_.emplace(lru_.front().key, lru_.begin());
    ++stat_insertions_;
}

} // namespace enmc::screening
