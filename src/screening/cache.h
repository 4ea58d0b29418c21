/**
 * @file
 * Hot-label candidate cache: exploit Zipfian query skew by short-cutting
 * screening for repeated feature vectors (ROADMAP item 4).
 *
 * Production XC traffic is dominated by a small set of hot queries whose
 * hidden vectors repeat (or near-duplicate into the same INT4 sketch).
 * The screener's integer datapath is a pure function of the quantized
 * projected feature yq = quantize(P h): two requests with bitwise-equal
 * yq produce bitwise-equal approximate logits and therefore the same
 * candidate set. The cache keys on that sketch and remembers
 * (candidate set, approximate logits) so a hit skips the full
 * l-row screening GEMV and goes straight to exact executor rows for the
 * cached candidates.
 *
 * Correctness is preserved by construction, not by hope:
 *  - a hit requires *bitwise* equality of the full sketch (values +
 *    scale + width), never hash equality alone;
 *  - entries are tagged with the screener snapshot epoch that produced
 *    them; an epoch mismatch after a hot-swap is a miss (the entry is
 *    dropped — the old geometry says nothing about the new weights);
 *  - an optional margin validation pass re-screens only the cached
 *    candidate rows and rejects the hit when any cached candidate sits
 *    within `margin` of the FILTER threshold (an invocation-driven
 *    "is the approximate path safe here?" check, per Song et al.);
 *    rejected hits fall back to full screening;
 *  - exact logits for candidate rows are always recomputed from the
 *    *request's own* hidden vector by the caller — only the screening
 *    decision is cached, never FP32 executor output.
 * With margin == 0 a validated hit serves output bit-identical to the
 * uncached path for every request.
 *
 * Single-threaded by design: one cache lives inside one classifier
 * forward path (the serve executor thread). Counters surface through a
 * "screening.cache" StatGroup with the accounting invariants
 *   lookups == hits + misses,          hits == validated + rejected,
 *   screenerBypass == validated,       fullScreens == misses + rejected
 * checked by tools/check_metrics.py.
 */

#ifndef ENMC_SCREENING_CACHE_H
#define ENMC_SCREENING_CACHE_H

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "obs/registry.h"
#include "tensor/matrix.h"
#include "tensor/quantize.h"

namespace enmc::screening {

class Screener;

/** Candidate-cache knobs; parsed from `ENMC_CACHE_*` (fail-loud). */
struct CacheConfig
{
    /** Maximum resident entries; 0 disables the cache entirely. */
    size_t capacity = 0;
    /**
     * Validation margin: a hit is rejected (falls back to full
     * screening) unless every cached candidate row re-screens at least
     * `margin` above the FILTER threshold. 0 accepts every bitwise hit
     * (still bit-identical); larger values trade hit rate for headroom
     * against logit drift between retrains.
     */
    float margin = 0.0f;

    void validate() const;
};

/** `base` with `ENMC_CACHE_CAPACITY` / `ENMC_CACHE_MARGIN` applied. */
CacheConfig cacheConfigFromEnv(CacheConfig base = CacheConfig{});

/** One cached screening decision. */
struct CacheEntry
{
    uint64_t epoch = 0;                //!< screener snapshot that wrote it
    std::vector<uint32_t> candidates;  //!< selected category indices
    /**
     * Full approximate-logit vector z~ (all l categories) as produced by
     * the cached screening pass. Bitwise-valid for any request with the
     * same sketch; candidate rows must still be overwritten with exact
     * logits computed from the live request's hidden vector.
     */
    tensor::Vector approx_logits;
};

/** LRU cache of screening decisions keyed by quantized feature sketches. */
class CandidateCache
{
  public:
    explicit CandidateCache(const CacheConfig &cfg);

    bool enabled() const { return cfg_.capacity > 0; }
    const CacheConfig &config() const { return cfg_; }
    size_t size() const { return lru_.size(); }

    /**
     * Look up the sketch under the given snapshot epoch and validate the
     * hit against the screener (margin re-screen of the cached candidate
     * rows). Returns the entry only for a *validated* hit; a miss,
     * epoch-stale entry, or rejected hit returns nullptr and the caller
     * must run full screening. The returned pointer is invalidated by
     * the next insert().
     *
     * Counter semantics: every call bumps `lookups` and exactly one of
     * {validated (+hits, +screenerBypass), rejected (+hits, +fullScreens),
     * misses (+fullScreens)}.
     */
    const CacheEntry *lookup(const tensor::QuantizedVector &yq,
                             uint64_t epoch, const Screener &screener);

    /**
     * Remember a full screening decision for this sketch. No-op when
     * disabled; replaces any entry with the same sketch; evicts the LRU
     * entry at capacity.
     */
    void insert(const tensor::QuantizedVector &yq, uint64_t epoch,
                std::vector<uint32_t> candidates,
                tensor::Vector approx_logits);

    StatGroup &stats() { return stats_; }

  private:
    struct Key
    {
        std::vector<int8_t> values;
        uint32_t scale_bits = 0;   //!< float scale, bit pattern
        uint8_t bits = 0;          //!< QuantBits numeric value

        bool operator==(const Key &o) const
        {
            return bits == o.bits && scale_bits == o.scale_bits &&
                   values == o.values;
        }
    };

    struct KeyHash
    {
        size_t operator()(const Key &k) const;
    };

    struct Node
    {
        Key key;
        CacheEntry entry;
    };

    static Key makeKey(const tensor::QuantizedVector &yq);
    bool validateEntry(const CacheEntry &entry,
                       const tensor::QuantizedVector &yq,
                       const Screener &screener) const;

    CacheConfig cfg_;
    std::list<Node> lru_;          //!< front == most recently used
    std::unordered_map<Key, std::list<Node>::iterator, KeyHash> index_;

    StatGroup stats_;
    Counter &stat_lookups_;
    Counter &stat_hits_;
    Counter &stat_misses_;
    Counter &stat_validated_;
    Counter &stat_rejected_;
    Counter &stat_insertions_;
    Counter &stat_evictions_;
    Counter &stat_bypass_;
    Counter &stat_full_screens_;
    // Declared last so the group unregisters before any stat dies.
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::screening

#endif // ENMC_SCREENING_CACHE_H
