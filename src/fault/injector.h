/**
 * @file
 * Seeded, rate-configurable fault injection for the ENMC memory system.
 *
 * Three fault classes (the ones a rank-level NMP deployment actually
 * sees):
 *  - bit flips on DRAM read data (single/double/multi per 64-bit word,
 *    sampled per-bit from a raw bit-error rate and pushed through the
 *    SECDED(72,64) model in ecc.h when ECC is enabled);
 *  - stuck-at rank failures (every read from a listed rank is
 *    detected-uncorrectable — the failure mode rank blacklisting exists
 *    for);
 *  - dropped or corrupted PRECHARGE-tunneled ENMC instructions (the C/A
 *    encoding carries parity, so both manifest as a failed delivery the
 *    host must repeat).
 *
 * Determinism contract: every sample is a pure function of
 * (seed, stream, index) via splitmix64 hashing — independent of call
 * order, thread count and previous draws. Each rank slice gets its own
 * injector (its own stream), so pooled simulations stay bit-identical
 * to serial ones and a run can be replayed from its seed.
 */

#ifndef ENMC_FAULT_INJECTOR_H
#define ENMC_FAULT_INJECTOR_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.h"
#include "fault/ecc.h"

namespace enmc::fault {

/** Fault-model configuration (all off by default: bit-identical runs). */
struct FaultConfig
{
    bool enabled = false;       //!< master switch
    uint64_t seed = 1;          //!< injection seed (replayable)
    double data_ber = 0.0;      //!< raw per-bit flip probability on reads
    double inst_drop_p = 0.0;   //!< instruction delivery dropped
    double inst_corrupt_p = 0.0; //!< instruction C/A word corrupted
    bool ecc = true;            //!< ECC on read data (master gate)
    /** Codeword scheme protecting Strong-class accesses. */
    EccScheme strong_scheme = EccScheme::Word72;
    /**
     * Codeword scheme protecting Weak-class accesses (the INT4 screener
     * path). Defaults to the same per-word SECDED as Strong, i.e.
     * uniform protection; the differentiated policy sets it to None or a
     * large block code.
     */
    EccScheme weak_scheme = EccScheme::Word72;
    /**
     * Charge the modeled ECC cost on the DDR clock: redundancy read
     * bursts for the check bits and syndrome-decode cycles per codeword.
     * Off by default so timing figures stay bit-identical; the frontier
     * bench turns it on to measure effective bandwidth.
     */
    bool ecc_overhead = false;
    std::vector<uint32_t> stuck_ranks; //!< ranks whose reads always fail

    bool rankStuck(uint32_t rank) const;

    /** The codeword scheme an access of class `cls` is read through. */
    EccScheme schemeFor(Protection cls) const
    {
        if (!ecc || cls == Protection::None)
            return EccScheme::None;
        return cls == Protection::Weak ? weak_scheme : strong_scheme;
    }

    /**
     * Build a config from ENMC_FAULT_* environment variables:
     * ENMC_FAULT=1 (master), ENMC_FAULT_SEED, ENMC_FAULT_BER,
     * ENMC_FAULT_INST_DROP, ENMC_FAULT_INST_CORRUPT, ENMC_FAULT_ECC=0|1,
     * ENMC_FAULT_STRONG_ECC / ENMC_FAULT_WEAK_ECC =
     * none|word72|block512|block1k|block4k, ENMC_FAULT_ECC_OVERHEAD=0|1,
     * ENMC_FAULT_STUCK_RANKS=comma,separated,ids. Every set-but-invalid
     * value is fatal: probabilities outside [0, 1], unknown scheme
     * names, and malformed/duplicate/overflowing rank lists all abort
     * rather than silently misconfigure a resilience experiment.
     */
    static FaultConfig fromEnv();
};

/** Resilience policy applied by the backend layer on top of ECC. */
struct ResilienceConfig
{
    /** Re-runs of a slice that returned detected-uncorrectable data. */
    uint32_t max_retries = 2;
    /** Latency penalty of the first retry; doubles per further attempt. */
    Cycles retry_backoff_cycles = 2048;
    /** Consecutive slice failures before a rank is blacklisted. */
    uint32_t blacklist_after = 2;
    /** Accept approximate-only logits once retries are exhausted. */
    bool degrade = true;
    /**
     * Retry a slice whose only uncorrectable words were Weak-class
     * (screener tile) reads. On by default — uniform protection treats
     * every erasure as retry-worthy. The differentiated policy turns it
     * off: a weak erasure only perturbs the candidate set of an already
     * approximate screen, so re-running the slice buys little accuracy
     * for a full re-read. Strong-class erasures always retry.
     */
    bool retry_weak = true;
    /**
     * Fail-open screening guard for an unprotected weak path, as a
     * multiplier on the expected silent-flip logit perturbation. When
     * the weak (screener) class runs with no ECC and a data BER is
     * armed, the FILTER threshold is lowered by this many units of the
     * typical single-flip perturbation so corrupted true-positives
     * still enter the candidate set — the executor then recomputes
     * them exactly under strong protection. Silent screener corruption
     * can only demote candidates (an inflated logit self-corrects by
     * *becoming* a candidate), so widening the filter is the entire
     * fail-open story. 0 disables the guard. Inert unless faults are
     * enabled with weak protection off.
     */
    double weak_guard = 1.0;
};

/**
 * Bookkeeping of everything the injector did. The accounting invariant
 * (checked by the differential harness) is that every faulty word is
 * classified exactly once: injected_words == corrected + detected +
 * escaped.
 */
struct FaultCounters
{
    uint64_t injected_words = 0;   //!< codewords with >= 1 flip
    uint64_t injected_bits = 0;    //!< raw bit flips injected
    uint64_t single_bit_words = 0; //!< codewords with exactly one flip
    uint64_t corrected = 0;        //!< codewords repaired by ECC
    uint64_t detected = 0;         //!< detected-uncorrectable codewords
    uint64_t escaped = 0;          //!< silent corruption reaching compute
    uint64_t inst_dropped = 0;     //!< instruction deliveries dropped
    uint64_t inst_corrupted = 0;   //!< instruction deliveries corrupted
    uint64_t stuck_reads = 0;      //!< reads served by a stuck rank

    /**
     * The same classification, split by the requesting access's
     * protection class (indexed by Protection). The aggregates above are
     * always the sums of the rows, so the classic invariant holds both
     * in total and per class.
     */
    struct ClassCounters
    {
        uint64_t injected = 0;
        uint64_t corrected = 0;
        uint64_t detected = 0;
        uint64_t escaped = 0;

        bool operator==(const ClassCounters &) const = default;
    };
    ClassCounters per_class[kNumProtectionClasses];

    ClassCounters &forClass(Protection cls)
    {
        return per_class[static_cast<size_t>(cls)];
    }
    const ClassCounters &forClass(Protection cls) const
    {
        return per_class[static_cast<size_t>(cls)];
    }

    FaultCounters &operator+=(const FaultCounters &o);
    /** Subtract a baseline snapshot (delta accounting for shared streams). */
    FaultCounters &operator-=(const FaultCounters &o);
    bool operator==(const FaultCounters &) const = default;

    /** Every faulty word classified exactly once? */
    bool balanced() const
    {
        return injected_words == corrected + detected + escaped;
    }

    /** balanced(), but checked within every protection class. */
    bool classesBalanced() const
    {
        for (const ClassCounters &c : per_class)
            if (c.injected != c.corrected + c.detected + c.escaped)
                return false;
        return true;
    }
};

/** One seeded fault stream (one per rank slice / simulated component). */
class FaultInjector
{
  public:
    /** @param stream Distinguishes independent streams of one seed. */
    explicit FaultInjector(const FaultConfig &cfg, uint64_t stream = 0);

    const FaultConfig &config() const { return cfg_; }
    bool enabled() const { return cfg_.enabled; }
    uint64_t stream() const { return stream_; }

    /**
     * Read one 64-bit word through the fault + ECC model of the scheme
     * protecting `cls` (word-granular schemes only; block schemes go
     * through readBuffer). `index` must be unique per architectural read
     * (same index -> same outcome).
     * @param uncorrectable Set true when ECC detected an uncorrectable
     *        error (returned data is the raw corrupted word).
     * @return the word as delivered to the compute units.
     */
    uint64_t readWord(uint64_t word, uint64_t index, bool *uncorrectable,
                      Protection cls = Protection::Strong);

    /**
     * Read a byte buffer through the scheme protecting `cls`.
     * Word-granular schemes process it word-by-word (tail bytes are
     * zero-padded into a final word); block schemes classify whole
     * codeword-sized chunks, so one uncorrectable block erases every
     * word in it. Detected-uncorrectable data is zeroed (erasure) —
     * callers decide whether to retry or degrade.
     * @param index_base First word index; the call consumes
     *        ceil(bytes/8) indices regardless of scheme.
     * @return number of detected-uncorrectable 64-bit words.
     */
    uint64_t readBuffer(std::span<uint8_t> bytes, uint64_t index_base,
                        Protection cls = Protection::Strong);

    /** Fate of one instruction-delivery attempt. */
    enum class InstFate { Deliver, Drop, Corrupt };

    /** Sample (and count) the fate of delivery attempt `attempt`. */
    InstFate instructionFate(uint64_t attempt);

    /** Per-outcome word counts of a data-less (timing-only) read burst. */
    struct BurstOutcome
    {
        uint64_t corrected = 0;
        uint64_t detected = 0;
        uint64_t escaped = 0;
    };

    /**
     * Classify `words` 64-bit words of a timing-only read burst under
     * the scheme protecting `cls`, without touching this injector's
     * counters (callers keep their own stats — the dram::Controller
     * surfaces these through its StatGroup). Block schemes classify
     * ceil(words * 8 / block bytes) codewords; outcome counts are in
     * codewords.
     */
    BurstOutcome classifyBurst(uint64_t words, uint64_t index_base,
                               Protection cls = Protection::Strong) const;

    FaultCounters &counters() { return counters_; }
    const FaultCounters &counters() const { return counters_; }

  private:
    /** Uniform double in [0, 1), pure in (seed, stream, index, salt). */
    double uniformAt(uint64_t index, uint64_t salt) const;
    /** Binomial draw: flips among `nbits` bits at the configured BER. */
    int sampleFlipCount(uint64_t index, int nbits) const;
    /** The k distinct flipped bit positions for word `index`. */
    void sampleFlipBits(uint64_t index, int nbits, int k, int *out) const;
    /** Fault one word; classification only (no counter updates). */
    uint64_t faultWord(uint64_t word, uint64_t index, int k, EccScheme scheme,
                       bool *uncorrectable, bool *silent) const;
    /** Block-codeword path of readBuffer (scheme is a Block* size). */
    uint64_t readBufferBlocks(std::span<uint8_t> bytes, uint64_t index_base,
                              Protection cls, EccScheme scheme);

    FaultConfig cfg_;
    uint64_t stream_;
    FaultCounters counters_;
};

} // namespace enmc::fault

#endif // ENMC_FAULT_INJECTOR_H
