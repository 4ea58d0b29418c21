/**
 * @file
 * Lightweight statistics package for simulator components.
 *
 * Components register named counters/scalars/histograms with a StatGroup;
 * benches dump groups as aligned text tables. Modeled loosely on gem5's
 * stats package, reduced to what ENMC needs.
 *
 * Groups that should be visible to the process-wide observability layer
 * (JSON metrics export, `StatRegistry` enumeration) additionally hold an
 * `obs::StatRegistration` — see `src/obs/registry.h`.
 */

#ifndef ENMC_COMMON_STATS_H
#define ENMC_COMMON_STATS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace enmc {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(uint64_t n) { value_ += n; return *this; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/** A scalar sample accumulator tracking sum / min / max / count. */
class ScalarStat
{
  public:
    void sample(double v);
    /**
     * `n` samples of `v` at once (a no-op for n == 0). Bit-identical to
     * `n` calls of sample(v) while `v`, `v * n` and the running sum are
     * integers below 2^53, where every double addition is exact: queue
     * occupancies and cycle counts are. Other values may round
     * differently.
     */
    void sample(double v, uint64_t n);
    void reset();

    /** Fold another accumulator's samples into this one. */
    void merge(const ScalarStat &o);

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A fixed-width linear histogram over [lo, hi) with under/overflow bins.
 *
 * Edge semantics (tested in tests/common/test_stats.cc):
 *  - bin i covers [binLo(i), binHi(i)); binHi(numBins()-1) == hi exactly.
 *  - a sample exactly equal to `hi` lands in the overflow bin (the range
 *    is half-open, matching the per-bin intervals);
 *  - interior samples are guarded against floating-point round-off of the
 *    `(v - lo) / width` index computation, so `binLo(i) <= v < binHi(i)`
 *    holds for the selected bin even when `v` sits exactly on a bin edge.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, size_t bins);

    void sample(double v);
    void reset();

    /** Fold another histogram (identical shape required) into this one. */
    void merge(const Histogram &o);

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    uint64_t total() const { return total_; }
    uint64_t bin(size_t i) const { return bins_.at(i); }
    size_t numBins() const { return bins_.size(); }
    uint64_t underflow() const { return underflow_; }
    uint64_t overflow() const { return overflow_; }
    double binLo(size_t i) const;
    double binHi(size_t i) const;

  private:
    double lo_;
    double hi_;
    std::vector<uint64_t> bins_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
};

/**
 * A named collection of statistics owned by one simulator component.
 * Pointers handed out by the add* methods remain valid for the group's
 * lifetime (values are stored in node-stable maps).
 *
 * Stat names are unique per group and kind: registering the same name
 * twice is an assertion failure — two components silently aggregating
 * into one counter (with the second description dropped) was a bug class
 * this package used to permit.
 */
class StatGroup
{
  public:
    struct NamedCounter { Counter value; std::string desc; };
    struct NamedScalar { ScalarStat value; std::string desc; };
    struct NamedHistogram
    {
        NamedHistogram(double lo, double hi, size_t bins, std::string d)
            : value(lo, hi, bins), desc(std::move(d)) {}
        Histogram value;
        std::string desc;
    };

    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    Counter &addCounter(const std::string &name, const std::string &desc);
    ScalarStat &addScalar(const std::string &name, const std::string &desc);
    Histogram &addHistogram(const std::string &name,
                            const std::string &desc, double lo, double hi,
                            size_t bins);

    /** Look up a counter by name; panics if missing. */
    const Counter &counter(const std::string &name) const;
    const ScalarStat &scalar(const std::string &name) const;
    const Histogram &histogram(const std::string &name) const;
    bool hasCounter(const std::string &name) const;
    bool hasScalar(const std::string &name) const;
    bool hasHistogram(const std::string &name) const;

    const std::string &name() const { return name_; }

    /** Stats in name order (for dumps and the metrics exporter). */
    const std::map<std::string, NamedCounter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, NamedScalar> &scalars() const
    {
        return scalars_;
    }
    const std::map<std::string, NamedHistogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * Fold another group's values into this one, stat by stat (creating
     * any stats this group lacks). Used by the StatRegistry to retire the
     * final values of short-lived component groups; unlike the add*
     * methods, same-named stats merge instead of asserting.
     */
    void mergeFrom(const StatGroup &other);

    /** Reset every stat in the group to zero. */
    void reset();

    /** Dump all stats as "<group>.<name> <value> # desc" lines. */
    void dump(std::ostream &os) const;

  private:
    std::string name_;
    std::map<std::string, NamedCounter> counters_;
    std::map<std::string, NamedScalar> scalars_;
    std::map<std::string, NamedHistogram> histograms_;
};

} // namespace enmc

#endif // ENMC_COMMON_STATS_H
