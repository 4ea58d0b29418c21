#include "common/stats.h"

#include <iomanip>

#include "common/logging.h"

namespace enmc {

void
ScalarStat::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    sum_ += v;
    ++count_;
}

void
ScalarStat::sample(double v, uint64_t n)
{
    if (n == 0)
        return;
    sample(v);
    sum_ += v * static_cast<double>(n - 1);
    count_ += n - 1;
}

void
ScalarStat::reset()
{
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

void
ScalarStat::merge(const ScalarStat &o)
{
    if (o.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = o.min_;
        max_ = o.max_;
    } else {
        if (o.min_ < min_)
            min_ = o.min_;
        if (o.max_ > max_)
            max_ = o.max_;
    }
    sum_ += o.sum_;
    count_ += o.count_;
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), bins_(bins, 0)
{
    ENMC_ASSERT(hi > lo && bins > 0, "bad histogram shape");
}

void
Histogram::sample(double v)
{
    ++total_;
    if (v < lo_) {
        ++underflow_;
    } else if (v >= hi_) {
        // Exact v == hi_ is overflow: bins are half-open [binLo, binHi).
        ++overflow_;
    } else {
        const double width = (hi_ - lo_) / bins_.size();
        size_t idx = static_cast<size_t>((v - lo_) / width);
        if (idx >= bins_.size())
            idx = bins_.size() - 1;
        // The division can land one bin off when v sits on (or within one
        // ulp of) a bin edge; nudge so binLo(idx) <= v < binHi(idx) holds
        // against the exact same edge arithmetic binLo/binHi report.
        if (v < binLo(idx) && idx > 0)
            --idx;
        else if (v >= binHi(idx) && idx + 1 < bins_.size())
            ++idx;
        ++bins_[idx];
    }
}

void
Histogram::reset()
{
    for (auto &b : bins_)
        b = 0;
    underflow_ = overflow_ = total_ = 0;
}

void
Histogram::merge(const Histogram &o)
{
    ENMC_ASSERT(o.lo_ == lo_ && o.hi_ == hi_ &&
                    o.bins_.size() == bins_.size(),
                "merging histograms of different shape");
    for (size_t i = 0; i < bins_.size(); ++i)
        bins_[i] += o.bins_[i];
    underflow_ += o.underflow_;
    overflow_ += o.overflow_;
    total_ += o.total_;
}

double
Histogram::binLo(size_t i) const
{
    return lo_ + i * (hi_ - lo_) / bins_.size();
}

double
Histogram::binHi(size_t i) const
{
    // The top edge is exactly hi (not lo + n*width, which can differ by
    // one ulp) so callers can rely on binHi(numBins()-1) == hi.
    return i + 1 == bins_.size() ? hi_ : binLo(i + 1);
}

Counter &
StatGroup::addCounter(const std::string &name, const std::string &desc)
{
    auto [it, inserted] = counters_.try_emplace(name);
    ENMC_ASSERT(inserted, "duplicate counter registration ", name_, ".",
                name);
    it->second.desc = desc;
    return it->second.value;
}

ScalarStat &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    auto [it, inserted] = scalars_.try_emplace(name);
    ENMC_ASSERT(inserted, "duplicate scalar registration ", name_, ".",
                name);
    it->second.desc = desc;
    return it->second.value;
}

Histogram &
StatGroup::addHistogram(const std::string &name, const std::string &desc,
                        double lo, double hi, size_t bins)
{
    auto [it, inserted] =
        histograms_.try_emplace(name, lo, hi, bins, desc);
    ENMC_ASSERT(inserted, "duplicate histogram registration ", name_, ".",
                name);
    return it->second.value;
}

const Counter &
StatGroup::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    if (it == counters_.end())
        ENMC_PANIC("unknown counter ", name_, ".", name);
    return it->second.value;
}

const ScalarStat &
StatGroup::scalar(const std::string &name) const
{
    auto it = scalars_.find(name);
    if (it == scalars_.end())
        ENMC_PANIC("unknown scalar ", name_, ".", name);
    return it->second.value;
}

const Histogram &
StatGroup::histogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        ENMC_PANIC("unknown histogram ", name_, ".", name);
    return it->second.value;
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    return counters_.count(name) > 0;
}

bool
StatGroup::hasScalar(const std::string &name) const
{
    return scalars_.count(name) > 0;
}

bool
StatGroup::hasHistogram(const std::string &name) const
{
    return histograms_.count(name) > 0;
}

void
StatGroup::mergeFrom(const StatGroup &other)
{
    for (const auto &[name, c] : other.counters_) {
        auto [it, inserted] = counters_.try_emplace(name);
        if (inserted)
            it->second.desc = c.desc;
        it->second.value += c.value.value();
    }
    for (const auto &[name, s] : other.scalars_) {
        auto [it, inserted] = scalars_.try_emplace(name);
        if (inserted)
            it->second.desc = s.desc;
        it->second.value.merge(s.value);
    }
    for (const auto &[name, h] : other.histograms_) {
        auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            it = histograms_
                     .emplace(std::piecewise_construct,
                              std::forward_as_tuple(name),
                              std::forward_as_tuple(
                                  h.value.lo(), h.value.hi(),
                                  h.value.numBins(), h.desc))
                     .first;
        }
        it->second.value.merge(h.value);
    }
}

void
StatGroup::reset()
{
    for (auto &[name, c] : counters_)
        c.value.reset();
    for (auto &[name, s] : scalars_)
        s.value.reset();
    for (auto &[name, h] : histograms_)
        h.value.reset();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[name, c] : counters_) {
        os << std::left << std::setw(40) << (name_ + "." + name)
           << std::right << std::setw(16) << c.value.value()
           << "  # " << c.desc << "\n";
    }
    for (const auto &[name, s] : scalars_) {
        os << std::left << std::setw(40) << (name_ + "." + name)
           << std::right << std::setw(16) << s.value.mean()
           << "  # mean of " << s.value.count() << " samples; " << s.desc
           << "\n";
    }
    for (const auto &[name, h] : histograms_) {
        os << std::left << std::setw(40) << (name_ + "." + name)
           << std::right << std::setw(16) << h.value.total()
           << "  # histogram [" << h.value.lo() << ", " << h.value.hi()
           << ") x" << h.value.numBins() << "; " << h.desc << "\n";
        for (size_t i = 0; i < h.value.numBins(); ++i) {
            if (h.value.bin(i) == 0)
                continue;
            os << std::left << std::setw(40)
               << (name_ + "." + name + "[" + std::to_string(i) + "]")
               << std::right << std::setw(16) << h.value.bin(i) << "  # ["
               << h.value.binLo(i) << ", " << h.value.binHi(i) << ")\n";
        }
    }
}

} // namespace enmc
