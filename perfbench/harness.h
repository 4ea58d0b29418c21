/**
 * @file
 * Shared plumbing of the ENMC performance benchmark: the run report
 * (metrics, failure accounting, host facts), host-clock helpers, and the
 * per-layer readings taken from the program's own StatGroups and trace
 * spans.
 *
 * Two clocks appear in every report. `host` metrics are wall time or
 * memory of this process; `sim` metrics are simulated DDR cycles or
 * virtual serving time and repeat exactly for a given seed.
 */

#ifndef ENMC_PERFBENCH_HARNESS_H
#define ENMC_PERFBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace perfbench {

/** Command-line arguments (see run.py). */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory inside the checkout (saved screeners, traces). */
    std::string work_dir;
    /** The sim_grid reference file. */
    std::string reference;
    /** tests/golden/fig13_golden.json, for the sim_grid overlap check. */
    std::string golden;
    /** Rewrite `reference` from this run instead of checking it. */
    bool write_reference = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** "host", "sim", or "exact" for deterministic host-side counts. */
    std::string clock;
};

/**
 * Everything one run reports. The JSON line carries the end-to-end
 * metrics with `--trace 0` and the per-layer metrics with `--trace 1`;
 * the human-readable table shows the end-to-end metrics always and the
 * per-layer ones in traced runs.
 */
class Report
{
  public:
    void endToEnd(const std::string &name, double value,
                  const std::string &unit, const std::string &clock);
    void layer(const std::string &name, double value,
               const std::string &unit, const std::string &clock);
    void fact(const std::string &key, const std::string &value);
    /** Informational line printed in the table (not a metric). */
    void note(const std::string &line);

    /**
     * Put the per-layer metrics in `all`'s order, adding each one this
     * workload did not exercise with `all`'s value (0). Aborts on a
     * reported name or unit that `all` does not list.
     */
    void completeLayers(const std::vector<Metric> &all);

    /** Count `n` attempted operations. */
    void attempt(uint64_t n = 1) { attempted_ += n; }
    /** Count one failed operation and say why on stderr. */
    void fail(const std::string &why);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /** Human-readable table, then the one-line JSON result (last line). */
    void print(bool trace) const;

  private:
    std::vector<Metric> e2e_;
    std::vector<Metric> layer_;
    std::vector<std::pair<std::string, std::string>> facts_;
    std::vector<std::string> notes_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Seconds on the steady clock. */
double nowS();

/** Median of a non-empty sample (mean of the middle two when even). */
double median(std::vector<double> v);

/** Peak resident set of this process in MiB (VmHWM). */
double peakRssMb();

/**
 * Per-name totals of host wall spans. Self time is a span's duration
 * minus the part of its interval covered by its child spans (on any
 * thread).
 */
struct SpanTotals
{
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};
using SpanMap = std::map<std::string, SpanTotals>;

/**
 * Fold the spans recorded since the tracer was last enabled into
 * `into`, then clear the tracer. Call before re-enabling it: every
 * enable restarts the trace clock.
 */
void collectSpans(SpanMap &into);

/** Merged-by-name snapshot of every StatGroup (see obs::StatRegistry). */
using StatSnapshot = std::map<std::string, enmc::StatGroup>;
StatSnapshot statSnapshot();

/** A counter's value, 0 when the group or counter is absent. */
uint64_t counterOf(const StatSnapshot &s, const std::string &group,
                   const std::string &name);
/** A scalar stat, or an empty one when absent. */
enmc::ScalarStat scalarOf(const StatSnapshot &s, const std::string &group,
                          const std::string &name);

/** Workload entry points (return the process exit code). */
int runSimGrid(const Args &args, Report &report);
int runServeZipfRefresh(const Args &args, Report &report);
int runClusterFailover(const Args &args, Report &report);

} // namespace perfbench

#endif // ENMC_PERFBENCH_HARNESS_H
