/**
 * @file
 * Workload `sim_grid`: `runtime::Backend::runJob` over the paper's
 * Fig. 13 grid, timed on the host clock and checked on the simulated
 * clock.
 *
 * The grid is the 4 Table 2 workloads x batch {1, 2, 4} on `enmc` (at
 * the tightened NMP candidate budget) and on `tensordimm` (at the Fig. 11
 * budget, as bench/fig13_performance runs them), plus `enmc` on
 * S1M/S10M/S100M at batch 1, which goes through `runTiming`'s
 * `max_sim_tiles` extrapolation. `cpu-full` is the analytic reference
 * every speed-up is taken over.
 *
 * Single-threaded simulator calls are bimodal within one process, so a
 * run makes as many passes over the grid as its time allows, each in a
 * seed-shuffled order rotated by one job per pass, and takes every job's
 * median. The host's own speed swings by up to 1.8x, so `req_host_ms`
 * and `setup_s` take each unit's time scaled by the host-speed yardstick
 * run beside it (ScaledTimer); `sim_s` and the per-layer times stay wall
 * time. Every pass must reproduce the reference file's simulated cycles
 * and rank/DRAM counters exactly.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>

#include "common/rng.h"
#include "harness.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/backend.h"
#include "workloads/registry.h"

namespace perfbench {

using enmc::obs::Json;

namespace {

/** The paper's Fig. 13 ENMC geomean over the CPU-full baseline. */
constexpr double kPaperEnmcGeomean = 56.5;

/** Keeps the yardstick's result live, so the kernel is not optimised out. */
volatile uint64_t yardstick_sink;

/**
 * The host-speed yardstick: a fixed scalar integer kernel (eight
 * independent multiply chains) that returns its wall ms. On a VM whose
 * physical cores other tenants share, a neighbour on the same core
 * slowed the tick loop by up to 1.8x for seconds to minutes at a time.
 * This kernel slows with it, so the ratio of the two stays put
 * (README.md, "Scaled host time").
 */
double
yardstickMs()
{
    const double t0 = nowS();
    uint64_t s[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < 660000; ++i)
        for (int k = 0; k < 8; ++k)
            s[k] = s[k] * 6364136223846793005ull + (s[(k + 1) & 7] >> 29);
    uint64_t x = 0;
    for (const uint64_t v : s)
        x ^= v;
    yardstick_sink = x;
    return (nowS() - t0) * 1e3;
}

/** Scaled times read as wall time on a host where yardstickMs() takes
 *  this long. */
constexpr double kYardstickRefMs = 5.0;

struct Timed
{
    double wall_s = 0.0;
    double scaled_s = 0.0; //!< wall_s at the reference host speed
};

/**
 * Times single-threaded units of work and scales each to the reference
 * host speed: the yardstick runs right before and right after the unit,
 * and the unit's wall time is multiplied by kYardstickRefMs over the
 * mean of the two readings. Suits units short enough (well under a
 * second) that the host's speed barely moves while one runs.
 */
class ScaledTimer
{
  public:
    template <typename Fn>
    Timed time(Fn &&fn)
    {
        const double before = yardstickMs();
        const double t0 = nowS();
        fn();
        Timed t;
        t.wall_s = nowS() - t0;
        const double after = yardstickMs();
        yard_ms_.push_back(before);
        yard_ms_.push_back(after);
        t.scaled_s = t.wall_s * kYardstickRefMs / (0.5 * (before + after));
        return t;
    }

    /** Median yardstick reading so far (ms). */
    double yardstickMedianMs() const { return median(yard_ms_); }

  private:
    std::vector<double> yard_ms_;
};

enum class JobClass { Enmc, TensorDimm, Extrapolated };

struct GridJob
{
    std::string key;            //!< "<backend>/<workload>/b<batch>"
    JobClass cls = JobClass::Enmc;
    const enmc::runtime::Backend *backend = nullptr;
    enmc::runtime::JobSpec spec;
    double cpu_full_s = 0.0;    //!< analytic reference, same job
    std::string golden_key;     //!< tests/golden/fig13_golden.json key
    std::vector<double> host_s; //!< one sample per pass
    std::vector<double> scaled_s; //!< host_s at the reference host speed
    enmc::runtime::TimingResult result;
    Json fingerprint;
};

enmc::runtime::JobSpec
jobSpec(const enmc::workloads::Workload &w, uint64_t batch, bool nmp_budget)
{
    enmc::runtime::JobSpec spec;
    spec.categories = w.categories;
    spec.hidden = w.hidden;
    spec.reduced = std::max<uint64_t>(1, w.hidden / 4);
    spec.batch = batch;
    spec.candidates = nmp_budget ? w.nmpCandidates() : w.candidates;
    spec.sigmoid = w.normalization == enmc::nn::Normalization::Sigmoid;
    return spec;
}

Json
readJson(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
        std::exit(2);
    }
    std::stringstream ss;
    ss << is.rdbuf();
    Json out;
    std::string err;
    if (!Json::parse(ss.str(), out, &err)) {
        std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(),
                     err.c_str());
        std::exit(2);
    }
    return out;
}

/**
 * Everything simulated about one job: the timing result and every
 * counter of the rank and DRAM stat groups the job touched.
 */
Json
fingerprintOf(const enmc::runtime::TimingResult &r)
{
    Json f = Json::object();
    f.set("seconds", r.seconds);
    f.set("rank_cycles", r.rank_cycles);
    f.set("extrapolated", r.extrapolated);
    f.set("rank.cycles", r.rank.cycles);
    f.set("rank.instructions", r.rank.instructions);
    f.set("rank.screen_bytes", r.rank.screen_bytes);
    f.set("rank.exec_bytes", r.rank.exec_bytes);
    f.set("rank.candidates", r.rank.candidates);
    f.set("rank.screener_busy", r.rank.screener_busy);
    f.set("rank.executor_busy", r.rank.executor_busy);
    f.set("rank.dram_reads", r.rank.dram_reads);
    f.set("rank.dram_acts", r.rank.dram_acts);
    f.set("rank.dram_refs", r.rank.dram_refs);
    for (const auto &[name, group] : statSnapshot()) {
        if (name.rfind("enmc.rank", 0) != 0 && name.rfind("nmp.", 0) != 0)
            continue;
        for (const auto &[cname, c] : group.counters())
            f.set(name + "." + cname, c.value.value());
        for (const auto &[sname, s] : group.scalars()) {
            f.set(name + "." + sname + ".count", s.value.count());
            f.set(name + "." + sname + ".sum", s.value.sum());
        }
    }
    return f;
}

/** Differences between two fingerprints, as "field a != b" lines. */
std::vector<std::string>
diff(const Json &want, const Json &got)
{
    std::vector<std::string> out;
    for (const auto &[k, v] : want.members()) {
        const Json *g = got.find(k);
        if (g == nullptr) {
            out.push_back(k + " missing");
        } else if (g->dump() != v.dump()) {
            out.push_back(k + " " + v.dump() + " != " + g->dump());
        }
    }
    for (const auto &[k, v] : got.members())
        if (!want.has(k))
            out.push_back(k + " unexpected");
    return out;
}

struct Grid
{
    std::unique_ptr<enmc::runtime::Backend> enmc_backend;
    std::unique_ptr<enmc::runtime::Backend> tensordimm;
    std::unique_ptr<enmc::runtime::Backend> cpu_full;
    std::vector<GridJob> jobs;
    Json reference;
    Json golden;
};

/** Backends, jobs, analytic references and the reference files. */
std::unique_ptr<Grid>
setUp(const Args &args)
{
    namespace rt = enmc::runtime;
    auto g = std::make_unique<Grid>();
    g->enmc_backend = rt::createBackend("enmc");
    g->tensordimm = rt::createBackend("tensordimm");
    g->cpu_full = rt::createBackend("cpu-full");

    const auto table2 = enmc::workloads::table2Workloads();
    auto add = [&](std::string key, JobClass cls, const rt::Backend *backend,
                   const rt::JobSpec &spec, double cpu_full,
                   std::string golden_key) {
        GridJob j;
        j.key = std::move(key);
        j.cls = cls;
        j.backend = backend;
        j.spec = spec;
        j.cpu_full_s = cpu_full;
        j.golden_key = std::move(golden_key);
        g->jobs.push_back(std::move(j));
    };
    for (size_t wi = 0; wi < table2.size(); ++wi) {
        const auto &w = table2[wi];
        for (const uint64_t batch : {1ull, 2ull, 4ull}) {
            const std::string suffix =
                "/" + w.abbr + "/b" + std::to_string(batch);
            const std::string golden_prefix =
                "w" + std::to_string(wi) + "_b" + std::to_string(batch);
            const double cpu_full =
                g->cpu_full->runJob(jobSpec(w, batch, false)).seconds;
            add("enmc" + suffix, JobClass::Enmc, g->enmc_backend.get(),
                jobSpec(w, batch, true), cpu_full, golden_prefix + "_enmc");
            add("tensordimm" + suffix, JobClass::TensorDimm,
                g->tensordimm.get(), jobSpec(w, batch, false), cpu_full,
                golden_prefix + "_tensordimm");
        }
    }
    for (const auto &w : enmc::workloads::scalabilityWorkloads()) {
        const double cpu_full =
            g->cpu_full->runJob(jobSpec(w, 1, false)).seconds;
        add("enmc/" + w.abbr + "/b1", JobClass::Extrapolated,
            g->enmc_backend.get(), jobSpec(w, 1, true), cpu_full, "");
    }

    g->reference = args.write_reference ? Json::object()
                                        : readJson(args.reference);
    g->golden = readJson(args.golden);

    // Lazy first-use costs (allocator arenas, code pages) land here, not
    // on the first timed job: one run of the smallest job per backend.
    for (const rt::Backend *b : {g->enmc_backend.get(), g->tensordimm.get()}) {
        rt::JobSpec warm = g->jobs.front().spec;
        warm.categories = 4096;
        b->runJob(warm);
    }
    return g;
}

double
geomeanSpeedup(const std::vector<GridJob> &jobs)
{
    double log_sum = 0.0;
    int n = 0;
    for (const GridJob &j : jobs) {
        if (j.cls != JobClass::Enmc) // the 12 Table 2 ENMC jobs
            continue;
        log_sum += std::log(j.cpu_full_s / j.result.seconds);
        ++n;
    }
    return std::exp(log_sum / n);
}

} // namespace

int
runSimGrid(const Args &args, Report &report)
{
    enmc::obs::StatRegistry &registry = enmc::obs::StatRegistry::instance();

    // Set-up is repeated and its median reported; the last one is kept.
    // It takes ~0.1 s, so 15 repetitions cost little and steady the median.
    ScaledTimer timer;
    std::vector<double> setup_s;
    std::unique_ptr<Grid> grid;
    for (int i = 0; i < 15; ++i) {
        grid.reset();
        setup_s.push_back(timer.time([&] { grid = setUp(args); }).scaled_s);
    }
    std::vector<GridJob> &jobs = grid->jobs;

    // Seed-shuffled job order; pass p rotates it by p.
    std::vector<size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), 0);
    enmc::Rng rng(args.seed);
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1],
                  order[static_cast<size_t>(rng.uniformInt(
                      0, static_cast<int64_t>(i) - 1))]);

    enmc::obs::Tracer &tracer = enmc::obs::Tracer::instance();
    std::vector<double> pass_s[2]; // [traced] -> pass wall times
    const double start = nowS();
    size_t passes = 0;
    double last_pass = 0.0;
    // Passes while the next one still fits in the run's time; at least
    // one, and in a traced run one traced and one untraced, so the
    // tracing overhead has both sides.
    while (passes < (args.trace ? 2u : 1u) ||
           nowS() - start + last_pass <= args.seconds) {
        const bool traced = args.trace && passes % 2 == 0;
        tracer.setEnabled(traced);
        double pass_host = 0.0;
        for (size_t k = 0; k < order.size(); ++k) {
            GridJob &job = jobs[order[(k + passes) % order.size()]];
            registry.resetAll();
            enmc::runtime::TimingResult r;
            const Timed t = timer.time([&] {
                enmc::obs::TraceSpan span("bench.runJob", "bench");
                r = job.backend->runJob(job.spec);
            });
            job.host_s.push_back(t.wall_s);
            job.scaled_s.push_back(t.scaled_s);
            pass_host += t.wall_s;
            report.attempt();

            const Json f = fingerprintOf(r);
            if (passes == 0) {
                job.result = r;
                job.fingerprint = f;
                if (args.write_reference)
                    grid->reference.set(job.key, f);
            }
            const Json *ref = grid->reference.find(job.key);
            const std::vector<std::string> d =
                ref ? diff(*ref, f)
                    : std::vector<std::string>{"no reference entry"};
            if (!d.empty())
                report.fail(job.key + ": " + d.front() + " (" +
                            std::to_string(d.size()) + " fields differ)");
            else if (passes > 0 && !diff(job.fingerprint, f).empty())
                report.fail(job.key + ": differs from pass 1");
        }
        tracer.setEnabled(false);
        if (traced) {
            // No per-layer reading comes from sim_grid's spans; dropping
            // them keeps a long traced run's memory flat.
            SpanMap ignored;
            collectSpans(ignored);
        }
        pass_s[traced ? 1 : 0].push_back(pass_host);
        last_pass = pass_host;
        ++passes;
    }

    if (args.write_reference) {
        std::ofstream os(args.reference);
        grid->reference.write(os, 1);
        os << "\n";
    }

    // Golden overlap: the speed-ups the tier-1 golden test pins.
    for (const GridJob &j : jobs) {
        if (j.golden_key.empty())
            continue;
        const Json *want = grid->golden.find(j.golden_key);
        if (want == nullptr)
            continue;
        report.attempt();
        const double got = j.cpu_full_s / j.result.seconds;
        if (got != want->asDouble())
            report.fail(j.key + ": speed-up " + std::to_string(got) +
                        " != golden " + std::to_string(want->asDouble()));
    }

    double sim_s = 0.0, scaled_sim_s = 0.0;
    std::vector<double> cls_ms[3];
    double enmc_ns = 0.0, enmc_cycles = 0.0, nmp_ns = 0.0, nmp_cycles = 0.0;
    for (const GridJob &j : jobs) {
        const double med = median(j.host_s);
        sim_s += med;
        scaled_sim_s += median(j.scaled_s);
        cls_ms[static_cast<int>(j.cls)].push_back(med * 1e3);
        if (j.result.extrapolated)
            continue;
        const double cycles = static_cast<double>(j.result.rank_cycles);
        if (j.cls == JobClass::Enmc) {
            enmc_ns += med * 1e9;
            enmc_cycles += cycles;
        } else if (j.cls == JobClass::TensorDimm) {
            nmp_ns += med * 1e9;
            nmp_cycles += cycles;
        }
    }

    const double geomean = geomeanSpeedup(jobs);
    const double err_pct = std::fabs(geomean / kPaperEnmcGeomean - 1.0) * 1e2;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "grid: %zu jobs x %zu passes, sim_s %.3f s; ENMC Fig. 13 "
                  "geomean %.1fx vs paper %.1fx",
                  jobs.size(), passes, sim_s, geomean, kPaperEnmcGeomean);
    report.note(line);
    std::string per_pass = "host s per pass:";
    for (const double t : pass_s[0]) {
        std::snprintf(line, sizeof(line), " %.3f", t);
        per_pass += line;
    }
    report.note(per_pass);
    std::snprintf(line, sizeof(line),
                  "wall ms per job %.3f; yardstick median %.3f ms "
                  "(reference %.1f ms)",
                  sim_s * 1e3 / jobs.size(), timer.yardstickMedianMs(),
                  kYardstickRefMs);
    report.note(line);

    report.endToEnd("setup_s", median(setup_s), "s", "host");
    report.endToEnd("peak_rss_mb", peakRssMb(), "MiB", "host");
    report.endToEnd("req_host_ms", scaled_sim_s * 1e3 / jobs.size(), "ms",
                    "host");

    report.layer("sim_s", sim_s, "s", "host");
    report.layer("host.yardstick_ms", timer.yardstickMedianMs(), "ms",
                 "host");

    // Simulated per-layer readings from the ENMC jobs of pass 1.
    double reads = 0, hits = 0, lat_sum = 0, lat_n = 0, cycles = 0;
    double su_sum = 0, eu_sum = 0, util_n = 0;
    for (const GridJob &j : jobs) {
        if (j.cls == JobClass::TensorDimm)
            continue;
        const Json &f = j.fingerprint;
        auto num = [&](const std::string &k) {
            const Json *v = f.find(k);
            return v ? v->asDouble() : 0.0;
        };
        reads += num("enmc.rank.dram.reads");
        hits += num("enmc.rank.dram.rowHits");
        lat_sum += num("enmc.rank.dram.readLatency.sum");
        lat_n += num("enmc.rank.dram.readLatency.count");
        cycles += num("enmc.rank.cycles.sum");
        su_sum += num("enmc.rank.screenerUtil.sum");
        eu_sum += num("enmc.rank.executorUtil.sum");
        util_n += num("enmc.rank.screenerUtil.count");
    }
    report.layer("dram.reads", reads, "count", "sim");
    report.layer("dram.row_hit_frac", reads ? hits / reads : 0.0, "frac",
                 "sim");
    report.layer("dram.read_latency_cycles", lat_n ? lat_sum / lat_n : 0.0,
                 "cycles", "sim");
    report.layer("enmc.cycles", cycles, "cycles", "sim");
    report.layer("enmc.screener_util", util_n ? su_sum / util_n : 0.0,
                 "frac", "sim");
    report.layer("enmc.executor_util", util_n ? eu_sum / util_n : 0.0,
                 "frac", "sim");
    report.layer("enmc.ns_per_cycle", enmc_ns / enmc_cycles, "ns/cycle",
                 "host");
    report.layer("nmp.ns_per_cycle", nmp_ns / nmp_cycles, "ns/cycle",
                 "host");
    report.layer("runtime.job_ms.enmc", median(cls_ms[0]), "ms", "host");
    report.layer("runtime.job_ms.tensordimm", median(cls_ms[1]), "ms",
                 "host");
    report.layer("runtime.job_ms.extrapolated", median(cls_ms[2]), "ms",
                 "host");
    // One runTiming per ENMC job per pass: the grid has no timing memo.
    report.layer("runtime.timing_runs",
                 static_cast<double>(cls_ms[0].size() + cls_ms[2].size()),
                 "count", "exact");
    report.layer("sim_err_pct", err_pct, "%", "sim");
    report.layer("trace.overhead_pct",
                 args.trace ? (median(pass_s[1]) / median(pass_s[0]) - 1.0) *
                                  1e2
                            : 0.0,
                 "%", "host");
    return report.failed() == 0 ? 0 : 1;
}

} // namespace perfbench
