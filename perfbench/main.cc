/**
 * @file
 * The ENMC performance benchmark harness (see README.md).
 *
 *   perfbench --workload <sim_grid|serve_zipf_refresh|cluster_failover>
 *             --seed N --seconds S --trace 0|1 --work-dir DIR
 *             --reference FILE --golden FILE [--write-reference]
 *
 * Prints a human-readable report, then one JSON line: the end-to-end
 * metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
 * Exits 1 when any operation failed its correctness check, 2 on bad
 * arguments or an unoptimised build.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/kernels.h"

using namespace perfbench;

namespace {

struct WorkloadEntry
{
    const char *name;
    /** Global pool size: fixed per workload so runs compare. */
    unsigned threads;
    int (*run)(const Args &, Report &);
};

// sim_grid is single-threaded simulation; the serving workloads' set-up
// measured steadiest at 1-2 pool threads on a 4-vCPU host.
constexpr WorkloadEntry kWorkloads[] = {
    {"sim_grid", 1, runSimGrid},
    {"serve_zipf_refresh", 2, runServeZipfRefresh},
    {"cluster_failover", 2, runClusterFailover},
};

/** Every per-layer metric, in report order; a workload that does not
 *  exercise a layer reports it as 0. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *clock;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sim_s", "s", "host"},
    {"host.yardstick_ms", "ms", "host"},
    {"dram.reads", "count", "sim"},
    {"dram.row_hit_frac", "frac", "sim"},
    {"dram.read_latency_cycles", "cycles", "sim"},
    {"enmc.cycles", "cycles", "sim"},
    {"enmc.screener_util", "frac", "sim"},
    {"enmc.executor_util", "frac", "sim"},
    {"enmc.ns_per_cycle", "ns/cycle", "host"},
    {"nmp.ns_per_cycle", "ns/cycle", "host"},
    {"runtime.job_ms.enmc", "ms", "host"},
    {"runtime.job_ms.tensordimm", "ms", "host"},
    {"runtime.job_ms.extrapolated", "ms", "host"},
    {"runtime.timing_runs", "count", "exact"},
    {"runtime.forward_ms", "ms", "host"},
    {"runtime.slice_sim_ms", "ms", "host"},
    {"runtime.merge_ms", "ms", "host"},
    {"screening.cache.hit_frac", "frac", "exact"},
    {"screening.project_us", "us", "host"},
    {"screening.refresh_ms", "ms", "host"},
    {"tensor.gemv_int4_us", "us", "host"},
    {"tensor.sigmoid_us", "us", "host"},
    {"tensor.merge_topk_us", "us", "host"},
    {"serve.batch_size", "count", "sim"},
    {"serve.queue_us", "virtual_us", "sim"},
    {"serve.backend_us", "virtual_us", "sim"},
    {"cluster.fanout", "count", "exact"},
    {"cluster.compute_batch_ms", "ms", "host"},
    {"cluster.dead_dispatches", "count", "exact"},
    {"common.pool_jobs_per_batch", "count", "exact"},
    {"sim_err_pct", "%", "sim"},
    {"sim_p50_us", "virtual_us", "sim"},
    {"sim_p99_us", "virtual_us", "sim"},
    {"sim_max_qps", "1/s", "sim"},
    {"trace.overhead_pct", "%", "host"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --reference FILE "
                 "--golden FILE [--write-reference]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--write-reference") {
            a.write_reference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--work-dir") {
            a.work_dir = v;
        } else if (flag == "--reference") {
            a.reference = v;
        } else if (flag == "--golden") {
            a.golden = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad value for " + flag).c_str());
    }
    if (a.workload.empty() || a.work_dir.empty() || a.reference.empty() ||
        a.golden.empty())
        usage("--workload, --work-dir, --reference and --golden are "
              "required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    // Numbers from an unoptimised build are meaningless; refuse them.
    const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef __OPTIMIZE__
    usage("refusing an unoptimised build");
#endif
    if (build_type != "Release" && build_type != "RelWithDebInfo")
        usage(("refusing build type '" + build_type + "'").c_str());

    const WorkloadEntry *entry = nullptr;
    for (const WorkloadEntry &w : kWorkloads)
        if (args.workload == w.name)
            entry = &w;
    if (entry == nullptr)
        usage(("unknown workload " + args.workload).c_str());

    // Size the process-wide pool before anything creates it.
    const std::string threads = std::to_string(entry->threads);
    setenv("ENMC_THREADS", threads.c_str(), 1);

    // The traced run turns on the program's tracer and metrics export.
    enmc::obs::MetricsOptions metrics;
    if (args.trace) {
        const std::string flag = "--metrics-json=" + args.work_dir + "/" +
                                 args.workload + ".metrics.json";
        char *fake_argv[] = {argv[0], const_cast<char *>(flag.c_str())};
        metrics = enmc::obs::initMetrics(2, fake_argv, "perfbench");
        // Workloads enable tracing per timed unit.
        enmc::obs::Tracer::instance().setEnabled(false);
    }

    Report report;
    report.fact("workload", args.workload);
    report.fact("seed", std::to_string(args.seed));
    report.fact("pool_threads", threads);
    report.fact("nproc", std::to_string(std::thread::hardware_concurrency()));
    report.fact("build_type", build_type);
    report.fact("microarch", enmc::tensor::kernels::microarchKey());

    const int rc = entry->run(args, report);

    std::vector<Metric> layers;
    for (const LayerMetric &m : kLayerMetrics)
        layers.push_back({m.name, 0.0, m.unit, m.clock});
    report.completeLayers(layers);
    report.print(args.trace);
    if (args.trace)
        enmc::obs::writeMetrics(metrics);
    return rc;
}
