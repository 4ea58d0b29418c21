/**
 * @file
 * Language-model inference "server": a stream of single-token
 * classification requests (batch 1, the paper's low-latency case),
 * driven through the serve layer (src/serve/) in deterministic replay
 * mode and reported per backend.
 *
 * Request latency varies with the candidate count the FILTER selects —
 * hot prompts (sharp logit distributions) pass fewer categories than
 * cold ones — so the distribution, not just the mean, is the serving
 * metric that matters. The serve loop owns what this example used to
 * hand-roll: the leading requests are flagged warm-up and excluded from
 * every percentile (cold-start allocations and cache misses were
 * previously timed together with steady-state requests, biasing the
 * tail), and each latency decomposes into time-in-queue plus
 * time-in-backend.
 *
 * Usage: lm_inference_server [backend ...] [--metrics-json=FILE]
 *   e.g. `lm_inference_server enmc tensordimm cpu`
 *   (no backend arguments = enmc + tensordimm + cpu + cpu-full)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/percentiles.h"
#include "obs/registry.h"
#include "runtime/api.h"
#include "serve/loop.h"
#include "workloads/registry.h"

using namespace enmc;

int
main(int argc, char **argv)
{
    const obs::MetricsOptions metrics =
        obs::initMetrics(argc, argv, "lm_inference_server");

    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--", 0) == 0)
            continue; // observability flags, not backend names
        names.push_back(argv[i]);
    }
    if (names.empty())
        names = {"enmc", "tensordimm", "cpu", "cpu-full"};

    const size_t warmup = 4;
    const size_t measured = 48;
    serve::ServeConfig cfg;
    cfg.max_batch = 1; // single-token low-latency serving
    cfg.max_delay_us = 0.0;
    cfg.warmup_requests = warmup;
    cfg.compute_logits = false; // logits are computed at functional scale
    // Reject a bad backend name before the calibration pays for a model.
    for (const auto &n : names) {
        serve::ServeConfig backend_cfg = cfg;
        backend_cfg.backend = n;
        serve::validate(backend_cfg);
    }

    const workloads::Workload wl =
        workloads::findWorkload("Transformer-W268K");
    std::printf("serving %s: l=%llu categories, d=%llu\n", wl.abbr.c_str(),
                static_cast<unsigned long long>(wl.categories),
                static_cast<unsigned long long>(wl.hidden));

    // The server's own observable state: FILTER candidate counts at
    // functional scale, exported with every component group.
    StatGroup server_stats("example.lmServer");
    obs::StatRegistration server_reg(server_stats);
    Counter &served = server_stats.addCounter("requests", "requests served");
    Histogram &cand_hist = server_stats.addHistogram(
        "candidates", "FILTER candidate count per request (functional "
                      "scale)", 0, 1024, 16);

    // Functional-scale model for candidate-count realism; per-request
    // timing is then simulated at full scale with the measured counts.
    workloads::SyntheticModel model(wl.functionalConfig());
    Rng rng = model.makeRng(5);
    runtime::ClassifierOptions options;
    options.candidates = 128;
    runtime::EnmcClassifier clf(model.classifier(),
                                runtime::classifierOptionsFromEnv(options));
    clf.calibrate(model.sampleHiddenBatch(rng, 256),
                  model.sampleHiddenBatch(rng, 64));

    // Measure each request's candidate count once at functional scale
    // and build one arrival trace every backend replays: single-token
    // requests arriving far apart (the low-latency regime — no
    // co-travellers to batch with), the first few flagged warm-up.
    serve::ArrivalTrace trace;
    for (size_t i = 0; i < warmup + measured; ++i) {
        const auto h = model.sampleHiddenBatch(rng, 1);
        const auto out = clf.forward(h, 1);
        const double cand_frac =
            static_cast<double>(out[0].candidates.size()) /
            model.classifier().categories();
        cand_hist.sample(static_cast<double>(out[0].candidates.size()));

        serve::Request r;
        r.id = i;
        r.arrival_us = static_cast<double>(i) * 10e3; // idle server
        r.candidates = std::max<uint64_t>(
            1, static_cast<uint64_t>(cand_frac * wl.categories));
        trace.requests.push_back(r);
    }

    runtime::JobSpec job;
    job.categories = wl.categories;
    job.hidden = wl.hidden;
    job.reduced = wl.hidden / 4;
    job.sigmoid = wl.normalization == nn::Normalization::Sigmoid;

    std::printf("\nlatency over %zu requests (+%zu warm-up, excluded), "
                "per backend (us, incl. %.0f us offload handoff):\n",
                measured, warmup, cfg.handoff_us);
    std::printf("  %-18s %9s %9s %9s %9s %9s %12s\n", "backend", "mean",
                "p50", "p95", "p99", "max", "req/s");

    double enmc_p50 = 0.0, cpu_full_p50 = 0.0;
    for (const auto &name : names) {
        serve::ServeConfig backend_cfg = cfg;
        backend_cfg.backend = name;
        serve::ServeLoop loop(backend_cfg, job);
        const serve::ServeReport report = loop.replay(trace);
        served += report.measuredCount();

        const obs::Percentiles pct = report.measuredLatency();
        std::printf("  %-18s %9.1f %9.1f %9.1f %9.1f %9.1f %12.0f\n",
                    name.c_str(), pct.mean(), pct.at(0.50), pct.at(0.95),
                    pct.at(0.99), pct.max(), 1e6 / pct.mean());
        if (name == "enmc")
            enmc_p50 = pct.at(0.50);
        if (name == "cpu-full")
            cpu_full_p50 = pct.at(0.50);
    }
    if (enmc_p50 > 0.0 && cpu_full_p50 > 0.0)
        std::printf("\n  ENMC is %.0fx faster than CPU full "
                    "classification at p50\n",
                    cpu_full_p50 / enmc_p50);

    std::printf("\ncandidate-count distribution (per request, functional "
                "scale l=%zu):\n",
                model.classifier().categories());
    for (size_t b = 0; b < cand_hist.numBins(); ++b) {
        if (cand_hist.bin(b) == 0)
            continue;
        std::printf("  [%4.0f, %4.0f): %llu\n", cand_hist.binLo(b),
                    cand_hist.binHi(b),
                    static_cast<unsigned long long>(cand_hist.bin(b)));
    }

    obs::writeMetrics(metrics);
    return 0;
}
