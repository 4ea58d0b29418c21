/**
 * @file
 * Workloads `serve_zipf_refresh` and `cluster_failover`: open-loop
 * Poisson traces replayed through `serve::ServeLoop::replay` in virtual
 * time, with the functional classifier computing every response.
 *
 * Both serve a synthetic sigmoid classifier with l = 32768 and d = 128.
 * Its FP32 rows take 16 MiB, more than a core's L2, so the functional
 * path streams from memory as the real one would.
 *
 *  - `serve_zipf_refresh`: one `enmc` node timed at full-scale
 *    XMLCNN-670K. Hidden vectors are drawn Zipf(1.1) from a pool with
 *    the candidate cache on, and `ServeLoop::scheduleSwap` runs one
 *    `EnmcClassifier::refresh` in the middle of each pass, which
 *    invalidates the cache. Reads and writes of the serving path.
 *  - `cluster_failover`: the `"cluster"` backend, 4 nodes, 2-way
 *    replication, S1M timing, the classifier sharded across nodes,
 *    unique hidden vectors (the cache is bypassed) and node 1 killed
 *    after a fixed number of batches. The only workload that uses the
 *    router's scatter/gather and `tensor::mergeTopK`.
 *
 * A pass replays the same trace from the same starting state, so passes
 * are identical and their host times are repeated samples: the serve
 * workload loads a fresh classifier from the screener saved at set-up,
 * the cluster workload builds a fresh loop (its kill is one-shot) and
 * fills its timing memo before the timed replay.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "cluster/router.h"
#include "common/rng.h"
#include "harness.h"
#include "obs/percentiles.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "runtime/api.h"
#include "serve/loop.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "tensor/topk.h"
#include "workloads/registry.h"
#include "workloads/synthetic.h"

namespace perfbench {

namespace {

namespace rt = enmc::runtime;
namespace sv = enmc::serve;

constexpr size_t kCategories = 32768;
constexpr size_t kHidden = 128;
constexpr size_t kCandidates = 256;
constexpr size_t kTopK = 5;
constexpr size_t kMaxBatch = 16;
/** The SLO is this many full-batch service times. */
constexpr double kSloBatches = 4.0;
/** Set-ups per run; the median is reported. */
constexpr int kSetups = 3;
/** Requests per timed pass. */
constexpr size_t kPassRequests = 256;
/** Requests behind the virtual-latency percentiles (traced run). */
constexpr size_t kSimRequests = 1024;

struct Shape
{
    const char *name;
    bool cluster;
    const char *timing_workload; //!< full-scale job the loop is timed at
    size_t pool;                 //!< Zipf pool size; 0 = unique vectors
    size_t cache_capacity;
    uint64_t kill_after;         //!< cluster: batches before node 1 dies
    /** Offered rate as a share of the full-batch capacity; below what
     *  the workload sustains (after the failover, for the cluster). */
    double load;
};

constexpr Shape kServe{"serve_zipf_refresh", false, "XMLCNN-670K", 256, 128, 0,
                       0.6};
constexpr Shape kCluster{"cluster_failover", true, "S1M", 0, 0, 4, 0.4};

rt::JobSpec
timingJob(const Shape &shape)
{
    const auto w = enmc::workloads::findWorkload(shape.timing_workload);
    rt::JobSpec spec;
    spec.categories = w.categories;
    spec.hidden = w.hidden;
    spec.reduced = std::max<uint64_t>(1, w.hidden / 4);
    spec.candidates = w.nmpCandidates();
    spec.sigmoid = w.normalization == enmc::nn::Normalization::Sigmoid;
    return spec;
}

sv::ServeConfig
serveConfig(const Shape &shape, bool logits)
{
    sv::ServeConfig cfg;
    cfg.backend = shape.cluster ? "cluster" : "enmc";
    cfg.max_batch = kMaxBatch;
    cfg.queue_capacity = 1024;
    cfg.topk = kTopK;
    cfg.compute_logits = logits;
    if (shape.cluster) {
        cfg.cluster.nodes = 4;
        cfg.cluster.replication = 2;
        cfg.cluster.kill.node = 1;
        cfg.cluster.kill.after_batches = shape.kill_after;
    }
    return cfg;
}

/** Everything a run builds before its first timed pass. */
struct Fixture
{
    std::unique_ptr<enmc::workloads::SyntheticModel> model;
    std::vector<enmc::tensor::Vector> train, val;
    rt::ClassifierOptions options;
    std::string screener_path;
    /** Serves the cluster workload; the serve workload loads its own. */
    std::unique_ptr<rt::EnmcClassifier> served;
    std::unique_ptr<sv::ServeLoop> loop;
    double memo_s = 0.0; //!< host time filling the loop's timing memo
};

/** Fill the loop's service-time memo for every batch shape it serves. */
double
warmTimingMemo(sv::ServeLoop &loop, const rt::JobSpec &job)
{
    const double t0 = nowS();
    for (uint64_t b = 1; b <= kMaxBatch; ++b)
        loop.batchServiceUs(b, job.candidates);
    return nowS() - t0;
}

/**
 * Model synthesis, calibration, loop construction and timing-memo
 * warm-up. The model and its training data are fixed, so set-up and
 * refresh do the same work for every seed (see makeInputs()).
 */
std::unique_ptr<Fixture>
setUp(const Shape &shape, const Args &args)
{
    auto f = std::make_unique<Fixture>();
    enmc::workloads::SyntheticConfig syn;
    syn.categories = kCategories;
    syn.hidden = kHidden;
    syn.normalization = enmc::nn::Normalization::Sigmoid;
    f->model = std::make_unique<enmc::workloads::SyntheticModel>(syn);
    enmc::Rng data = f->model->makeRng(1);
    f->train = f->model->sampleHiddenBatch(data, 256);
    f->val = f->model->sampleHiddenBatch(data, 64);

    f->options.candidates = kCandidates;
    f->options.trainer.epochs = 2;
    f->options.cache.capacity = shape.cache_capacity;
    rt::EnmcClassifier clf(f->model->classifier(), f->options);
    clf.calibrate(f->train, f->val);
    f->screener_path = args.work_dir + "/" + shape.name + ".screener";
    clf.save(f->screener_path);

    if (shape.cluster) {
        f->served = std::make_unique<rt::EnmcClassifier>(
            f->model->classifier(), f->options);
        f->served->load(f->screener_path);
    }
    const rt::JobSpec job = timingJob(shape);
    f->loop = std::make_unique<sv::ServeLoop>(serveConfig(shape, true), job);
    f->memo_s = warmTimingMemo(*f->loop, job);
    return f;
}

/** Unit-rate exponential gaps; a trace at rate r scales them by 1/r. */
std::vector<double>
unitGaps(size_t n, enmc::Rng rng)
{
    std::vector<double> gaps(n);
    for (double &g : gaps)
        g = -std::log(1.0 - rng.uniform(0.0, 1.0));
    return gaps;
}

bool
sameOutput(const sv::Response &r, const rt::ClassifierOutput &want)
{
    return r.topk == want.topk &&
           r.probabilities.size() == want.probabilities.size() &&
           std::memcmp(r.probabilities.data(), want.probabilities.data(),
                       want.probabilities.size() * sizeof(float)) == 0;
}

/** Distinct batches in a report (each batch has its own dispatch time). */
size_t
batchCount(const sv::ServeReport &rep)
{
    std::set<double> dispatch;
    for (const sv::Response &r : rep.responses)
        if (r.admission == sv::Admission::Admitted)
            dispatch.insert(r.dispatch_us);
    return dispatch.size();
}

/** Median host time (us) of `fn` over `n` calls. */
double
probeUs(size_t n, const std::function<void()> &fn)
{
    std::vector<double> us;
    for (size_t i = 0; i < n; ++i) {
        const double t0 = nowS();
        fn();
        us.push_back((nowS() - t0) * 1e6);
    }
    return median(us);
}

/**
 * Highest offered rate whose p99 meets the SLO with no rejection and no
 * growing backlog, by bisection over timing-only replays of the same
 * arrival shape. `replayAt(qps)` builds and replays one trace.
 */
double
maxQps(double capacity_qps, double slo_us,
       const std::function<sv::ServeReport(double)> &replayAt)
{
    auto meets = [&](double qps) {
        const sv::ServeReport rep = replayAt(qps);
        if (rep.rejectedCount() != 0)
            return false;
        const std::vector<double> lat = rep.measuredLatencies();
        if (lat.empty() || enmc::obs::Percentiles(lat).at(0.99) > slo_us)
            return false;
        // A backlog that grows shows as a last decile slower than SLO.
        const std::vector<double> tail(lat.end() - lat.size() / 10,
                                       lat.end());
        return median(tail) <= slo_us;
    };
    double lo = 0.0, hi = 2.0 * capacity_qps;
    for (int i = 0; i < 12; ++i) {
        const double mid = 0.5 * (lo + hi);
        (meets(mid) ? lo : hi) = mid;
    }
    return lo;
}

/**
 * A run's inputs. The seed draws every hidden vector the program sees;
 * the traffic shape (arrival gaps and the Zipf rank sequence) is one
 * fixed stream, so every seed does the same amount of work — the same
 * batches and the same cache hits — on different data.
 */
struct Inputs
{
    std::vector<enmc::tensor::Vector> hidden;
    /** Identity of each request's input: its pool index (repeats under
     *  Zipf) or its own index (unique vectors). */
    std::vector<size_t> key;
    std::vector<double> gaps;
};

Inputs
makeInputs(const Shape &shape, const Fixture &fx, uint64_t seed)
{
    constexpr uint64_t kShapeSeed = 7;
    Inputs in;
    enmc::Rng traffic(kShapeSeed);
    in.gaps = unitGaps(kSimRequests, traffic.fork());
    enmc::Rng data(seed);
    if (shape.pool > 0) {
        const auto pool = fx.model->sampleHiddenBatch(data, shape.pool);
        enmc::ZipfSampler zipf(shape.pool, 1.1);
        for (size_t i = 0; i < kSimRequests; ++i) {
            in.key.push_back(static_cast<size_t>(zipf(traffic)));
            in.hidden.push_back(pool[in.key.back()]);
        }
    } else {
        in.hidden = fx.model->sampleHiddenBatch(data, kSimRequests);
        for (size_t i = 0; i < kSimRequests; ++i)
            in.key.push_back(i);
    }
    return in;
}

/** The first `n` requests of the inputs, arriving at `qps`. */
sv::ArrivalTrace
traceOf(const Inputs &in, size_t n, double qps, bool with_hidden)
{
    sv::ArrivalTrace trace;
    double t = 0.0;
    for (size_t i = 0; i < n; ++i) {
        sv::Request r;
        r.id = i;
        r.arrival_us = t;
        if (with_hidden)
            r.hidden = in.hidden[i];
        trace.requests.push_back(std::move(r));
        t += in.gaps[i] * 1e6 / qps;
    }
    return trace;
}

/**
 * The correctness oracle: every response must equal, memcmp-exact, the
 * single-query forward of a cache-off reference classifier frozen at the
 * response's screener epoch (the unsharded reference, for the cluster).
 */
class Oracle
{
  public:
    Oracle(const Shape &shape, const Fixture &fx, const Inputs &in)
        : shape_(shape), in_(in)
    {
        rt::ClassifierOptions opt = fx.options;
        opt.cache.capacity = 0;
        for (int refreshed = 0; refreshed < 2; ++refreshed) {
            auto ref = std::make_unique<rt::EnmcClassifier>(
                fx.model->classifier(), opt);
            ref->load(fx.screener_path);
            // A refresh's seed depends only on (options.seed, epoch), so
            // this twin equals the served classifier after its refresh.
            if (refreshed)
                ref->refresh(fx.train, fx.val);
            (refreshed ? refreshed_epoch_ : loaded_epoch_) =
                ref->snapshotEpoch();
            refs_[ref->snapshotEpoch()] = std::move(ref);
        }
    }

    uint64_t refreshedEpoch() const { return refreshed_epoch_; }
    rt::EnmcClassifier &loaded() { return *refs_.at(loaded_epoch_); }

    void check(const sv::ServeReport &rep, Report &report)
    {
        report.attempt(rep.responses.size());
        for (const sv::Response &r : rep.responses) {
            const std::string what = std::string(shape_.name) + ": request " +
                                     std::to_string(r.id);
            if (r.admission != sv::Admission::Admitted) {
                report.fail(what + " rejected");
                continue;
            }
            // The cluster path does not stamp epochs; it never swaps.
            const uint64_t epoch =
                shape_.cluster ? loaded_epoch_ : r.snapshot_epoch;
            const auto ref = refs_.find(epoch);
            if (ref == refs_.end()) {
                report.fail(what + " has epoch " + std::to_string(epoch));
                continue;
            }
            const auto key = std::make_pair(epoch, in_.key[r.id]);
            auto it = expected_.find(key);
            if (it == expected_.end())
                it = expected_
                         .emplace(key, ref->second->forward(
                                           {in_.hidden[r.id]}, kTopK)[0])
                         .first;
            if (!sameOutput(r, it->second))
                report.fail(what + " differs from the reference");
        }
    }

  private:
    const Shape &shape_;
    const Inputs &in_;
    std::map<uint64_t, std::unique_ptr<rt::EnmcClassifier>> refs_;
    uint64_t loaded_epoch_ = 0;
    uint64_t refreshed_epoch_ = 0;
    std::map<std::pair<uint64_t, size_t>, rt::ClassifierOutput> expected_;
};

int
runServing(const Shape &shape, const Args &args, Report &report)
{
    enmc::obs::StatRegistry &registry = enmc::obs::StatRegistry::instance();
    enmc::obs::Tracer &tracer = enmc::obs::Tracer::instance();

    // Set-up is repeated and its median reported; the last one is kept.
    // Its time counts toward the run's measuring budget.
    double measured_s = 0.0;
    std::vector<double> setup_s, memo_s;
    std::unique_ptr<Fixture> fx;
    uint64_t setup_timing_runs = 0;
    for (int i = 0; i < kSetups; ++i) {
        fx.reset();
        registry.resetAll();
        const double t0 = nowS();
        fx = setUp(shape, args);
        setup_s.push_back(nowS() - t0);
        measured_s += setup_s.back();
        memo_s.push_back(fx->memo_s);
        setup_timing_runs =
            counterOf(statSnapshot(), "runtime.system", "timingRuns");
    }

    const rt::JobSpec job = timingJob(shape);
    const double full_batch_us =
        fx->loop->batchServiceUs(kMaxBatch, job.candidates);
    const double capacity_qps = 1e6 * kMaxBatch / full_batch_us;
    const double offered_qps = shape.load * capacity_qps;
    const double slo_us = kSloBatches * full_batch_us;
    const Inputs inputs = makeInputs(shape, *fx, args.seed);
    const sv::ArrivalTrace trace =
        traceOf(inputs, kPassRequests, offered_qps, true);
    Oracle oracle(shape, *fx, inputs);
    if (shape.cluster)
        fx->loop->attachClassifier(*fx->served);

    // One functional replay from the pass's starting state. The serve
    // workload loads a fresh classifier and schedules its mid-pass
    // refresh; the cluster loop keeps serving after its one-shot kill.
    std::vector<double> refresh_ms;
    uint64_t batches_before = 0;
    auto replayPass = [&](const sv::ArrivalTrace &tr, bool traced,
                          double &host_s) {
        std::unique_ptr<rt::EnmcClassifier> clf;
        if (!shape.cluster) {
            clf = std::make_unique<rt::EnmcClassifier>(
                fx->model->classifier(), fx->options);
            clf->load(fx->screener_path);
            rt::EnmcClassifier *served = clf.get();
            fx->loop->attachClassifier(*served);
            fx->loop->scheduleSwap(
                batches_before + tr.requests.size() / (2 * kMaxBatch),
                [&refresh_ms, served, &fx] {
                    enmc::obs::TraceSpan span("bench.refresh", "bench");
                    const double t0 = nowS();
                    served->refresh(fx->train, fx->val);
                    refresh_ms.push_back((nowS() - t0) * 1e3);
                });
        }
        registry.resetAll();
        tracer.setEnabled(traced);
        const double t0 = nowS();
        sv::ServeReport rep;
        {
            enmc::obs::TraceSpan span("bench.replay", "bench");
            rep = fx->loop->replay(tr);
        }
        host_s = nowS() - t0;
        tracer.setEnabled(false);
        batches_before += batchCount(rep);

        oracle.check(rep, report);
        report.attempt();
        if (shape.cluster) {
            const StatSnapshot s = statSnapshot();
            if (counterOf(s, "cluster.router", "deadDispatches") != 0 ||
                fx->loop->clusterRouter()->liveNodeCount() != 3)
                report.fail("cluster_failover: dispatched to a dead node, "
                            "or node 1 is not the one node down");
        } else if (clf->snapshotEpoch() != oracle.refreshedEpoch()) {
            report.fail("serve_zipf_refresh: the mid-pass refresh did not "
                        "fire");
        }
        return rep;
    };

    std::vector<double> req_ms[2]; // [traced]
    SpanMap spans;
    size_t traced_requests = 0;
    StatSnapshot first_stats;
    size_t first_batches = 0, passes = 0;
    // Passes while the next one still fits in the run's time; at least
    // two, and in a traced run one traced and one untraced, so the
    // tracing overhead has both sides.
    double host_s = 0.0;
    while (passes < 2 || measured_s + host_s <= args.seconds) {
        const bool traced = args.trace && passes % 2 == 0;
        const sv::ServeReport rep = replayPass(trace, traced, host_s);
        measured_s += host_s;
        req_ms[traced ? 1 : 0].push_back(host_s * 1e3 / kPassRequests);
        if (traced) {
            collectSpans(spans);
            traced_requests += kPassRequests;
        }
        if (passes == 0) {
            first_stats = statSnapshot();
            first_batches = batchCount(rep);
        }
        ++passes;
    }

    char line[200];
    std::snprintf(line, sizeof(line),
                  "%zu passes x %zu requests; offered %.0f qps (%.0f%% of "
                  "full-batch capacity %.0f qps); SLO %.1f us",
                  passes, kPassRequests, offered_qps, shape.load * 100,
                  capacity_qps, slo_us);
    report.note(line);
    std::string per_pass = "host ms per request, by pass:";
    for (const double ms : req_ms[0]) {
        std::snprintf(line, sizeof(line), " %.3f", ms);
        per_pass += line;
    }
    report.note(per_pass);

    report.endToEnd("setup_s", median(setup_s), "s", "host");
    report.endToEnd("peak_rss_mb", peakRssMb(), "MiB", "host");
    report.endToEnd("req_host_ms", median(req_ms[0]), "ms", "host");
    report.layer("sim_s", median(memo_s), "s", "host");
    if (!args.trace)
        return report.failed() == 0 ? 0 : 1;

    // ---- per-layer readings (traced run only) ------------------------
    const StatSnapshot &ps = first_stats;
    const double reads = counterOf(ps, "enmc.rank.dram", "reads");
    const enmc::ScalarStat cyc = scalarOf(ps, "enmc.rank", "cycles");
    report.layer("dram.reads", reads, "count", "sim");
    report.layer("dram.row_hit_frac",
                 reads ? counterOf(ps, "enmc.rank.dram", "rowHits") / reads
                       : 0.0,
                 "frac", "sim");
    report.layer("dram.read_latency_cycles",
                 scalarOf(ps, "enmc.rank.dram", "readLatency").mean(),
                 "cycles", "sim");
    report.layer("enmc.cycles", cyc.sum(), "cycles", "sim");
    report.layer("enmc.screener_util",
                 scalarOf(ps, "enmc.rank", "screenerUtil").mean(), "frac",
                 "sim");
    report.layer("enmc.executor_util",
                 scalarOf(ps, "enmc.rank", "executorUtil").mean(), "frac",
                 "sim");
    const double traced_passes =
        static_cast<double>(traced_requests) / kPassRequests;
    report.layer("enmc.ns_per_cycle",
                 spans["slice.sim"].total_ms * 1e6 /
                     (cyc.sum() * traced_passes),
                 "ns/cycle", "host");
    report.layer("runtime.timing_runs",
                 static_cast<double>(
                     setup_timing_runs +
                     counterOf(ps, "runtime.system", "timingRuns")),
                 "count", "exact");
    report.layer("runtime.slice_sim_ms",
                 spans["slice.sim"].self_ms / traced_requests, "ms", "host");
    report.layer("runtime.merge_ms", spans["merge"].self_ms / traced_requests,
                 "ms", "host");
    const double lookups = counterOf(ps, "screening.cache", "lookups");
    report.layer("screening.cache.hit_frac",
                 lookups ? counterOf(ps, "screening.cache", "validated") /
                               lookups
                         : 0.0,
                 "frac", "exact");
    if (!shape.cluster)
        report.layer("screening.refresh_ms", median(refresh_ms), "ms",
                     "host");
    report.layer("common.pool_jobs_per_batch",
                 static_cast<double>(counterOf(ps, "common.threadPool",
                                               "jobsExecuted")) /
                     first_batches,
                 "count", "exact");
    if (shape.cluster) {
        const double routed = counterOf(ps, "cluster.router", "routedBatches");
        report.layer("cluster.fanout",
                     routed ? counterOf(ps, "cluster.router",
                                        "shardDispatches") /
                                  routed
                            : 0.0,
                     "count", "exact");
        report.layer("cluster.dead_dispatches",
                     counterOf(ps, "cluster.router", "deadDispatches"),
                     "count", "exact");
    }

    // Direct probes of single layers, on the served data.
    const std::vector<enmc::tensor::Vector> batch(
        inputs.hidden.begin(), inputs.hidden.begin() + kMaxBatch);
    rt::EnmcClassifier &ref = oracle.loaded();
    report.layer("runtime.forward_ms", probeUs(5, [&] {
                     enmc::obs::TraceSpan span("bench.forward", "bench");
                     ref.forward(batch, kTopK);
                 }) / 1e3,
                 "ms", "host");
    const enmc::screening::Screener &scr = ref.screener();
    const enmc::tensor::Vector &h0 = inputs.hidden[0];
    const auto yq =
        enmc::tensor::quantize(scr.project(h0), scr.config().quant);
    report.layer("screening.project_us", probeUs(200, [&] {
                     enmc::tensor::quantize(scr.project(h0),
                                            scr.config().quant);
                 }),
                 "us", "host");
    enmc::tensor::Vector approx;
    report.layer("tensor.gemv_int4_us", probeUs(50, [&] {
                     approx = enmc::tensor::gemvQuantized(
                         scr.quantizedWeights(), yq, scr.bias());
                 }),
                 "us", "host");
    report.layer("tensor.sigmoid_us", probeUs(50, [&] {
                     enmc::tensor::sigmoidTaylor(approx);
                 }),
                 "us", "host");
    if (shape.cluster) {
        // The per-shard top-k lists the router merges, over 4 shards.
        const size_t per = kCategories / 4;
        std::vector<std::vector<enmc::tensor::Scored>> lists;
        for (size_t s = 0; s < 4; ++s)
            lists.push_back(enmc::tensor::topkScored(
                std::span<const float>(approx).subspan(s * per, per), kTopK,
                static_cast<uint32_t>(s * per)));
        report.layer("tensor.merge_topk_us", probeUs(200, [&] {
                         enmc::tensor::mergeTopK(lists, kTopK);
                     }),
                     "us", "host");
        enmc::cluster::ClusterRouter &router = *fx->loop->clusterRouter();
        report.layer("cluster.compute_batch_ms", probeUs(5, [&] {
                         enmc::obs::TraceSpan span("bench.computeBatch",
                                                   "bench");
                         router.computeBatch(fx->model->classifier(),
                                             fx->served->screener(), batch,
                                             kTopK);
                     }) / 1e3,
                     "ms", "host");
    }

    // Virtual latency over kSimRequests requests, so p99 has >= 10
    // samples beyond it. The cluster ignores cache hits in its timing,
    // so a timing-only replay gives the same latencies as a functional
    // one; the serve workload's cache hits shorten batches, so its
    // latencies need the functional replay.
    const sv::ArrivalTrace sim_trace =
        traceOf(inputs, kSimRequests, offered_qps, !shape.cluster);
    sv::ServeReport sim_rep;
    std::unique_ptr<sv::ServeLoop> timing_loop =
        std::make_unique<sv::ServeLoop>(serveConfig(shape, false), job);
    warmTimingMemo(*timing_loop, job);
    if (shape.cluster) {
        sim_rep = timing_loop->replay(sim_trace);
    } else {
        double ignored = 0.0;
        sim_rep = replayPass(sim_trace, false, ignored);
    }
    double queue_us = 0.0, backend_us = 0.0;
    for (const sv::Response &r : sim_rep.responses) {
        if (r.admission != sv::Admission::Admitted || r.warmup)
            continue;
        queue_us += r.queueUs();
        backend_us += r.backendUs();
    }
    const double measured = static_cast<double>(sim_rep.measuredCount());
    report.layer("serve.batch_size",
                 static_cast<double>(sim_rep.admittedCount()) /
                     batchCount(sim_rep),
                 "count", "sim");
    report.layer("serve.queue_us", queue_us / measured, "virtual_us", "sim");
    report.layer("serve.backend_us", backend_us / measured, "virtual_us",
                 "sim");
    const enmc::obs::Percentiles p = sim_rep.measuredLatency();
    report.layer("sim_p50_us", p.at(0.50), "virtual_us", "sim");
    report.layer("sim_p99_us", p.at(0.99), "virtual_us", "sim");
    std::snprintf(line, sizeof(line),
                  "virtual latency over %zu measured requests: p50 %.1f us, "
                  "p99 %.1f us",
                  sim_rep.measuredCount(), p.at(0.50), p.at(0.99));
    report.note(line);

    // Highest sustainable rate, from timing-only replays of the same
    // arrival shape. For the cluster this is after the failover (the
    // timing loop's kill fired in the replay above).
    report.layer("sim_max_qps", maxQps(capacity_qps, slo_us, [&](double qps) {
                     return timing_loop->replay(
                         traceOf(inputs, kSimRequests, qps, false));
                 }),
                 "1/s", "sim");
    report.layer("trace.overhead_pct",
                 (median(req_ms[1]) / median(req_ms[0]) - 1.0) * 1e2, "%",
                 "host");
    return report.failed() == 0 ? 0 : 1;
}

} // namespace

int
runServeZipfRefresh(const Args &args, Report &report)
{
    return runServing(kServe, args, report);
}

int
runClusterFailover(const Args &args, Report &report)
{
    return runServing(kCluster, args, report);
}

} // namespace perfbench
