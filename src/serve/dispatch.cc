#include "serve/dispatch.h"

#include <functional>

#include "common/logging.h"

namespace enmc::serve {

namespace {

/**
 * Screening-bypass deduction shared by the dispatchers: `screened` of
 * `batch` items ran the screener; the rest were cache hits whose
 * screening share comes off the batch's service time. The exact-row and
 * transfer phases are untouched (hits still read executor rows), and
 * s == batch returns `full_us` bitwise (no arithmetic at all).
 */
double
deductBypasses(double full_us, double screen_us, uint64_t batch,
               uint64_t screened)
{
    if (screened >= batch || batch == 0)
        return full_us;
    const double skipped = static_cast<double>(batch - screened) /
                           static_cast<double>(batch);
    const double us = full_us - screen_us * skipped;
    return us > 0.0 ? us : 0.0;
}

/** Screener-busy share of a timing result, in microseconds. */
double
screenerBusyUs(const runtime::TimingResult &t, double freq_hz)
{
    if (freq_hz <= 0.0)
        return 0.0;
    return static_cast<double>(t.rank.screener_busy) / freq_hz * 1e6;
}

} // namespace

std::vector<runtime::ClassifierOutput>
Dispatcher::forward(const std::vector<tensor::Vector> &h_batch, size_t k)
{
    ENMC_ASSERT(classifier_ != nullptr,
                "dispatch: forward without an attached classifier");
    cluster::ClusterRouter *fabric = router();
    if (fabric == nullptr)
        return classifier_->forward(h_batch, k);
    return classifier_->forward(
        h_batch, k,
        std::bind_front(&cluster::ClusterRouter::runFunctional, fabric));
}

BackendDispatcher::BackendDispatcher(
    std::unique_ptr<runtime::Backend> backend, const runtime::JobSpec &job,
    double freq_hz)
    : backend_(std::move(backend)), job_(job), freq_hz_(freq_hz)
{
}

double
BackendDispatcher::serviceUs(uint64_t batch, uint64_t candidates,
                             uint64_t screened)
{
    runtime::JobSpec spec = job_;
    spec.batch = batch;
    spec.candidates = candidates;
    const runtime::TimingResult &t = jobs_.runJob(spec);
    return deductBypasses(t.seconds * 1e6, screenerBusyUs(t, freq_hz_),
                          batch, screened);
}

PlannedDispatcher::PlannedDispatcher(
    std::unique_ptr<runtime::AutoBackend> backend,
    const runtime::JobSpec &job, double freq_hz)
    : backend_(std::move(backend)), job_(job), freq_hz_(freq_hz)
{
}

std::string
PlannedDispatcher::routeBatch(uint64_t batch, uint64_t candidates,
                              double /*now_us*/)
{
    runtime::JobSpec spec = job_;
    spec.batch = batch;
    spec.candidates = candidates;
    const runtime::AutoBackend::PlannedRun run = backend_->runPlanned(spec);
    std::lock_guard<std::mutex> lock(mutex_);
    has_pending_ = true;
    pending_batch_ = batch;
    pending_cands_ = candidates;
    pending_us_ = run.timing.seconds * 1e6;
    // Zero when the planner picked a backend without a screener stage
    // (CPU roofline): bypasses then deduct nothing, conservatively.
    pending_screen_us_ = screenerBusyUs(run.timing, freq_hz_);
    return run.backend;
}

double
PlannedDispatcher::serviceUs(uint64_t batch, uint64_t candidates,
                             uint64_t screened)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (has_pending_ && pending_batch_ == batch &&
            pending_cands_ == candidates) {
            has_pending_ = false;
            return deductBypasses(pending_us_, pending_screen_us_, batch,
                                  screened);
        }
    }
    // Standalone timing query (no preceding routeBatch): run a planned
    // dispatch of its own.
    runtime::JobSpec spec = job_;
    spec.batch = batch;
    spec.candidates = candidates;
    const runtime::AutoBackend::PlannedRun run = backend_->runPlanned(spec);
    return deductBypasses(run.timing.seconds * 1e6,
                          screenerBusyUs(run.timing, freq_hz_), batch,
                          screened);
}

ClusterDispatcher::ClusterDispatcher(const cluster::ClusterConfig &cfg,
                                     const runtime::JobSpec &job)
    : router_(cfg, job)
{
}

std::string
ClusterDispatcher::name() const
{
    return "cluster(" + std::to_string(router_.nodeCount()) + "x" +
           router_.config().node_backend + ")";
}

void
ClusterDispatcher::attachClassifier(runtime::EnmcClassifier &clf)
{
    // Every node runs the cache misses under the cluster's node system,
    // not the classifier's own, so the cache rule is checked against it.
    runtime::requireCacheExact(clf.cache().enabled(), clf.options().quant,
                               router_.config().node);
    Dispatcher::attachClassifier(clf);
}

std::string
ClusterDispatcher::routeBatch(uint64_t batch, uint64_t candidates,
                              double now_us)
{
    router_.routeBatch(batch, candidates, now_us);
    return name();
}

double
ClusterDispatcher::serviceUs(uint64_t batch, uint64_t candidates,
                             uint64_t /*screened*/)
{
    // No memo here: the router re-times every batch over the live nodes
    // (its one JobMemo makes that cheap), so a node kill re-times the
    // batches after it instead of serving frozen numbers.
    // `screened` is ignored, conservatively: cache hits skip screening
    // on every node, but the fabric is timed as if each item screened.
    return router_.serviceUs(batch, candidates);
}

std::unique_ptr<Dispatcher>
makeDispatcher(const ServeConfig &cfg, const runtime::JobSpec &job,
               const runtime::SystemConfig &sys)
{
    if (cfg.backend == "cluster") {
        cluster::ClusterConfig cc = cfg.cluster;
        cc.node = sys;
        return std::make_unique<ClusterDispatcher>(cc, job);
    }
    if (cfg.backend == "auto")
        return std::make_unique<PlannedDispatcher>(
            std::make_unique<runtime::AutoBackend>(sys, cfg.planner), job,
            sys.timing.freq_hz);
    return std::make_unique<BackendDispatcher>(
        runtime::createBackend(cfg.backend, sys), job, sys.timing.freq_hz);
}

} // namespace enmc::serve
