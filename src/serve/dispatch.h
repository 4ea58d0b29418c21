/**
 * @file
 * The serve loop's dispatch target, abstracted: one loop (queueing,
 * batching, SLO accounting — see serve/loop.h) in front of either a
 * single registry backend or a routed cluster fabric.
 *
 * `Dispatcher` is the seam: `serviceUs` is the simulated backend time of
 * one batch (the loop adds its own per-offload handoff), `forward` is
 * the functional execution (the attached classifier's own, with a
 * cluster's fabric running its cache misses), and `routeBatch` is the
 * per-dispatch routing hook — a no-op for a single backend, a
 * scatter/gather fan-out (plus any scripted node kill) for a cluster.
 * The loop calls `routeBatch` exactly once per dispatched batch in
 * *both* serving modes, so replay and live runs see the same routing
 * sequence for the same batch sequence.
 */

#ifndef ENMC_SERVE_DISPATCH_H
#define ENMC_SERVE_DISPATCH_H

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "runtime/api.h"
#include "runtime/backend.h"
#include "runtime/planner.h"
#include "serve/config.h"

namespace enmc::serve {

class Dispatcher
{
  public:
    virtual ~Dispatcher() = default;

    virtual std::string name() const = 0;

    /** The functional-scale classifier `forward` serves from. */
    virtual void attachClassifier(runtime::EnmcClassifier &clf)
    {
        classifier_ = &clf;
    }

    /**
     * Per-dispatch routing hook, called exactly once per dispatched
     * batch (replay and live). Returns the route that will serve the
     * batch — the fixed backend name for single-backend dispatch, the
     * fabric name for a cluster fan-out, the planner's per-batch pick
     * for `"auto"` — recorded on every response of the batch.
     */
    virtual std::string routeBatch(uint64_t /*batch*/,
                                   uint64_t /*candidates*/,
                                   double /*now_us*/)
    {
        return name();
    }

    /**
     * Simulated backend time (us) of one batch, excluding the serve
     * loop's own handoff. Deterministic given the dispatch history.
     *
     * `screened` is how many of the batch's items actually ran full
     * screening (the rest were candidate-cache bypasses that skip the
     * screener entirely and only touch exact executor rows host-side).
     * `screened == batch` — the only value possible with the cache off —
     * must return the exact pre-cache timing; implementations model a
     * bypass as deducting the screener-busy share of the skipped items
     * and may conservatively ignore `screened` (the cluster does).
     */
    virtual double serviceUs(uint64_t batch, uint64_t candidates,
                             uint64_t screened) = 0;

    /** Cache-off convenience: every item screens. */
    double serviceUs(uint64_t batch, uint64_t candidates)
    {
        return serviceUs(batch, candidates, batch);
    }

    /**
     * Functional forward of a batch through the attached classifier's
     * `forward` — its cache, one snapshot and its epoch stamp for every
     * dispatcher — with the cluster fabric, if any, running the cache
     * misses. Outputs never depend on the timing route (the planner's
     * pick, a failover), so they are bit-identical across dispatchers.
     */
    std::vector<runtime::ClassifierOutput>
    forward(const std::vector<tensor::Vector> &h_batch, size_t k);

    /** The cluster fabric behind this dispatcher, if any. */
    virtual cluster::ClusterRouter *router() { return nullptr; }

    /** The offload planner behind this dispatcher, if any. */
    virtual runtime::OffloadPlanner *planner() { return nullptr; }

  protected:
    runtime::EnmcClassifier *classifier_ = nullptr;
};

/** Classic dispatch: every batch goes to one registry backend. */
class BackendDispatcher : public Dispatcher
{
  public:
    BackendDispatcher(std::unique_ptr<runtime::Backend> backend,
                      const runtime::JobSpec &job, double freq_hz);

    std::string name() const override { return backend_->name(); }
    using Dispatcher::serviceUs;
    double serviceUs(uint64_t batch, uint64_t candidates,
                     uint64_t screened) override;

  private:
    std::unique_ptr<runtime::Backend> backend_;
    /** Replay costs O(distinct batch shapes) backend runs. */
    runtime::JobMemo jobs_{*backend_};
    runtime::JobSpec job_;
    double freq_hz_;
};

/**
 * Adaptive dispatch: every batch is routed by the offload planner to the
 * argmin-cost candidate backend. Nothing is memoised per batch shape
 * here — that would freeze the planner's first decision per shape
 * forever; the `AutoBackend` keeps one `JobMemo` per candidate
 * underneath instead, so re-planning stays cheap.
 */
class PlannedDispatcher : public Dispatcher
{
  public:
    PlannedDispatcher(std::unique_ptr<runtime::AutoBackend> backend,
                      const runtime::JobSpec &job, double freq_hz);

    std::string name() const override { return "auto"; }
    std::string routeBatch(uint64_t batch, uint64_t candidates,
                           double now_us) override;
    using Dispatcher::serviceUs;
    double serviceUs(uint64_t batch, uint64_t candidates,
                     uint64_t screened) override;
    runtime::OffloadPlanner *planner() override
    {
        return &backend_->planner();
    }

  private:
    std::unique_ptr<runtime::AutoBackend> backend_;
    runtime::JobSpec job_;
    double freq_hz_;
    // routeBatch caches its planned service time; the serve loop's
    // immediately following serviceUs call consumes it so one dispatched
    // batch is exactly one planner decision.
    std::mutex mutex_;
    bool has_pending_ = false;
    uint64_t pending_batch_ = 0;
    uint64_t pending_cands_ = 0;
    double pending_us_ = 0.0;
    double pending_screen_us_ = 0.0;
};

/** Cluster dispatch: batches scatter/gather across the shard fabric. */
class ClusterDispatcher : public Dispatcher
{
  public:
    ClusterDispatcher(const cluster::ClusterConfig &cfg,
                      const runtime::JobSpec &job);

    std::string name() const override;
    /** Fatal when the classifier's cache is on and the nodes inject
     *  faults or run resilient (runtime::requireCacheExact). */
    void attachClassifier(runtime::EnmcClassifier &clf) override;
    std::string routeBatch(uint64_t batch, uint64_t candidates,
                           double now_us) override;
    using Dispatcher::serviceUs;
    double serviceUs(uint64_t batch, uint64_t candidates,
                     uint64_t screened) override;
    cluster::ClusterRouter *router() override { return &router_; }

  private:
    cluster::ClusterRouter router_;
};

/**
 * Build the dispatcher `cfg.backend` names: `"cluster"` builds the
 * routed fabric from `cfg.cluster` (with `sys` as every node's local
 * system); `"auto"` builds the adaptive planner dispatch from
 * `cfg.planner`; anything else resolves through the backend registry.
 */
std::unique_ptr<Dispatcher> makeDispatcher(const ServeConfig &cfg,
                                           const runtime::JobSpec &job,
                                           const runtime::SystemConfig &sys);

} // namespace enmc::serve

#endif // ENMC_SERVE_DISPATCH_H
