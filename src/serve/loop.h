/**
 * @file
 * The serve loop: request scheduling + dynamic batching in front of an
 * execution backend, in two modes sharing one policy.
 *
 * **Replay mode** (`replay`, `runClosedLoop`) is a deterministic
 * discrete-event simulation in *virtual* time: arrivals come from a
 * fixed trace (or are generated closed-loop), admission is decided
 * against the modeled queue occupancy, batches are cut by the
 * `DynamicBatcher` policy, and each batch's service time is
 * `handoff_us + backend.runJob(batch)` in the backend's simulated clock
 * domain. Everything is a pure function of (trace, config): latencies,
 * admission decisions and batch compositions are bit-identical for every
 * `ENMC_THREADS`. Functional outputs are computed per batch in flush
 * order (the slice simulation inside parallelizes on the thread pool and
 * merges in slice order), so logits are bit-identical too.
 *
 * **Live mode** (`start`/`submit*`/`stop`) runs the same queue and
 * batching policy with real threads and wall-clock deadlines: producers
 * push into the bounded MPMC `RequestQueue`, a dispatcher thread fills
 * batches while an executor thread runs the previous one — a two-stage
 * pipeline whose heavy compute lands on the process-wide `ThreadPool`.
 * Both modes admit by one rule (`admitDecision`) and run every batch
 * through one `executeBatch`; they differ only in how they wait and
 * which thread runs the batch. Per-request
 * probabilities are batch-composition-invariant (batched kernels are
 * bit-identical per query to their single-query forms), so live results
 * match replay results request for request even though wall-clock batch
 * boundaries are not reproducible.
 */

#ifndef ENMC_SERVE_LOOP_H
#define ENMC_SERVE_LOOP_H

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "obs/registry.h"
#include "runtime/api.h"
#include "runtime/system.h"
#include "serve/batcher.h"
#include "serve/config.h"
#include "serve/dispatch.h"
#include "serve/queue.h"
#include "serve/report.h"
#include "serve/request.h"

namespace enmc::serve {

class ServeLoop
{
  public:
    /**
     * @param cfg  Serving policy (queue/batch/SLO/warm-up knobs).
     * @param job  Full-scale job dimensions timing is computed at;
     *             `batch` and `candidates` are overridden per batch.
     * @param sys  System configuration the timing backend is built with.
     */
    ServeLoop(const ServeConfig &cfg, const runtime::JobSpec &job,
              const runtime::SystemConfig &sys = runtime::SystemConfig{});
    ~ServeLoop();

    ServeLoop(const ServeLoop &) = delete;
    ServeLoop &operator=(const ServeLoop &) = delete;

    /**
     * Attach the functional-scale classifier batches are served from.
     * Must be calibrated and outlive the loop. Without one (or with
     * `compute_logits` off) the loop serves timing-only responses.
     */
    void attachClassifier(runtime::EnmcClassifier &clf);

    const ServeConfig &config() const { return cfg_; }

    // --- deterministic virtual-time serving ---------------------------

    /** Serve a fixed arrival schedule (open-loop). */
    ServeReport replay(const ArrivalTrace &trace);

    /**
     * Closed-loop serving: `clients` clients each keep exactly one
     * request in flight, issuing the next the instant the previous
     * completes, `per_client` times. `make(id, client)` builds request
     * bodies (id/arrival are overwritten by the loop).
     */
    ServeReport runClosedLoop(
        size_t clients, size_t per_client,
        const std::function<Request(RequestId, size_t)> &make);

    // --- live threaded serving ----------------------------------------

    /** Spawn the dispatcher/executor pipeline. */
    void start();

    /** Non-blocking admission (load shedding). */
    std::future<Response> submit(Request r);
    /** Blocking admission (backpressure). */
    std::future<Response> submitBlocking(Request r);
    /** Admission serialized by request id (see RequestQueue). */
    std::future<Response> submitOrdered(Request r);

    /** Close, drain, join; the report covers every submitted request. */
    ServeReport stop();

    /**
     * Simulated service time (us) of a batch: per-offload handoff plus
     * the dispatcher's batched service latency. Deterministic given the
     * dispatch history (each backend's `runJob` goes through a
     * `runtime::JobMemo`; the cluster router re-times every batch over
     * the live nodes through its one memo).
     */
    double batchServiceUs(uint64_t batch, uint64_t candidates);

    /**
     * Cache-aware variant: `screened` of the batch's items ran full
     * screening; the rest were candidate-cache bypasses whose screener
     * share the dispatcher deducts. `screened == batch` is bit-identical
     * to the two-argument form.
     */
    double batchServiceUs(uint64_t batch, uint64_t candidates,
                          uint64_t screened);

    /**
     * Run `fn` once, immediately before the functional compute of the
     * first batch whose dispatch index is >= `after_batches` (0 = before
     * the very first batch). This is the online hot-swap hook: `fn`
     * typically calls `EnmcClassifier::refresh`, so in replay mode the
     * swap point is a deterministic function of (trace, after_batches),
     * and in live mode it fires on the executor thread between batches
     * — never mid-batch. One pending swap at a time; a
     * second call overwrites an unfired one.
     */
    void scheduleSwap(uint64_t after_batches, std::function<void()> fn);

    /** Mean per-request candidate budget of a batch (job default for
     *  requests that left `candidates` at 0), rounded up. */
    uint64_t batchCandidates(const std::vector<const Request *> &reqs) const;

    RequestQueue &queue() { return queue_; }
    DynamicBatcher &batcher() { return batcher_; }
    StatGroup &stats() { return stats_; }
    Dispatcher &dispatcher() { return *dispatcher_; }
    /** The cluster fabric batches route through; nullptr off-cluster. */
    cluster::ClusterRouter *clusterRouter()
    {
        return dispatcher_->router();
    }
    /** The offload planner batches route through; nullptr off-auto. */
    runtime::OffloadPlanner *planner() { return dispatcher_->planner(); }

  private:
    /** What the virtual clock needs to time an executed batch. */
    struct BatchWork
    {
        uint64_t candidates = 0;
        size_t cache_hits = 0;
    };

    /**
     * Shared discrete-event core behind replay()/runClosedLoop().
     * `on_done(resp, now, inject)` fires as each request finalizes
     * (completion or rejection) and may append follow-up arrivals at
     * times >= now to `inject` — that is how the closed loop closes.
     */
    ServeReport runVirtual(
        std::vector<Request> initial,
        const std::function<void(const Response &, double,
                                 std::vector<Request> &)> &on_done);

    /**
     * Functional forward of one batch; fills probabilities/topk plus the
     * per-response `cache_hit`/`snapshot_epoch` stamps. Returns how many
     * of the computed responses were candidate-cache hits (0 for
     * timing-only batches), which feeds the screened-aware timing.
     */
    size_t computeBatch(const std::vector<const Request *> &reqs,
                        std::vector<Response *> &resps);

    /** Fire a due scheduled swap, then count this batch as dispatched. */
    void fireScheduledSwap();

    /** The batch path of both clocks: route at `now`, fire a due swap,
     *  compute, then stamp dispatch time, batch size, route and warm-up
     *  (`dispatched` numbers requests in dispatch order). */
    BatchWork executeBatch(const std::vector<const Request *> &reqs,
                           std::vector<Response *> &resps, double now,
                           size_t &dispatched);

    /** Admission's validity check: logits need a hidden vector. */
    bool valid(const Request &r) const
    {
        return classifier_ == nullptr || !cfg_.compute_logits ||
               !r.hidden.empty();
    }

    /**
     * Live admission shared by the submit* calls: stamp the arrival,
     * hand the request and its validity to `push`, and account and
     * reply at once when it is not admitted.
     */
    std::future<Response>
    admitLive(Request r,
              Admission (RequestQueue::*push)(QueuedRequest, bool));

    /** Tally one finished response into loop + tenant stats. */
    void account(const Response &r);

    void dispatcherLoop();
    void executorLoop();
    double wallUs() const;

    ServeConfig cfg_;
    runtime::JobSpec job_;
    std::unique_ptr<Dispatcher> dispatcher_;
    runtime::EnmcClassifier *classifier_ = nullptr;

    RequestQueue queue_;
    DynamicBatcher batcher_;

    // Live-mode pipeline.
    bool live_ = false;
    std::thread dispatcher_thread_;
    std::thread executor_;
    std::mutex handoff_mutex_;
    std::condition_variable handoff_cv_;
    //! Depth-1 pipeline slot; an empty batch stops the executor.
    std::optional<std::vector<QueuedRequest>> handoff_;
    std::chrono::steady_clock::time_point live_epoch_;
    std::mutex live_mutex_;                    //!< guards live_responses_
    std::vector<Response> live_responses_;

    // Scheduled online hot-swap (see scheduleSwap()).
    std::mutex swap_mutex_;
    std::function<void()> swap_fn_;
    uint64_t swap_after_ = 0;
    bool swap_pending_ = false;
    uint64_t batches_dispatched_ = 0;

    // Loop-level stats ("serve.loop").
    StatGroup stats_;
    Counter &stat_requests_;
    Counter &stat_warmup_;
    Counter &stat_measured_;
    Counter &stat_rejected_;
    Counter &stat_slo_violations_;
    ScalarStat &stat_queue_us_;
    ScalarStat &stat_backend_us_;
    Histogram &stat_latency_hist_;
    Counter &stat_cache_hits_;
    Counter &stat_cache_misses_;
    Histogram &stat_latency_hit_;
    Histogram &stat_latency_miss_;
    ScalarStat &stat_served_epoch_;
    struct TenantStats;
    std::map<std::string, std::unique_ptr<TenantStats>> tenants_;
    std::mutex stats_mutex_; //!< guards tenants_ and account()'s stats
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::serve

#endif // ENMC_SERVE_LOOP_H
