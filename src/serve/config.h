/**
 * @file
 * Serving-layer configuration and its `ENMC_SERVE_*` environment
 * overrides.
 *
 * The dynamic-batching policy has two knobs (the classic
 * latency/throughput trade): `max_batch` bounds how many queued requests
 * coalesce into one backend call, and `max_delay_us` bounds how long the
 * oldest queued request may wait for co-travellers before the batch is
 * flushed anyway. `handoff_us` is the per-offload host cost (offload
 * initiation, feature write, completion detection) that NMPO
 * (arXiv:2106.15284) measures dominating end-to-end NMP throughput —
 * batch-1 serving pays it per request, a batch pays it once.
 */

#ifndef ENMC_SERVE_CONFIG_H
#define ENMC_SERVE_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "cluster/config.h"
#include "runtime/planner.h"

namespace enmc::serve {

struct ServeConfig
{
    /**
     * Backend registry key batches are dispatched through; the special
     * name `"cluster"` dispatches through the sharded cluster fabric
     * configured by `cluster` below, and `"auto"` through the adaptive
     * offload planner configured by `planner` below, instead of a single
     * fixed backend.
     */
    std::string backend = "enmc";                 // ENMC_SERVE_BACKEND

    /** Bounded request-queue capacity (admission control). */
    size_t queue_capacity = 256;                  // ENMC_SERVE_QUEUE_CAP

    /** Largest batch one backend call serves. */
    size_t max_batch = 16;                        // ENMC_SERVE_MAX_BATCH
    /** Longest the oldest queued request waits before a forced flush. */
    double max_delay_us = 200.0;                  // ENMC_SERVE_MAX_DELAY_US

    /**
     * Per-offload host/NMP handoff cost in us, paid once per dispatched
     * batch (NMPO's offload-initiation + completion-detection overhead).
     */
    double handoff_us = 25.0;                     // ENMC_SERVE_HANDOFF_US

    /**
     * Leading admitted requests flagged warm-up and excluded from the
     * report's latency percentiles (cold-start allocations and cache
     * misses otherwise bias the tail).
     */
    size_t warmup_requests = 8;                   // ENMC_SERVE_WARMUP

    /** Per-request latency SLO; violations count per tenant. */
    double slo_us = 2000.0;                       // ENMC_SERVE_SLO_US

    /** Compute per-request probabilities (off = timing-only serving). */
    bool compute_logits = true;                   // ENMC_SERVE_LOGITS
    /** Top-k indices returned per request when computing logits. */
    size_t topk = 5;                              // ENMC_SERVE_TOPK

    /** Cluster fabric shape, used when `backend == "cluster"`. */
    cluster::ClusterConfig cluster;               // ENMC_CLUSTER_*

    /** Offload-planner knobs, used when `backend == "auto"`. */
    runtime::PlannerConfig planner;               // ENMC_PLAN_*
};

/**
 * `base` with every `ENMC_SERVE_*` environment override applied. Fatal
 * on unparsable values; zero capacities/batches are configuration errors.
 */
ServeConfig serveConfigFromEnv(ServeConfig base = ServeConfig{});

/**
 * Fatal unless the configuration is self-consistent. The one check of a
 * serve backend name: `"cluster"`, `"auto"` or a registered backend.
 */
void validate(const ServeConfig &cfg);

} // namespace enmc::serve

#endif // ENMC_SERVE_CONFIG_H
