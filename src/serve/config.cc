#include "serve/config.h"

#include "common/env.h"
#include "common/logging.h"
#include "runtime/backend.h"

namespace enmc::serve {

ServeConfig
serveConfigFromEnv(ServeConfig base)
{
    if (const char *v = envString("ENMC_SERVE_BACKEND"))
        base.backend = v;
    base.queue_capacity = envU64("ENMC_SERVE_QUEUE_CAP", base.queue_capacity);
    base.max_batch = envU64("ENMC_SERVE_MAX_BATCH", base.max_batch);
    base.max_delay_us = envF64("ENMC_SERVE_MAX_DELAY_US", base.max_delay_us);
    base.handoff_us = envF64("ENMC_SERVE_HANDOFF_US", base.handoff_us);
    base.warmup_requests = envU64("ENMC_SERVE_WARMUP", base.warmup_requests);
    base.slo_us = envF64("ENMC_SERVE_SLO_US", base.slo_us);
    base.compute_logits = envBool("ENMC_SERVE_LOGITS", base.compute_logits);
    base.topk = envU64("ENMC_SERVE_TOPK", base.topk);
    base.cluster = cluster::clusterConfigFromEnv(base.cluster);
    base.planner = runtime::plannerConfigFromEnv(base.planner);
    validate(base);
    return base;
}

void
validate(const ServeConfig &cfg)
{
    if (cfg.queue_capacity == 0)
        ENMC_FATAL("serve: queue_capacity must be >= 1");
    if (cfg.max_batch == 0)
        ENMC_FATAL("serve: max_batch must be >= 1");
    if (cfg.max_batch > cfg.queue_capacity)
        ENMC_FATAL("serve: max_batch (", cfg.max_batch,
                   ") exceeds queue_capacity (", cfg.queue_capacity, ")");
    if (cfg.max_delay_us < 0.0 || cfg.handoff_us < 0.0 || cfg.slo_us < 0.0)
        ENMC_FATAL("serve: delays and SLO must be non-negative");
    if (cfg.backend.empty())
        ENMC_FATAL("serve: backend name must be non-empty");
    if (cfg.backend == "cluster")
        cluster::validate(cfg.cluster);
    else if (cfg.backend == "auto")
        runtime::validate(cfg.planner);
    else if (!runtime::BackendRegistry::instance().contains(cfg.backend))
        ENMC_FATAL("serve: unknown backend '", cfg.backend,
                   "' (not \"cluster\", \"auto\" or a registered name)");
}

} // namespace enmc::serve
