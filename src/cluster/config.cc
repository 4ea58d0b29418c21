#include "cluster/config.h"

#include "common/env.h"
#include "common/logging.h"

namespace enmc::cluster {

ClusterConfig
clusterConfigFromEnv(ClusterConfig base)
{
    base.nodes = envU64("ENMC_CLUSTER_NODES", base.nodes);
    base.replication = envU64("ENMC_CLUSTER_REPLICATION", base.replication);
    if (const char *v = envString("ENMC_CLUSTER_NODE_BACKEND"))
        base.node_backend = v;
    base.ranks_per_node =
        envU64("ENMC_CLUSTER_RANKS_PER_NODE", base.ranks_per_node);
    base.node_handoff_us =
        envF64("ENMC_CLUSTER_NODE_HANDOFF_US", base.node_handoff_us);
    base.network.bandwidth =
        envF64("ENMC_CLUSTER_NET_GBPS", base.network.bandwidth / 0.125e9) *
        0.125e9;
    base.network.latency =
        envF64("ENMC_CLUSTER_NET_LAT_US", base.network.latency * 1e6) * 1e-6;
    if (envString("ENMC_CLUSTER_KILL_NODE") != nullptr)
        base.kill.node =
            static_cast<int64_t>(envU64("ENMC_CLUSTER_KILL_NODE", 0));
    base.kill.after_batches =
        envU64("ENMC_CLUSTER_KILL_AFTER", base.kill.after_batches);
    validate(base);
    return base;
}

void
validate(const ClusterConfig &cfg)
{
    if (cfg.nodes == 0)
        ENMC_FATAL("cluster: nodes must be >= 1");
    if (cfg.replication == 0)
        ENMC_FATAL("cluster: replication must be >= 1");
    if (cfg.replication > cfg.nodes)
        ENMC_FATAL("cluster: replication (", cfg.replication,
                   ") exceeds node count (", cfg.nodes, ")");
    if (cfg.ranks_per_node == 0)
        ENMC_FATAL("cluster: ranks_per_node must be >= 1");
    if (cfg.node_handoff_us < 0.0)
        ENMC_FATAL("cluster: node_handoff_us must be non-negative");
    if (cfg.network.bandwidth <= 0.0 || cfg.network.latency < 0.0)
        ENMC_FATAL("cluster: network bandwidth must be positive and "
                   "latency non-negative");
    if (cfg.node_backend.empty())
        ENMC_FATAL("cluster: node_backend name must be non-empty");
    // The router times every node through one backend instance, so a
    // planner there would route all nodes' shards with one shared,
    // adaptive state; and a cluster cannot nest inside a cluster.
    if (cfg.node_backend == "auto" || cfg.node_backend == "cluster")
        ENMC_FATAL("cluster: node_backend '", cfg.node_backend,
                   "' is a meta-backend; name a fixed node backend");
    if (cfg.kill.scripted() &&
        cfg.kill.node >= static_cast<int64_t>(cfg.nodes))
        ENMC_FATAL("cluster: kill.node (", cfg.kill.node,
                   ") is not a node id (nodes=", cfg.nodes, ")");
}

} // namespace enmc::cluster
