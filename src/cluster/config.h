/**
 * @file
 * Cluster-fabric configuration and its `ENMC_CLUSTER_*` environment
 * overrides.
 *
 * A cluster is N simulated ENMC nodes, each holding the screener +
 * classifier slices of one label shard (paper Section 8's scale-out:
 * "each node keeps an approximate screener"; replication 1 with no
 * handoff is exactly that model). `replication` copies every shard
 * onto that many nodes (chained declustering), which is what lets the
 * router survive a node death mid-run. `node_handoff_us` is the
 * per-shard-dispatch host cost — NMPO's offload-initiation +
 * completion-detection overhead, now paid per *node* hop rather than
 * once per batch.
 */

#ifndef ENMC_CLUSTER_CONFIG_H
#define ENMC_CLUSTER_CONFIG_H

#include <cstdint>
#include <string>

#include "runtime/system.h"

namespace enmc::cluster {

/** Inter-node network model (flat latency/bandwidth, RDMA-style). */
struct NetworkConfig
{
    double bandwidth = 12.5e9;   //!< bytes/sec (100 Gb/s)
    double latency = 2e-6;       //!< per-message one-way latency (s)
};

/** A scripted mid-run node kill (deterministic failover drills). */
struct ScriptedKill
{
    /** Node id to kill; negative = never. */
    int64_t node = -1;              // ENMC_CLUSTER_KILL_NODE
    /** Router batches dispatched before the kill fires. */
    uint64_t after_batches = 0;     // ENMC_CLUSTER_KILL_AFTER

    bool scripted() const { return node >= 0; }
};

struct ClusterConfig
{
    /** Nodes the label space is sharded across. */
    uint64_t nodes = 4;             // ENMC_CLUSTER_NODES
    /** Replicas per label shard (1 = no replication, no failover). */
    uint64_t replication = 2;       // ENMC_CLUSTER_REPLICATION
    /** Backend registry key every node is timed through; a fixed
     *  backend, not the "auto" or "cluster" meta-backend. */
    std::string node_backend = "enmc"; // ENMC_CLUSTER_NODE_BACKEND
    /** Default ranks a node slices its shard across in functional runs. */
    uint64_t ranks_per_node = 4;    // ENMC_CLUSTER_RANKS_PER_NODE
    /**
     * Per-shard-dispatch host/NIC cost in us (NMPO's handoff at node
     * granularity). Zero-cost on a single-node cluster, which must stay
     * bit-identical to the non-cluster path.
     */
    double node_handoff_us = 10.0;  // ENMC_CLUSTER_NODE_HANDOFF_US
    /** Inter-node network.  */     // ENMC_CLUSTER_NET_GBPS / _NET_LAT_US
    NetworkConfig network;
    /** Every node's local ENMC system. */
    runtime::SystemConfig node;
    ScriptedKill kill;
};

/**
 * `base` with every `ENMC_CLUSTER_*` override applied. Fatal on
 * unparsable values (see common/env.h) and inconsistent shapes.
 */
ClusterConfig clusterConfigFromEnv(ClusterConfig base = ClusterConfig{});

/** Fatal unless the configuration is self-consistent. */
void validate(const ClusterConfig &cfg);

} // namespace enmc::cluster

#endif // ENMC_CLUSTER_CONFIG_H
