/**
 * @file
 * Scale-out ENMC timing (paper Section 8: "our design can scale-out from
 * single-node to distributed nodes, where each node keeps an approximate
 * screener").
 *
 * Categories are partitioned across nodes; each node holds the screener
 * and classifier slices for its partition in its own ENMC memory. One
 * inference: the root broadcasts the (projected, quantized) feature
 * vector, every node runs candidates-only classification locally, and
 * the root gathers each node's partial softmax normalizer + accurate
 * top-candidates. This file models that round's time. The functional
 * scatter/gather is `cluster::ClusterRouter::computeBatch`, whose merge
 * is `gatherShards` (runtime/system.h) — the same merge the ranks inside
 * one node already perform, lifted one level.
 */

#ifndef ENMC_RUNTIME_SCALEOUT_H
#define ENMC_RUNTIME_SCALEOUT_H

#include <cstdint>
#include <vector>

#include "runtime/system.h"

namespace enmc::runtime {

/** Inter-node network model (flat latency/bandwidth, RDMA-style). */
struct NetworkConfig
{
    double bandwidth = 12.5e9;   //!< bytes/sec (100 Gb/s)
    double latency = 2e-6;       //!< per-message one-way latency (s)

    /** One message of `bytes` point-to-point. */
    double messageTime(uint64_t bytes) const
    {
        return latency + static_cast<double>(bytes) / bandwidth;
    }
};

/** A cluster of ENMC-equipped nodes. */
struct ScaleOutConfig
{
    uint64_t nodes = 4;
    NetworkConfig network;
    SystemConfig node;           //!< every node's local ENMC system
};

/** Timing decomposition of one scale-out inference. */
struct ScaleOutResult
{
    uint64_t nodes = 0;
    double broadcast_seconds = 0.0;      //!< feature fan-out
    double classification_seconds = 0.0; //!< slowest node's local work
    double gather_seconds = 0.0;         //!< partial-result collection
    TimingResult node;                   //!< representative node's run

    double total() const
    {
        return broadcast_seconds + classification_seconds + gather_seconds;
    }
};

/**
 * Timing of one batched classification over the cluster.
 * `spec.categories`/`spec.candidates` describe the *global* problem.
 */
ScaleOutResult runScaleOut(const ScaleOutConfig &cfg, const JobSpec &spec);

} // namespace enmc::runtime

#endif // ENMC_RUNTIME_SCALEOUT_H
