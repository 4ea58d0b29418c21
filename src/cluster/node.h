/**
 * @file
 * One simulated ENMC node of the cluster fabric: the node's own
 * `EnmcSystem` for functional shard execution (seeded per node, so
 * every node draws its own fault streams), an alive flag, and per-node
 * observability ("cluster.node.<id>" stat groups — the per-node view
 * the router's scatter/gather accounting is checked against). A node
 * does not time its shard jobs: timing depends only on the job shape,
 * so the router times every node's shards through its one backend and
 * memo. `kill()` marks a node dead; dead is final.
 */

#ifndef ENMC_CLUSTER_NODE_H
#define ENMC_CLUSTER_NODE_H

#include <vector>

#include "cluster/config.h"
#include "common/stats.h"
#include "obs/registry.h"
#include "runtime/system.h"

namespace enmc::cluster {

class ClusterNode
{
  public:
    ClusterNode(uint32_t id, const ClusterConfig &cfg);

    uint32_t id() const { return id_; }
    bool alive() const { return alive_; }

    /** Mark the node dead; a second kill is a no-op. */
    void kill();

    /** Tally one shard-batch dispatched to this node. */
    void recordDispatch(uint64_t requests);

    /**
     * Functional execution of classifier rows
     * [row_begin, row_begin + rows) on this node's simulated ranks: the
     * shard's own logit rows and global candidate ids (see
     * EnmcSystem::runFunctionalRange). Not reentrant: a node runs its
     * shards one at a time.
     */
    runtime::EnmcSystem::FunctionalResult
    runShard(const nn::Classifier &classifier,
             const screening::Screener &screener,
             const std::vector<tensor::Vector> &h_batch, uint64_t ranks,
             uint64_t row_begin, uint64_t rows) const;

    StatGroup &stats() { return stats_; }

  private:
    static runtime::SystemConfig nodeSystem(uint32_t id,
                                            const ClusterConfig &cfg);

    uint32_t id_;
    bool alive_ = true;
    runtime::EnmcSystem system_;

    // Per-node stats ("cluster.node.<id>").
    StatGroup stats_;
    Counter &stat_dispatched_;
    Counter &stat_requests_;
    Counter &stat_killed_;
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::cluster

#endif // ENMC_CLUSTER_NODE_H
