/**
 * @file
 * One simulated ENMC node of the cluster fabric: the registry backend
 * that times the node's shard jobs (through its `JobMemo`), the node's
 * own `EnmcSystem` for functional shard execution, an alive flag, and
 * per-node observability ("cluster.node.<id>" stat groups — the
 * per-node view the router's scatter/gather accounting is checked
 * against). `kill()` marks a node dead; dead is final.
 */

#ifndef ENMC_CLUSTER_NODE_H
#define ENMC_CLUSTER_NODE_H

#include <memory>
#include <vector>

#include "cluster/config.h"
#include "common/stats.h"
#include "obs/registry.h"
#include "runtime/backend.h"
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
     * Simulated service time (us) of this node running `rows` label rows
     * of `job` at the given batch/candidate share, through the node's
     * `JobMemo`.
     */
    double shardJobUs(const runtime::JobSpec &job, uint64_t rows,
                      uint64_t batch, uint64_t candidates);

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
    std::unique_ptr<runtime::Backend> backend_;
    runtime::JobMemo jobs_{*backend_};
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
