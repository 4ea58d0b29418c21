/**
 * @file
 * The cluster router: shards the label space across N simulated ENMC
 * nodes and scatter/gathers every batch across the owning shards.
 *
 * **Sharding.** Shard s holds the contiguous label rows
 * `RankPartitioner::partition(0, l, nodes)[s]` — the same ceil-slicing
 * policy the ranks inside one node already use, lifted one level.
 * `replication` copies shard s onto nodes {(s + r) mod nodes} (chained
 * declustering: every node carries one primary and replication-1
 * foreign shards, so losing a node spreads its load over several
 * survivors instead of doubling one).
 *
 * **Routing.** Every dispatched batch fans out to all owning shards,
 * and shard s goes to its first live replica in chained order (its
 * primary while that lives). One owner function, `firstLiveReplica`,
 * serves routing, the service-time model and the functional run, so the
 * per-node stats and the `shard.dispatch` trace name the node the
 * simulated clock charges and the node that computes the shard. The
 * assignment is a pure function of the kill history — replayable
 * bit-for-bit.
 *
 * **Timing.** The router owns the cluster's one timing backend
 * (`node_backend` over the shared node system) and one `JobMemo` over
 * it. A shard job's time depends only on its shape (rows, batch,
 * candidate share), never on which node runs it: no backend's `runJob`
 * reads the fault seed, the only field a node's system varies. So each
 * distinct shard shape is simulated once for the whole cluster.
 *
 * **Failover.** `ClusterNode::kill()` (scripted or by the operator)
 * marks a node dead, and dead is final: its shards fail over to the
 * next live replica in the chain, and the router dies loudly if a shard
 * has no live replica left. Merging is through `tensor::mergeTopK`, so
 * a failover changes *which node computed* a shard, never the answer.
 */

#ifndef ENMC_CLUSTER_ROUTER_H
#define ENMC_CLUSTER_ROUTER_H

#include <memory>
#include <mutex>
#include <vector>

#include "cluster/config.h"
#include "cluster/node.h"
#include "common/stats.h"
#include "obs/registry.h"
#include "runtime/api.h"
#include "runtime/backend.h"
#include "runtime/partition.h"

namespace enmc::cluster {

class ClusterRouter
{
  public:
    /**
     * @param cfg Cluster shape (validated fatally).
     * @param job Full-scale job dimensions; `job.categories` is the
     *            global label space being sharded.
     */
    ClusterRouter(const ClusterConfig &cfg, const runtime::JobSpec &job);

    const ClusterConfig &config() const { return cfg_; }
    size_t nodeCount() const { return nodes_.size(); }
    size_t shardCount() const { return shards_.size(); }
    const std::vector<runtime::RowSlice> &shards() const { return shards_; }

    ClusterNode &node(size_t id) { return *nodes_.at(id); }

    /** Replica node ids owning shard s, in chained-declustering order
     *  (the first entry is the shard's primary). */
    std::vector<uint32_t> replicasOf(size_t shard) const;

    /**
     * Route one dispatched batch: fire any scripted kill that is due,
     * then dispatch each shard to its first live replica and tally the
     * per-node and router stats. Called exactly once per dispatched
     * batch, in both replay and live serving modes. Fatal when a shard
     * has no live replica left.
     * @return The owning node id of each shard, in shard order.
     */
    std::vector<uint32_t> routeBatch(uint64_t batch, uint64_t candidates,
                                     double now_us);

    /** The three simulated terms of one batch's service time (us). */
    struct ServiceBreakdown
    {
        double scatter_us = 0.0; //!< feature scatter + per-shard handoff
        double compute_us = 0.0; //!< the slowest node's summed shard work
        double gather_us = 0.0;  //!< partial-result gather at the root

        double totalUs() const
        {
            return scatter_us + compute_us + gather_us;
        }
    };

    /**
     * Simulated scatter -> compute -> gather terms of one batch: one
     * feature message per shard plus a node handoff each, the slowest
     * node's summed shard work (each shard charged to the owner
     * routeBatch dispatches it to), and one result message per shard.
     * The network and handoff terms are zero on a single-node cluster,
     * which therefore times bit-identically to the plain single-backend
     * path. Re-derived on every call from the live node set; the shard
     * jobs behind it go through the router's one `JobMemo`.
     */
    ServiceBreakdown serviceBreakdown(uint64_t batch, uint64_t candidates);

    /** `serviceBreakdown(batch, candidates).totalUs()`. */
    double serviceUs(uint64_t batch, uint64_t candidates)
    {
        return serviceBreakdown(batch, candidates).totalUs();
    }

    /**
     * Functional run of a batch — the cluster's `runtime::MissRunner`:
     * every shard's owner runs its label rows through its node's ranks
     * (owning nodes concurrently, each through its shards in shard
     * order), and `runtime::gatherShards` merges them in shard order and
     * normalizes once. Bit-identical to `EnmcSystem::runFunctional` for
     * any node count and health history (partition invariance).
     * @param ranks Ranks per node to slice across; 0 = config default.
     */
    runtime::EnmcSystem::FunctionalResult
    runFunctional(const nn::Classifier &classifier,
                  const screening::Screener &screener,
                  const std::vector<tensor::Vector> &h_batch,
                  uint64_t ranks);

    /** runFunctional() plus the global top-k through `tensor::mergeTopK`
     *  over per-shard top-k lists: the fabric's standalone probe,
     *  bit-identical to a cache-off `EnmcClassifier::forward`. */
    std::vector<runtime::ClassifierOutput>
    computeBatch(const nn::Classifier &classifier,
                 const screening::Screener &screener,
                 const std::vector<tensor::Vector> &h_batch, size_t k,
                 uint64_t ranks = 0);

    /** Operator kill (the scripted kill calls this internally). */
    void killNode(uint32_t id);

    uint64_t liveNodeCount() const;

    StatGroup &stats() { return stats_; }

  private:
    /** Shard s's owner: its first live replica in chained order. Fatal
     *  when none is live. Caller holds mutex_. */
    uint32_t firstLiveReplica(size_t shard) const;
    void killNodeLocked(uint32_t id, double now_us);
    uint64_t candidateShare(uint64_t candidates) const;
    /** Simulated time (us) of one node running `rows` label rows of
     *  the job at the given batch/candidate share, through `jobs_`. */
    double shardJobUs(uint64_t rows, uint64_t batch,
                      uint64_t candidates) const;

    ClusterConfig cfg_;
    runtime::JobSpec job_;
    std::vector<runtime::RowSlice> shards_;
    std::vector<std::unique_ptr<ClusterNode>> nodes_;
    std::unique_ptr<runtime::Backend> backend_;
    runtime::JobMemo jobs_{*backend_};

    mutable std::mutex mutex_;
    uint64_t batches_routed_ = 0;
    bool scripted_kill_fired_ = false;

    // Router-level stats ("cluster.router").
    StatGroup stats_;
    Counter &stat_batches_;
    Counter &stat_shard_dispatches_;
    Counter &stat_reroutes_;
    Counter &stat_dead_dispatches_;
    Counter &stat_kills_;
    ScalarStat &stat_live_nodes_;
    Histogram &stat_fanout_;
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::cluster

#endif // ENMC_CLUSTER_ROUTER_H
