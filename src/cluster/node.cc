#include "cluster/node.h"

#include "common/logging.h"

namespace enmc::cluster {

runtime::SystemConfig
ClusterNode::nodeSystem(uint32_t id, const ClusterConfig &cfg)
{
    runtime::SystemConfig sys = cfg.node;
    // Every node draws its own fault stream family: same seed on every
    // node would fault the replicas identically, hiding exactly the
    // failures replication exists to mask.
    sys.fault.seed = cfg.node.fault.seed + id;
    return sys;
}

ClusterNode::ClusterNode(uint32_t id, const ClusterConfig &cfg)
    : id_(id),
      system_(nodeSystem(id, cfg)),
      stats_("cluster.node." + std::to_string(id)),
      stat_dispatched_(stats_.addCounter(
          "dispatchedBatches", "shard-batches routed to this node")),
      stat_requests_(stats_.addCounter(
          "servedRequests", "requests inside the shard-batches served")),
      stat_killed_(stats_.addCounter(
          "killed", "times this node was declared dead")),
      stats_registration_(stats_)
{
}

void
ClusterNode::kill()
{
    if (!alive_)
        return;
    alive_ = false;
    ++stat_killed_;
}

void
ClusterNode::recordDispatch(uint64_t requests)
{
    ++stat_dispatched_;
    stat_requests_ += requests;
}

runtime::EnmcSystem::FunctionalResult
ClusterNode::runShard(const nn::Classifier &classifier,
                      const screening::Screener &screener,
                      const std::vector<tensor::Vector> &h_batch,
                      uint64_t ranks, uint64_t row_begin,
                      uint64_t rows) const
{
    ENMC_ASSERT(alive_, "functional shard routed to a dead node");
    return system_.runFunctionalRange(classifier, screener, h_batch, ranks,
                                      row_begin, rows);
}

} // namespace enmc::cluster
