#include "cluster/router.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "tensor/topk.h"

namespace enmc::cluster {

namespace {

const ClusterConfig &
validated(const ClusterConfig &cfg)
{
    validate(cfg);
    return cfg;
}

} // namespace

ClusterRouter::ClusterRouter(const ClusterConfig &cfg,
                             const runtime::JobSpec &job)
    : cfg_(validated(cfg)), job_(job),
      backend_(runtime::createBackend(cfg_.node_backend, cfg_.node)),
      stats_("cluster.router"),
      stat_batches_(stats_.addCounter("routedBatches",
                                      "batches routed through the cluster")),
      stat_shard_dispatches_(stats_.addCounter(
          "shardDispatches",
          "shard-batches dispatched to nodes (fan-out total)")),
      stat_reroutes_(stats_.addCounter(
          "reroutes", "shard dispatches whose primary replica was dead")),
      stat_dead_dispatches_(stats_.addCounter(
          "deadDispatches", "dispatches sent to a dead node (must be 0)")),
      stat_kills_(stats_.addCounter("nodeKills", "nodes declared dead")),
      stat_live_nodes_(stats_.addScalar(
          "liveNodes", "live nodes observed at each routed batch")),
      stat_fanout_(stats_.addHistogram(
          "fanOut", "owning shards dispatched per routed batch", 0.0, 64.0,
          32)),
      stats_registration_(stats_)
{
    ENMC_ASSERT(job_.categories >= 1,
                "cluster router needs a non-empty label space");
    shards_ = runtime::RankPartitioner::partition(0, job_.categories,
                                                  cfg_.nodes);
    nodes_.reserve(cfg_.nodes);
    for (uint64_t n = 0; n < cfg_.nodes; ++n)
        nodes_.push_back(std::make_unique<ClusterNode>(
            static_cast<uint32_t>(n), cfg_));
}

std::vector<uint32_t>
ClusterRouter::replicasOf(size_t shard) const
{
    ENMC_ASSERT(shard < shards_.size(), "replica query past the shard map");
    // Chained declustering: shard s lives on nodes s, s+1, ... (mod N).
    std::vector<uint32_t> replicas;
    replicas.reserve(cfg_.replication);
    for (uint64_t r = 0; r < cfg_.replication; ++r)
        replicas.push_back(
            static_cast<uint32_t>((shard + r) % nodes_.size()));
    return replicas;
}

uint64_t
ClusterRouter::liveNodeCount() const
{
    uint64_t live = 0;
    for (const auto &node : nodes_)
        live += node->alive() ? 1 : 0;
    return live;
}

uint64_t
ClusterRouter::candidateShare(uint64_t candidates) const
{
    return std::max<uint64_t>(
        1, runtime::RankPartitioner::evenShare(candidates, shards_.size()));
}

double
ClusterRouter::shardJobUs(uint64_t rows, uint64_t batch,
                          uint64_t candidates) const
{
    runtime::JobSpec spec = job_;
    spec.categories = rows;
    spec.batch = batch;
    spec.candidates = candidates;
    return jobs_.runJob(spec).seconds * 1e6;
}

void
ClusterRouter::killNodeLocked(uint32_t id, double now_us)
{
    ENMC_ASSERT(id < nodes_.size(), "kill of an unknown node");
    if (!nodes_[id]->alive())
        return;
    nodes_[id]->kill();
    ++stat_kills_;
    obs::Tracer &tracer = obs::Tracer::instance();
    if (tracer.enabled())
        tracer.instant("node.kill", "cluster", obs::kClusterPid, id, now_us,
                       {{"nodeKills",
                         static_cast<double>(stat_kills_.value())}});
}

void
ClusterRouter::killNode(uint32_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    killNodeLocked(id, obs::Tracer::instance().nowUs());
}

std::vector<uint32_t>
ClusterRouter::routeBatch(uint64_t batch, uint64_t candidates,
                          double now_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (cfg_.kill.scripted() && !scripted_kill_fired_ &&
        batches_routed_ >= cfg_.kill.after_batches) {
        scripted_kill_fired_ = true;
        killNodeLocked(static_cast<uint32_t>(cfg_.kill.node), now_us);
    }

    std::vector<uint32_t> owners(shards_.size());
    obs::Tracer &tracer = obs::Tracer::instance();
    for (size_t s = 0; s < shards_.size(); ++s) {
        const uint32_t owner = firstLiveReplica(s);
        owners[s] = owner;
        if (!nodes_[s % nodes_.size()]->alive())
            ++stat_reroutes_;
        if (!nodes_[owner]->alive())
            ++stat_dead_dispatches_; // firstLiveReplica keeps this at 0
        nodes_[owner]->recordDispatch(batch);
        ++stat_shard_dispatches_;
        if (tracer.enabled())
            tracer.instant("shard.dispatch", "cluster", obs::kClusterPid,
                           owner, now_us,
                           {{"shard", static_cast<double>(s)},
                            {"batch", static_cast<double>(batch)},
                            {"candidates",
                             static_cast<double>(candidates)}});
    }

    ++batches_routed_;
    ++stat_batches_;
    stat_live_nodes_.sample(static_cast<double>(liveNodeCount()));
    stat_fanout_.sample(static_cast<double>(owners.size()));
    return owners;
}

uint32_t
ClusterRouter::firstLiveReplica(size_t shard) const
{
    // Chained declustering, as in replicasOf(), but not bounded by the
    // timing shard map: ceil slicing can give the functional shard map
    // more shards than the timing map (4 nodes: 4 shards over 7 rows, 3
    // over 9). Routing, timing and compute all take this owner, so the
    // node the stats and the trace report is the node the clock charges.
    for (uint64_t r = 0; r < cfg_.replication; ++r) {
        const uint32_t id = static_cast<uint32_t>((shard + r) % nodes_.size());
        if (nodes_[id]->alive())
            return id;
    }
    ENMC_FATAL("no live replica left for shard ", shard, " (replication ",
               cfg_.replication, ")");
}

ClusterRouter::ServiceBreakdown
ClusterRouter::serviceBreakdown(uint64_t batch, uint64_t candidates)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceBreakdown t;
    // A one-node cluster is the degenerate fabric: no scatter, no gather,
    // no handoff — exactly the single-backend service time, so the
    // 1-node cluster stays bit-identical to the non-cluster path.
    if (nodes_.size() == 1) {
        t.compute_us = shardJobUs(shards_[0].rows, batch, candidates);
        return t;
    }

    // Scatter: the router sends each owning shard's features
    // point-to-point, plus one ingest handoff per shard message.
    const uint64_t feat_bytes =
        batch * (ceilDiv(job_.reduced, 2) + job_.hidden * 4);
    t.scatter_us = cfg_.network.latency * 1e6 +
                   static_cast<double>(shards_.size() * feat_bytes) /
                       cfg_.network.bandwidth * 1e6 +
                   static_cast<double>(shards_.size()) * cfg_.node_handoff_us;

    // Compute: shards assigned to the same node serialize on it; the
    // batch finishes when the slowest node does.
    const uint64_t cand_share = candidateShare(candidates);
    std::vector<double> node_us(nodes_.size(), 0.0);
    for (size_t s = 0; s < shards_.size(); ++s) {
        const uint32_t owner = firstLiveReplica(s);
        node_us[owner] += shardJobUs(shards_[s].rows, batch, cand_share);
    }
    t.compute_us = *std::max_element(node_us.begin(), node_us.end());

    // Gather: per-shard partial normalizer + accurate candidates.
    const uint64_t result_bytes = batch * 8 + cand_share * batch * 8;
    t.gather_us = cfg_.network.latency * 1e6 +
                  static_cast<double>(shards_.size() * result_bytes) /
                      cfg_.network.bandwidth * 1e6;
    return t;
}

runtime::EnmcSystem::FunctionalResult
ClusterRouter::runFunctional(const nn::Classifier &classifier,
                             const screening::Screener &screener,
                             const std::vector<tensor::Vector> &h_batch,
                             uint64_t ranks)
{
    const uint64_t l = classifier.categories();
    ENMC_ASSERT(l <= job_.categories,
                "classifier larger than the sharded label space");
    const uint64_t use_ranks = ranks == 0 ? cfg_.ranks_per_node : ranks;

    // Functional sharding follows the label rows actually present on the
    // classifier (functional-scale models are smaller than the timing
    // job), under the same partition policy as the timing shard map.
    const std::vector<runtime::RowSlice> fshards =
        runtime::RankPartitioner::partition(
            0, l, std::min<uint64_t>(cfg_.nodes, l));
    std::vector<std::vector<size_t>> shards_of(nodes_.size());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t s = 0; s < fshards.size(); ++s)
            shards_of[firstLiveReplica(s)].push_back(s);
    }

    // Scatter: nodes run concurrently, and each runs its own shards in
    // shard order, the serialisation the timing model charges (and one
    // runShard at a time per node's EnmcSystem). Shards own disjoint
    // label rows and gatherShards merges them in shard order, which
    // keeps the result bit-identical to the serial (and the single-node)
    // run.
    std::vector<runtime::EnmcSystem::FunctionalResult> parts(fshards.size());
    parallelFor(0, nodes_.size(), cfg_.node.sim_threads, [&](size_t n) {
        for (const size_t s : shards_of[n])
            parts[s] = nodes_[n]->runShard(classifier, screener, h_batch,
                                           use_ranks, fshards[s].begin,
                                           fshards[s].rows);
    });
    return runtime::gatherShards(std::move(parts),
                                 classifier.normalization());
}

std::vector<runtime::ClassifierOutput>
ClusterRouter::computeBatch(const nn::Classifier &classifier,
                            const screening::Screener &screener,
                            const std::vector<tensor::Vector> &h_batch,
                            size_t k, uint64_t ranks)
{
    const uint64_t l = classifier.categories();
    runtime::EnmcSystem::FunctionalResult gathered =
        runFunctional(classifier, screener, h_batch, ranks);
    const std::vector<runtime::RowSlice> fshards =
        runtime::RankPartitioner::partition(
            0, l, std::min<uint64_t>(cfg_.nodes, l));

    // The global top-k as a mergeTopK over per-shard top-k lists — the
    // bounded-heap merge the ranks inside one node already use, lifted
    // to node granularity.
    std::vector<runtime::ClassifierOutput> outputs(h_batch.size());
    for (size_t item = 0; item < outputs.size(); ++item) {
        runtime::ClassifierOutput &out = outputs[item];
        out.probabilities = std::move(gathered.probabilities[item]);
        std::vector<std::vector<tensor::Scored>> shard_tops(fshards.size());
        for (size_t s = 0; s < fshards.size(); ++s) {
            shard_tops[s] = tensor::topkScored(
                std::span<const float>(
                    out.probabilities.data() + fshards[s].begin,
                    fshards[s].rows),
                k, static_cast<uint32_t>(fshards[s].begin));
        }
        const std::vector<tensor::Scored> merged =
            tensor::mergeTopK(shard_tops, k);
        out.topk.reserve(merged.size());
        for (const tensor::Scored &sc : merged)
            out.topk.push_back(sc.index);
        out.candidates = std::move(gathered.candidates[item]);
    }
    return outputs;
}

} // namespace enmc::cluster
