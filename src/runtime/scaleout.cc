#include "runtime/scaleout.h"

#include <algorithm>

#include "common/logging.h"
#include "runtime/partition.h"

namespace enmc::runtime {

ScaleOutResult
runScaleOut(const ScaleOutConfig &cfg, const JobSpec &spec)
{
    ENMC_ASSERT(cfg.nodes >= 1, "cluster needs at least one node");
    ScaleOutResult res;
    res.nodes = cfg.nodes;

    // Per-node slice of the global problem.
    JobSpec node_spec = spec;
    node_spec.categories =
        RankPartitioner::sliceRows(spec.categories, cfg.nodes);
    node_spec.candidates = std::max<uint64_t>(
        1, RankPartitioner::evenShare(spec.candidates, cfg.nodes));

    // Phase 1: broadcast the projected + raw features to every node.
    // A flat tree (root sends to each node) is modeled; the quantized
    // projected vector + FP32 hidden vector travel per batch item.
    const uint64_t feat_bytes =
        spec.batch * (ceilDiv(spec.reduced, 2) + spec.hidden * 4);
    if (cfg.nodes > 1) {
        res.broadcast_seconds =
            cfg.network.latency +
            static_cast<double>((cfg.nodes - 1) * feat_bytes) /
                cfg.network.bandwidth;
    }

    // Phase 2: local candidates-only classification (nodes are symmetric;
    // simulate one).
    EnmcSystem node(cfg.node);
    res.node = node.runTiming(node_spec);
    res.classification_seconds = res.node.seconds;

    // Phase 3: gather each node's partial normalizer + accurate
    // candidates at the root.
    const uint64_t result_bytes =
        spec.batch * 8 + node_spec.candidates * spec.batch * 8;
    if (cfg.nodes > 1) {
        res.gather_seconds =
            cfg.network.latency +
            static_cast<double>((cfg.nodes - 1) * result_bytes) /
                cfg.network.bandwidth;
    }
    return res;
}

} // namespace enmc::runtime
