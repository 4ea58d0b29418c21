/**
 * @file
 * Tests for the cluster fabric's building blocks: the shard map
 * (RankPartitioner at node granularity, including degenerate shapes),
 * chained-declustering replica placement, final node kills, routing to
 * each shard's first live replica (the owner the clock charges),
 * scripted kills + failover, and the live-set scatter/compute/gather
 * service-time model through the router's one timing memo.
 */

#include <gtest/gtest.h>

#include <set>

#include "cluster/router.h"
#include "obs/registry.h"

namespace enmc::cluster {
namespace {

runtime::JobSpec
job(uint64_t categories = 32768)
{
    runtime::JobSpec spec;
    spec.categories = categories;
    spec.hidden = 128;
    spec.reduced = 32;
    spec.candidates = 512;
    return spec;
}

ClusterConfig
config(uint64_t nodes = 4, uint64_t replication = 2)
{
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.replication = replication;
    return cfg;
}

// --- shard map (RankPartitioner degenerate shapes) ----------------------

TEST(Partitioner, FewerLabelsThanShardsDropsEmptyShards)
{
    // 3 labels over 8 parts: ceil slicing gives 1-row slices; the five
    // trailing empty slices must be dropped, not emitted as zero-row
    // shards a router would scatter work to.
    const auto slices = runtime::RankPartitioner::partition(0, 3, 8);
    ASSERT_EQ(slices.size(), 3u);
    for (size_t s = 0; s < slices.size(); ++s) {
        EXPECT_EQ(slices[s].begin, s);
        EXPECT_EQ(slices[s].rows, 1u);
    }
}

TEST(Partitioner, ZeroRowsYieldsNoShards)
{
    EXPECT_TRUE(runtime::RankPartitioner::partition(5, 0, 4).empty());
}

TEST(Partitioner, SinglePartTakesEverything)
{
    const auto slices = runtime::RankPartitioner::partition(7, 100, 1);
    ASSERT_EQ(slices.size(), 1u);
    EXPECT_EQ(slices[0].begin, 7u);
    EXPECT_EQ(slices[0].rows, 100u);
}

TEST(Partitioner, NonDividingRemainderCoversExactly)
{
    // 10 rows over 4 parts: 3+3+3+1, contiguous, disjoint, complete.
    const auto slices = runtime::RankPartitioner::partition(0, 10, 4);
    ASSERT_EQ(slices.size(), 4u);
    uint64_t next = 0, total = 0;
    for (const auto &s : slices) {
        EXPECT_EQ(s.begin, next);
        EXPECT_GT(s.rows, 0u);
        next = s.begin + s.rows;
        total += s.rows;
    }
    EXPECT_EQ(total, 10u);
    EXPECT_EQ(slices.back().rows, 1u);
}

// --- node kills -----------------------------------------------------------

TEST(ClusterNode, KillIsImmediate)
{
    ClusterNode node(0, ClusterConfig{});
    EXPECT_TRUE(node.alive());
    node.kill();
    EXPECT_FALSE(node.alive());
    EXPECT_EQ(node.stats().counter("killed").value(), 1u);
    node.kill(); // dead is final; a second kill is not counted
    EXPECT_FALSE(node.alive());
    EXPECT_EQ(node.stats().counter("killed").value(), 1u);
}

// --- configuration validation -------------------------------------------

TEST(ClusterConfigDeath, RejectsInconsistentShapes)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ClusterConfig bad = config();
    bad.replication = 5; // > nodes
    EXPECT_DEATH(validate(bad), "replication");

    bad = config();
    bad.nodes = 0;
    EXPECT_DEATH(validate(bad), "nodes");

    bad = config();
    bad.kill.node = 4; // not a node id of a 4-node cluster
    EXPECT_DEATH(validate(bad), "kill");
}

TEST(ClusterConfigDeath, RejectsMetaNodeBackends)
{
    // The router times every node through one backend: a planner there
    // would route all nodes with one adaptive state, and a cluster
    // cannot nest inside a cluster.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *meta : {"auto", "cluster"}) {
        ClusterConfig bad = config();
        bad.node_backend = meta;
        EXPECT_DEATH(validate(bad), "meta-backend") << meta;
    }
}

// --- router: shard map + replica placement ------------------------------

TEST(Router, ShardsCoverLabelSpaceDisjointly)
{
    ClusterRouter router(config(4, 2), job(10'000));
    ASSERT_EQ(router.shardCount(), 4u);
    uint64_t next = 0, total = 0;
    for (const auto &s : router.shards()) {
        EXPECT_EQ(s.begin, next);
        next = s.begin + s.rows;
        total += s.rows;
    }
    EXPECT_EQ(total, 10'000u);
}

TEST(Router, SmallLabelSpaceDropsEmptyShards)
{
    // 3 labels, 8 nodes: only 3 shards exist; the other nodes are pure
    // replica targets.
    ClusterRouter router(config(8, 2), job(3));
    EXPECT_EQ(router.shardCount(), 3u);
    EXPECT_EQ(router.nodeCount(), 8u);
}

TEST(Router, ChainedDeclusteringPlacesReplicas)
{
    ClusterRouter router(config(4, 3), job());
    EXPECT_EQ(router.replicasOf(0), (std::vector<uint32_t>{0, 1, 2}));
    EXPECT_EQ(router.replicasOf(3), (std::vector<uint32_t>{3, 0, 1}));
    // Distinct replicas per shard (replication <= nodes).
    for (size_t s = 0; s < router.shardCount(); ++s) {
        const auto reps = router.replicasOf(s);
        std::set<uint32_t> uniq(reps.begin(), reps.end());
        EXPECT_EQ(uniq.size(), reps.size());
    }
}

// --- router: routing, kills, failover -----------------------------------

TEST(Router, RouteBalancesAcrossReplicasDeterministically)
{
    ClusterRouter a(config(4, 2), job());
    ClusterRouter b(config(4, 2), job());
    for (int i = 0; i < 16; ++i) {
        const auto ra = a.routeBatch(8, 64, 0.0);
        const auto rb = b.routeBatch(8, 64, 0.0);
        ASSERT_EQ(ra.size(), 4u); // every shard dispatched
        for (size_t s = 0; s < ra.size(); ++s)
            EXPECT_EQ(ra[s], rb[s]) << "batch " << i;
    }
    // All nodes carried load (every node is a live primary).
    for (size_t n = 0; n < a.nodeCount(); ++n)
        EXPECT_GT(a.node(n).stats().counter("dispatchedBatches").value(),
                  0u)
            << "node " << n;
    EXPECT_EQ(a.stats().counter("routedBatches").value(), 16u);
    EXPECT_EQ(a.stats().counter("shardDispatches").value(), 64u);
    EXPECT_EQ(a.stats().counter("deadDispatches").value(), 0u);
}

TEST(Router, FailoverReroutesAroundDeadNode)
{
    ClusterRouter router(config(4, 2), job());
    router.routeBatch(8, 64, 0.0);
    router.killNode(1);
    EXPECT_EQ(router.liveNodeCount(), 3u);

    for (int i = 0; i < 8; ++i) {
        const auto owners = router.routeBatch(8, 64, 1.0 + i);
        for (const uint32_t owner : owners)
            EXPECT_NE(owner, 1u) << "dispatch to a dead node";
    }
    // Shard 1's primary is dead, so each post-kill batch reroutes it.
    EXPECT_GE(router.stats().counter("reroutes").value(), 8u);
    EXPECT_EQ(router.stats().counter("deadDispatches").value(), 0u);
    EXPECT_EQ(router.stats().counter("nodeKills").value(), 1u);
    EXPECT_EQ(router.node(1).stats().counter("killed").value(), 1u);
    // Killing again is a no-op, not a double-count.
    router.killNode(1);
    EXPECT_EQ(router.stats().counter("nodeKills").value(), 1u);
}

TEST(Router, RoutedOwnersAreTheTimedOwners)
{
    const runtime::JobSpec spec = job();
    ClusterRouter router(config(4, 2), spec);
    router.routeBatch(8, 64, 0.0);
    router.killNode(1);

    // Shard 1 fails over to node 2, which also owns shard 2: routing
    // must name the same owners the service-time model charges.
    const Counter &node2 = router.node(2).stats().counter("dispatchedBatches");
    for (int i = 0; i < 3; ++i) {
        const uint64_t before = node2.value();
        const std::vector<uint32_t> owners =
            router.routeBatch(8, 64, 1.0 + i);
        ASSERT_EQ(owners.size(), 4u);
        EXPECT_EQ(owners[1], 2u);
        EXPECT_EQ(owners[2], 2u);
        EXPECT_EQ(node2.value(), before + 2) << "batch " << i;
    }

    const auto backend = runtime::createBackend("enmc", router.config().node);
    const auto shard_us = [&](size_t s) {
        runtime::JobSpec shard = spec;
        shard.categories = router.shards()[s].rows;
        shard.batch = 8;
        shard.candidates = runtime::RankPartitioner::evenShare(64, 4);
        return backend->runJob(shard).seconds * 1e6;
    };
    EXPECT_DOUBLE_EQ(router.serviceBreakdown(8, 64).compute_us,
                     shard_us(1) + shard_us(2));
}

uint64_t
timingRuns()
{
    return obs::StatRegistry::instance()
        .snapshot()
        .at("runtime.system")
        .counter("timingRuns")
        .value();
}

TEST(Router, TimesEachDistinctShardJobOnce)
{
    // Four equal shards, two replicas each: every node's shard job of a
    // batch size has one shape, so the router's one memo simulates it
    // once, and a failover re-times from the memo.
    ClusterRouter router(config(4, 2), job());
    const uint64_t before = timingRuns();
    for (uint64_t batch = 1; batch <= 4; ++batch)
        router.serviceUs(batch, 64);
    EXPECT_EQ(timingRuns(), before + 4);

    router.killNode(1);
    for (uint64_t batch = 1; batch <= 4; ++batch)
        router.serviceUs(batch, 64);
    EXPECT_EQ(timingRuns(), before + 4);
}

TEST(Router, ScriptedKillFiresAtTheConfiguredBatch)
{
    ClusterConfig cfg = config(4, 2);
    cfg.kill.node = 2;
    cfg.kill.after_batches = 3;
    ClusterRouter router(cfg, job());
    for (int i = 0; i < 3; ++i) {
        router.routeBatch(8, 64, static_cast<double>(i));
        EXPECT_EQ(router.liveNodeCount(), 4u) << "kill fired early";
    }
    router.routeBatch(8, 64, 3.0); // fourth batch: kill fires first
    EXPECT_EQ(router.liveNodeCount(), 3u);
    EXPECT_FALSE(router.node(2).alive());
}

TEST(RouterDeath, DiesWhenNoLiveReplicaRemains)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // replication 1: killing any node orphans its shard.
    ClusterConfig cfg = config(2, 1);
    ClusterRouter router(cfg, job());
    router.killNode(0);
    EXPECT_DEATH(router.routeBatch(8, 64, 0.0), "no live replica");
}

// --- router: service-time model -----------------------------------------

TEST(Router, SingleNodeServiceTimeMatchesPlainBackend)
{
    // The degenerate fabric: no scatter/gather/handoff terms, so the
    // 1-node cluster must time bit-identically to the plain backend.
    const runtime::JobSpec spec = job();
    ClusterConfig cfg = config(1, 1);
    ClusterRouter router(cfg, spec);

    auto backend = runtime::createBackend("enmc", cfg.node);
    runtime::JobSpec ref = spec;
    ref.batch = 8;
    ref.candidates = 64;
    const double plain_us = backend->runJob(ref).seconds * 1e6;
    EXPECT_DOUBLE_EQ(router.serviceUs(8, 64), plain_us);
}

TEST(Router, MultiNodeServiceAddsNetworkAndShrinksCompute)
{
    const runtime::JobSpec spec = job(1'000'000);
    ClusterRouter one(config(1, 1), spec);
    ClusterRouter four(config(4, 2), spec);
    const double t1 = one.serviceUs(8, 512);
    const double t4 = four.serviceUs(8, 512);
    EXPECT_GT(t4, 0.0);
    EXPECT_LT(t4, t1); // sharding 1M labels 4-way wins despite network
}

TEST(Router, ServiceTimeRetimesAfterAKill)
{
    ClusterRouter router(config(4, 2), job(1'000'000));
    const double before = router.serviceUs(8, 512);
    router.killNode(0);
    const double after = router.serviceUs(8, 512);
    // Node 0's shard fails over to node 1, which now runs two shards
    // serially: the batch must get slower, not serve a frozen memo.
    EXPECT_GT(after, before);
}

} // namespace
} // namespace enmc::cluster
