/**
 * @file
 * Regression tests for `ENMC_SERVE_*` / `ENMC_CLUSTER_*` environment
 * parsing. The contract (common/env.h): an *unset* variable silently
 * falls back to the default; a variable that is set but malformed —
 * empty, negative where unsigned, trailing garbage, overflow,
 * non-finite, non-0/1 boolean — dies loudly instead of being silently
 * ignored (which once shipped a misspelled override as the default).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "serve/config.h"

namespace enmc::serve {
namespace {

/** Clears every variable the config readers look at, for test isolation,
 *  and restores the prior environment on destruction. */
class EnvSandbox
{
  public:
    EnvSandbox()
    {
        for (const char *name : kVars) {
            if (const char *v = std::getenv(name))
                saved_.emplace_back(name, v);
            ::unsetenv(name);
        }
    }

    ~EnvSandbox()
    {
        for (const char *name : kVars)
            ::unsetenv(name);
        for (const auto &[name, value] : saved_)
            ::setenv(name.c_str(), value.c_str(), 1);
    }

    void set(const char *name, const char *value)
    {
        ::setenv(name, value, 1);
    }

  private:
    static constexpr const char *kVars[] = {
        "ENMC_SERVE_BACKEND",   "ENMC_SERVE_QUEUE_CAP",
        "ENMC_SERVE_MAX_BATCH", "ENMC_SERVE_MAX_DELAY_US",
        "ENMC_SERVE_HANDOFF_US", "ENMC_SERVE_WARMUP",
        "ENMC_SERVE_SLO_US",    "ENMC_SERVE_LOGITS",
        "ENMC_SERVE_TOPK",      "ENMC_CLUSTER_NODES",
        "ENMC_CLUSTER_REPLICATION", "ENMC_CLUSTER_NODE_BACKEND",
        "ENMC_CLUSTER_RANKS_PER_NODE", "ENMC_CLUSTER_NODE_HANDOFF_US",
        "ENMC_CLUSTER_NET_GBPS", "ENMC_CLUSTER_NET_LAT_US",
        "ENMC_CLUSTER_KILL_NODE", "ENMC_CLUSTER_KILL_AFTER",
    };

    std::vector<std::pair<std::string, std::string>> saved_;
};

TEST(ServeConfigEnv, UnsetFallsBackToDefaults)
{
    EnvSandbox env;
    const ServeConfig cfg = serveConfigFromEnv();
    const ServeConfig defaults;
    EXPECT_EQ(cfg.backend, defaults.backend);
    EXPECT_EQ(cfg.queue_capacity, defaults.queue_capacity);
    EXPECT_EQ(cfg.max_batch, defaults.max_batch);
    EXPECT_DOUBLE_EQ(cfg.max_delay_us, defaults.max_delay_us);
    EXPECT_EQ(cfg.compute_logits, defaults.compute_logits);
    EXPECT_EQ(cfg.topk, defaults.topk);
    EXPECT_EQ(cfg.cluster.nodes, defaults.cluster.nodes);
}

TEST(ServeConfigEnv, WellFormedOverridesApply)
{
    EnvSandbox env;
    env.set("ENMC_SERVE_BACKEND", "tensordimm");
    env.set("ENMC_SERVE_QUEUE_CAP", "128");
    env.set("ENMC_SERVE_MAX_BATCH", "32");
    env.set("ENMC_SERVE_MAX_DELAY_US", "75.5");
    env.set("ENMC_SERVE_LOGITS", "0");
    env.set("ENMC_SERVE_TOPK", "10");
    env.set("ENMC_CLUSTER_NODES", "8");
    env.set("ENMC_CLUSTER_REPLICATION", "3");
    const ServeConfig cfg = serveConfigFromEnv();
    EXPECT_EQ(cfg.backend, "tensordimm");
    EXPECT_EQ(cfg.queue_capacity, 128u);
    EXPECT_EQ(cfg.max_batch, 32u);
    EXPECT_DOUBLE_EQ(cfg.max_delay_us, 75.5);
    EXPECT_FALSE(cfg.compute_logits);
    EXPECT_EQ(cfg.topk, 10u);
    EXPECT_EQ(cfg.cluster.nodes, 8u);
    EXPECT_EQ(cfg.cluster.replication, 3u);
}

using ServeConfigEnvDeath = ::testing::Test;

TEST(ServeConfigEnvDeath, MalformedValuesDieLoudly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EnvSandbox env;

    env.set("ENMC_SERVE_MAX_BATCH", "abc");
    EXPECT_DEATH(serveConfigFromEnv(), "ENMC_SERVE_MAX_BATCH");

    env.set("ENMC_SERVE_MAX_BATCH", "-3");
    EXPECT_DEATH(serveConfigFromEnv(), "non-negative");

    env.set("ENMC_SERVE_MAX_BATCH", "");
    EXPECT_DEATH(serveConfigFromEnv(), "set but empty");

    env.set("ENMC_SERVE_MAX_BATCH", "99999999999999999999");
    EXPECT_DEATH(serveConfigFromEnv(), "overflows");

    env.set("ENMC_SERVE_MAX_BATCH", "8 ");
    EXPECT_DEATH(serveConfigFromEnv(), "unsigned integer");
}

TEST(ServeConfigEnvDeath, MalformedFloatsAndBoolsDieLoudly)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EnvSandbox env;

    env.set("ENMC_SERVE_MAX_DELAY_US", "nan");
    EXPECT_DEATH(serveConfigFromEnv(), "finite");

    env.set("ENMC_SERVE_MAX_DELAY_US", "50us");
    EXPECT_DEATH(serveConfigFromEnv(), "must be a number");

    env.set("ENMC_SERVE_MAX_DELAY_US", "50.0");
    env.set("ENMC_SERVE_LOGITS", "yes");
    EXPECT_DEATH(serveConfigFromEnv(), "must be 0 or 1");
}

TEST(ServeConfigEnvDeath, InconsistentValuesDieInValidation)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EnvSandbox env;

    // Parses fine, but max_batch can never fill from a smaller queue.
    env.set("ENMC_SERVE_QUEUE_CAP", "4");
    env.set("ENMC_SERVE_MAX_BATCH", "16");
    EXPECT_DEATH(serveConfigFromEnv(), "exceeds queue_capacity");
}

TEST(ServeConfigEnvDeath, ClusterShapeCheckedWhenClusterSelected)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EnvSandbox env;
    env.set("ENMC_SERVE_BACKEND", "cluster");
    env.set("ENMC_CLUSTER_NODES", "2");
    env.set("ENMC_CLUSTER_REPLICATION", "4");
    EXPECT_DEATH(serveConfigFromEnv(), "replication.*exceeds node count");
}

TEST(ServeConfigEnvDeath, BackendIsClusterAutoOrRegistered)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EnvSandbox env;
    for (const char *name : {"cluster", "auto", "tensordimm"}) {
        env.set("ENMC_SERVE_BACKEND", name);
        EXPECT_EQ(serveConfigFromEnv().backend, name);
    }
    env.set("ENMC_SERVE_BACKEND", "not-a-backend");
    EXPECT_DEATH(serveConfigFromEnv(), "unknown backend 'not-a-backend'");
}

} // namespace
} // namespace enmc::serve
