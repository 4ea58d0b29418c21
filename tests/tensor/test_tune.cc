/**
 * @file
 * Tests for the enmc.tune persistence layer: round-trip through the
 * JSON document, microarch keying, fail-loud schema validation, and the
 * ENMC_TUNE_JSON load path (including the ENMC_KERNELS-wins rule).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/json.h"
#include "tensor/kernels.h"
#include "tensor/tune.h"

namespace enmc::tensor::tune {
namespace {

/** Restores dispatch target and tune params after each test. */
class TuneTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        kernels::setActiveTarget(saved_);
        kernels::setTuneParams(saved_tune_);
    }
    kernels::Target saved_ = kernels::activeTarget();
    kernels::TuneParams saved_tune_ = kernels::tune();
};

TunedConfig
sampleConfig()
{
    TunedConfig cfg;
    cfg.host.gemv_row_chunk = 512;
    cfg.host.gemv_parallel_min_work = 1u << 20;
    cfg.host.batch_query_tile = 4;
    cfg.host.batch_row_tile = 256;
    cfg.host.topk_scan_cutoff = 4096;
    cfg.kernels_target = "scalar";
    SimTune st;
    st.ranks_per_channel = 8;
    st.int4_macs = 256;
    st.inst_fifo_depth = 32;
    st.prefetch_tiles = 4;
    st.ddr_cycles = 123456;
    cfg.sim = st;
    return cfg;
}

/** Writes `text` to a unique temp file; removed on destruction. */
class TempFile
{
  public:
    explicit TempFile(const std::string &text)
    {
        path_ = ::testing::TempDir() + "enmc_tune_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter()++) + ".json";
        std::ofstream out(path_);
        out << text;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    static int &counter()
    {
        static int c = 0;
        return c;
    }
    std::string path_;
};

TEST_F(TuneTest, ConfigRoundTripsThroughJson)
{
    const TunedConfig cfg = sampleConfig();
    const TunedConfig back = configFromJson(configToJson(cfg));
    EXPECT_EQ(back.host, cfg.host);
    EXPECT_EQ(back.kernels_target, cfg.kernels_target);
    ASSERT_TRUE(back.sim.has_value());
    EXPECT_EQ(*back.sim, *cfg.sim);
}

TEST_F(TuneTest, DocumentRoundTripsThroughText)
{
    const TunedConfig cfg = sampleConfig();
    const obs::Json doc = makeDocument("intel-f6m106-avx512", cfg);
    obs::Json parsed;
    ASSERT_TRUE(obs::Json::parse(doc.dump(2), parsed, nullptr));
    const auto found = findConfig(parsed, "intel-f6m106-avx512");
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->host, cfg.host);
    EXPECT_EQ(found->sim, cfg.sim);
}

TEST_F(TuneTest, FindConfigReturnsNulloptForOtherMicroarch)
{
    const obs::Json doc = makeDocument("amd-f25m1-avx2", sampleConfig());
    EXPECT_FALSE(findConfig(doc, "intel-f6m106-avx512").has_value());
}

TEST_F(TuneTest, MicroarchKeyIsStableAndNamesBestTarget)
{
    const std::string &key = kernels::microarchKey();
    ASSERT_FALSE(key.empty());
    EXPECT_EQ(&key, &kernels::microarchKey()) << "must be cached";
    const std::string best =
        kernels::targetName(kernels::availableTargets().back());
    EXPECT_NE(key.find(best), std::string::npos)
        << "key '" << key << "' should end in '" << best << "'";
}

TEST_F(TuneTest, MinimalConfigKeepsDefaults)
{
    obs::Json entry = obs::Json::object();
    entry.set("host", obs::Json::object());
    const TunedConfig cfg = configFromJson(entry);
    EXPECT_EQ(cfg.host, kernels::TuneParams{});
    EXPECT_TRUE(cfg.kernels_target.empty());
    EXPECT_FALSE(cfg.sim.has_value());
}

TEST_F(TuneTest, LoadAndApplyInstallsHostParams)
{
    TunedConfig cfg = sampleConfig();
    cfg.kernels_target.clear(); // keep dispatch untouched
    const TempFile f(makeDocument(kernels::microarchKey(), cfg).dump(2));
    EXPECT_TRUE(loadAndApply(f.path()));
    EXPECT_EQ(kernels::tune(), cfg.host);
}

TEST_F(TuneTest, LoadAndApplyPinsKernelTarget)
{
    const kernels::Target before = kernels::activeTarget();
    TunedConfig cfg = sampleConfig(); // pins "scalar"
    const TempFile f(makeDocument(kernels::microarchKey(), cfg).dump(2));
    // ENMC_KERNELS may be set in the environment of a forced-target CI
    // job, in which case the pin must NOT be applied.
    const char *forced = std::getenv("ENMC_KERNELS");
    EXPECT_TRUE(loadAndApply(f.path()));
    if (forced != nullptr && *forced != '\0')
        EXPECT_EQ(kernels::activeTarget(), before);
    else
        EXPECT_EQ(kernels::activeTarget(), kernels::Target::Scalar);
}

TEST_F(TuneTest, LoadKeepsDefaultsForForeignMicroarch)
{
    const kernels::TuneParams before = kernels::tune();
    const TempFile f(
        makeDocument("nonesuch-f0m0-scalar", sampleConfig()).dump(2));
    EXPECT_FALSE(loadAndApply(f.path()));
    EXPECT_EQ(kernels::tune(), before);
}

using TuneDeathTest = TuneTest;

TEST_F(TuneDeathTest, MissingFileIsFatal)
{
    EXPECT_DEATH(loadAndApply("/nonexistent/enmc_tune.json"),
                 "cannot read tune config");
}

TEST_F(TuneDeathTest, InvalidJsonIsFatal)
{
    const TempFile f("{not json");
    EXPECT_DEATH(loadAndApply(f.path()), "not valid JSON");
}

TEST_F(TuneDeathTest, WrongSchemaIsFatal)
{
    obs::Json doc = obs::Json::object();
    doc.set("schema", "enmc.metrics");
    const TempFile f(doc.dump());
    EXPECT_DEATH(loadAndApply(f.path()), "enmc.tune");
}

TEST_F(TuneDeathTest, WrongVersionIsFatal)
{
    obs::Json doc = makeDocument("k", sampleConfig());
    doc.set("schema_version", uint64_t{2});
    EXPECT_DEATH(findConfig(doc, "k"), "schema_version");
}

TEST_F(TuneDeathTest, UnknownKernelTargetIsFatal)
{
    // "sse2" names the removed SSE2 tier: a stale pin fails loudly.
    for (const char *target : {"avx999", "sse2"}) {
        obs::Json entry = obs::Json::object();
        entry.set("host", obs::Json::object());
        entry.set("kernels", target);
        EXPECT_DEATH(configFromJson(entry), "unknown kernel target")
            << target;
    }
}

TEST_F(TuneDeathTest, ZeroTileIsFatal)
{
    obs::Json host = obs::Json::object();
    host.set("gemv_row_chunk", uint64_t{0});
    obs::Json entry = obs::Json::object();
    entry.set("host", std::move(host));
    EXPECT_DEATH(configFromJson(entry), "must be positive");
}

TEST_F(TuneDeathTest, NegativeFieldIsFatal)
{
    obs::Json host = obs::Json::object();
    host.set("batch_query_tile", int64_t{-3});
    obs::Json entry = obs::Json::object();
    entry.set("host", std::move(host));
    EXPECT_DEATH(configFromJson(entry), "non-negative");
}

} // namespace
} // namespace enmc::tensor::tune
