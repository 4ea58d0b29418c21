/**
 * @file
 * Tests for the programmer-facing EnmcClassifier API (Fig. 9).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "runtime/api.h"
#include "tensor/topk.h"
#include "workloads/synthetic.h"

namespace enmc::runtime {
namespace {

class ApiTest : public ::testing::Test
{
  protected:
    ApiTest()
        : model_(makeConfig()), rng_(model_.makeRng(1)),
          train_(model_.sampleHiddenBatch(rng_, 160)),
          val_(model_.sampleHiddenBatch(rng_, 48))
    {
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 1024;
        cfg.hidden = 64;
        return cfg;
    }

    ClassifierOptions
    options(size_t candidates = 48)
    {
        ClassifierOptions opt;
        opt.candidates = candidates;
        return opt;
    }

    workloads::SyntheticModel model_;
    Rng rng_;
    std::vector<tensor::Vector> train_;
    std::vector<tensor::Vector> val_;
};

TEST_F(ApiTest, CalibrateTrainsAndTunes)
{
    EnmcClassifier clf(model_.classifier(), options());
    EXPECT_FALSE(clf.calibrated());
    const auto report = clf.calibrate(train_, val_);
    EXPECT_TRUE(clf.calibrated());
    EXPECT_GT(report.epochs.size(), 0u);
    EXPECT_LT(report.final_val_mse, 5.0);
    EXPECT_TRUE(clf.screener().quantizedFrozen());
    EXPECT_EQ(clf.screener().config().selection,
              screening::SelectionMode::Threshold);
}

TEST_F(ApiTest, ForwardAgreesWithFullClassification)
{
    EnmcClassifier clf(model_.classifier(), options());
    clf.calibrate(train_, val_);
    const auto h_batch = model_.sampleHiddenBatch(rng_, 8);
    const auto approx = clf.forward(h_batch, 5);
    const auto exact = clf.forwardFull(h_batch, 5);
    ASSERT_EQ(approx.size(), exact.size());
    size_t top1_match = 0;
    for (size_t i = 0; i < approx.size(); ++i)
        top1_match += (approx[i].topk[0] == exact[i].topk[0]);
    EXPECT_GE(top1_match, approx.size() - 1);
}

TEST_F(ApiTest, ForwardReportsCyclesAndCandidates)
{
    EnmcClassifier clf(model_.classifier(), options());
    clf.calibrate(train_, val_);
    const auto h_batch = model_.sampleHiddenBatch(rng_, 2);
    const auto out = clf.forward(h_batch, 3);
    EXPECT_GT(clf.system()
                  .runFunctional(model_.classifier(), clf.screener(), h_batch,
                                 clf.options().ranks)
                  .rank_cycles,
              0u);
    for (const auto &o : out) {
        EXPECT_EQ(o.topk.size(), 3u);
        EXPECT_FALSE(o.candidates.empty());
        EXPECT_EQ(o.probabilities.size(), 1024u);
    }
}

TEST_F(ApiTest, TopkProbabilitiesDescending)
{
    EnmcClassifier clf(model_.classifier(), options());
    clf.calibrate(train_, val_);
    const auto out = clf.forward(model_.sampleHiddenBatch(rng_, 1), 8);
    const auto &o = out[0];
    for (size_t i = 0; i + 1 < o.topk.size(); ++i)
        EXPECT_GE(o.probabilities[o.topk[i]],
                  o.probabilities[o.topk[i + 1]]);
}

TEST_F(ApiTest, MoreCandidatesBetterOrEqualAgreement)
{
    EnmcClassifier small(model_.classifier(), options(16));
    EnmcClassifier large(model_.classifier(), options(128));
    small.calibrate(train_, val_);
    large.calibrate(train_, val_);
    const auto h_batch = model_.sampleHiddenBatch(rng_, 12);
    const auto exact = small.forwardFull(h_batch, 3);
    auto agreement = [&](EnmcClassifier &clf) {
        const auto got = clf.forward(h_batch, 3);
        double agree = 0.0;
        for (size_t i = 0; i < got.size(); ++i)
            agree += tensor::recall(got[i].topk, exact[i].topk);
        return agree / got.size();
    };
    EXPECT_GE(agreement(large) + 0.05, agreement(small));
}

TEST_F(ApiTest, ForwardBeforeCalibratePanics)
{
    EnmcClassifier clf(model_.classifier(), options());
    EXPECT_DEATH((void)clf.forward(model_.sampleHiddenBatch(rng_, 1), 1),
                 "calibrate");
}

TEST_F(ApiTest, ConstructionPublishesNothing)
{
    // Calibrated means an epoch is published; construction publishes none.
    EnmcClassifier clf(model_.classifier(), options());
    EXPECT_EQ(clf.snapshotEpoch(), 0u);
    clf.calibrate(train_, val_);
    EXPECT_EQ(clf.snapshotEpoch(), 1u);
    EXPECT_EQ(clf.refresh(train_, val_), 2u);
}

// The candidate cache runs only where it serves bit-exactly: any other
// combination dies with a diagnostic instead of silently serving uncached.
// ENMC_FATAL exits, and exit runs the global thread pool's destructor,
// which would wait on worker threads a forked child does not have; the
// threadsafe style runs each death test in a fresh process instead.
TEST_F(ApiTest, CacheWithFp32ScreenerIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ClassifierOptions opt = options();
    opt.cache.capacity = 8;
    opt.quant = tensor::QuantBits::Fp32;
    EXPECT_DEATH({ EnmcClassifier clf(model_.classifier(), opt); },
                 "FP32 screener");
}

TEST_F(ApiTest, CacheWithFaultInjectionIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ClassifierOptions opt = options();
    opt.cache.capacity = 8;
    SystemConfig sys;
    sys.fault.enabled = true;
    EXPECT_DEATH({ EnmcClassifier clf(model_.classifier(), opt, sys); },
                 "fault injection");
}

TEST_F(ApiTest, CacheWithResilientModeIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ClassifierOptions opt = options();
    opt.cache.capacity = 8;
    SystemConfig sys;
    sys.resilient = true;
    EXPECT_DEATH({ EnmcClassifier clf(model_.classifier(), opt, sys); },
                 "resilient mode");
}

TEST_F(ApiTest, PublishingFp32ScreenerIntoCacheIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // The options pass construction; the loaded FP32 screener fails at
    // its publish.
    ClassifierOptions fp32 = options();
    fp32.quant = tensor::QuantBits::Fp32;
    EnmcClassifier trained(model_.classifier(), fp32);
    trained.calibrate(train_, val_);
    const std::string path = ::testing::TempDir() + "fp32_screener.enmc";
    trained.save(path);

    ClassifierOptions opt = options();
    opt.cache.capacity = 8;
    EnmcClassifier clf(model_.classifier(), opt);
    EXPECT_DEATH(clf.load(path), "FP32 screener");
    EXPECT_FALSE(clf.calibrated());
    std::remove(path.c_str());
}

} // namespace
} // namespace enmc::runtime
