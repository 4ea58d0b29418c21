/**
 * @file
 * Tests for screener serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "runtime/api.h"
#include "screening/serialize.h"
#include "screening/trainer.h"
#include "workloads/synthetic.h"

namespace enmc::screening {
namespace {

class SerializeTest : public ::testing::Test
{
  protected:
    SerializeTest()
        : model_(makeConfig())
    {
        ScreenerConfig cfg;
        cfg.categories = 512;
        cfg.hidden = 48;
        cfg.selection = SelectionMode::Threshold;
        cfg.threshold = 1.25f;
        Rng rng(kSeed);
        screener_ = std::make_unique<Screener>(cfg, rng);
        Rng data = model_.makeRng(1);
        train_ = model_.sampleHiddenBatch(data, 96);
        Trainer trainer(model_.classifier(), *screener_, TrainerConfig{});
        trainer.train(train_, {});
        screener_->freezeQuantized();
        eval_ = model_.sampleHiddenBatch(data, 8);
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 512;
        cfg.hidden = 48;
        return cfg;
    }

    static constexpr uint64_t kSeed = 777;
    workloads::SyntheticModel model_;
    std::unique_ptr<Screener> screener_;
    std::vector<tensor::Vector> train_;
    std::vector<tensor::Vector> eval_;
};

TEST_F(SerializeTest, RoundTripBitExact)
{
    std::stringstream buf;
    saveScreener(*screener_, kSeed, buf);
    const auto loaded = loadScreener(buf);

    ASSERT_EQ(loaded->categories(), screener_->categories());
    ASSERT_EQ(loaded->reducedDim(), screener_->reducedDim());
    EXPECT_EQ(loaded->config().threshold, screener_->config().threshold);
    EXPECT_EQ(loaded->config().selection, screener_->config().selection);
    EXPECT_TRUE(loaded->quantizedFrozen());

    for (const auto &h : eval_) {
        const auto a = screener_->approximateQuantized(h);
        const auto b = loaded->approximateQuantized(h);
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i], b[i]) << "logit " << i;
        // Same projection (rebuilt from the seed).
        const auto pa = screener_->project(h);
        const auto pb = loaded->project(h);
        for (size_t i = 0; i < pa.size(); ++i)
            EXPECT_EQ(pa[i], pb[i]);
    }
}

TEST_F(SerializeTest, RoundTripThroughFile)
{
    const std::string path = ::testing::TempDir() + "screener.enmc";
    saveScreenerFile(*screener_, kSeed, path);
    const auto loaded = loadScreenerFile(path);
    EXPECT_EQ(loaded->categories(), 512u);
    const auto a = screener_->screen(eval_[0]);
    const auto b = loaded->screen(eval_[0]);
    EXPECT_EQ(a.candidates, b.candidates);
    std::remove(path.c_str());
}

TEST_F(SerializeTest, BadMagicRejected)
{
    std::stringstream buf;
    buf << "NOTASCRN" << std::string(256, 'x'); // longer than the header
    EXPECT_DEATH((void)loadScreener(buf), "bad magic");
}

TEST_F(SerializeTest, TruncatedPayloadRejected)
{
    std::stringstream buf;
    saveScreener(*screener_, kSeed, buf);
    std::string data = buf.str();
    data.resize(data.size() / 2);
    std::stringstream half(data);
    EXPECT_DEATH((void)loadScreener(half), "truncated");
}

TEST_F(SerializeTest, ApiSaveLoadFlow)
{
    runtime::ClassifierOptions opt;
    opt.candidates = 32;
    opt.seed = 4242;
    runtime::EnmcClassifier clf(model_.classifier(), opt);
    Rng data = model_.makeRng(2);
    clf.calibrate(model_.sampleHiddenBatch(data, 96),
                  model_.sampleHiddenBatch(data, 32));

    const std::string path = ::testing::TempDir() + "clf.enmc";
    clf.save(path);

    runtime::EnmcClassifier fresh(model_.classifier(), opt);
    EXPECT_FALSE(fresh.calibrated());
    fresh.load(path);
    EXPECT_TRUE(fresh.calibrated());

    const auto h = model_.sampleHiddenBatch(data, 2);
    const auto a = clf.forward(h, 3);
    const auto b = fresh.forward(h, 3);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].topk, b[i].topk);
    std::remove(path.c_str());
}

TEST_F(SerializeTest, ApiSaveBeforeCalibratePanics)
{
    runtime::ClassifierOptions opt;
    runtime::EnmcClassifier clf(model_.classifier(), opt);
    EXPECT_DEATH(clf.save("/tmp/never.enmc"), "calibrate");
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

TEST_F(SerializeTest, LoadThenRefreshMatchesCalibrateThenRefresh)
{
    // calibrate, load and refresh all publish one epoch each, so a loaded
    // classifier sits at epoch 1 like a calibrated one, and its refresh
    // draws the same seed: the refreshed screeners are byte-identical.
    runtime::ClassifierOptions opt;
    opt.candidates = 32;
    Rng data = model_.makeRng(3);
    const auto train = model_.sampleHiddenBatch(data, 96);
    const auto val = model_.sampleHiddenBatch(data, 32);
    const std::string dir = ::testing::TempDir();

    runtime::EnmcClassifier calibrated(model_.classifier(), opt);
    calibrated.calibrate(train, val);
    calibrated.save(dir + "calibrated.enmc");
    ASSERT_EQ(calibrated.refresh(train, val), 2u);
    calibrated.save(dir + "calibrated_refreshed.enmc");

    runtime::EnmcClassifier loaded(model_.classifier(), opt);
    loaded.load(dir + "calibrated.enmc");
    EXPECT_EQ(loaded.snapshotEpoch(), 1u);
    ASSERT_EQ(loaded.refresh(train, val), 2u);
    loaded.save(dir + "loaded_refreshed.enmc");

    const std::string want = fileBytes(dir + "calibrated_refreshed.enmc");
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(fileBytes(dir + "loaded_refreshed.enmc"), want);
    EXPECT_NE(fileBytes(dir + "calibrated.enmc"), want)
        << "the refresh must have drawn a new screener";
    for (const char *name : {"calibrated.enmc", "calibrated_refreshed.enmc",
                             "loaded_refreshed.enmc"})
        std::remove((dir + name).c_str());
}

} // namespace
} // namespace enmc::screening
