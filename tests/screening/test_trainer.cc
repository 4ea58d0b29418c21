/**
 * @file
 * Tests for screener distillation (Algorithm 1).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "nn/sgd.h"
#include "runtime/api.h"
#include "screening/trainer.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/solve.h"
#include "tensor/topk.h"
#include "workloads/synthetic.h"

namespace enmc::screening {
namespace {

struct TrainerFixture
{
    TrainerFixture()
        : model(makeConfig()), rng(model.makeRng(1)),
          train_h(model.sampleHiddenBatch(rng, 192)),
          val_h(model.sampleHiddenBatch(rng, 48))
    {
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 512;
        cfg.hidden = 48;
        return cfg;
    }

    Screener
    makeScreener(double scale = 0.5)
    {
        ScreenerConfig cfg;
        cfg.categories = 512;
        cfg.hidden = 48;
        cfg.reduction_scale = scale;
        Rng srng(99);
        return Screener(cfg, srng);
    }

    workloads::SyntheticModel model;
    Rng rng;
    std::vector<tensor::Vector> train_h;
    std::vector<tensor::Vector> val_h;
};

TEST(Trainer, ClosedFormInitReachesLowMse)
{
    TrainerFixture s;
    Screener scr = s.makeScreener();
    TrainerConfig cfg;
    cfg.epochs = 1;
    Trainer trainer(s.model.classifier(), scr, cfg);
    const double before = trainer.evaluateMse(s.val_h);
    const TrainReport rep = trainer.train(s.train_h, s.val_h);
    EXPECT_LT(rep.final_val_mse, before / 5.0);
}

TEST(Trainer, SgdOnlyAlsoDescends)
{
    TrainerFixture s;
    Screener scr = s.makeScreener();
    TrainerConfig cfg;
    cfg.closed_form_init = false;
    cfg.epochs = 4;
    cfg.convergence_ratio = 0.0; // run all epochs
    Trainer trainer(s.model.classifier(), scr, cfg);
    const double before = trainer.evaluateMse(s.val_h);
    const TrainReport rep = trainer.train(s.train_h, s.val_h);
    EXPECT_LT(rep.final_val_mse, before);
    EXPECT_EQ(rep.epochs.size(), 4u);
    // Train loss is non-increasing across epochs (convex problem).
    for (size_t i = 0; i + 1 < rep.epochs.size(); ++i)
        EXPECT_LE(rep.epochs[i + 1].train_mse,
                  rep.epochs[i].train_mse * 1.05);
}

TEST(Trainer, ConvergenceStopsEarly)
{
    TrainerFixture s;
    Screener scr = s.makeScreener();
    TrainerConfig cfg;
    cfg.epochs = 50;
    cfg.convergence_ratio = 0.5; // aggressive: stop quickly
    Trainer trainer(s.model.classifier(), scr, cfg);
    const TrainReport rep = trainer.train(s.train_h, s.val_h);
    EXPECT_TRUE(rep.converged_early);
    EXPECT_LT(rep.epochs.size(), 50u);
}

TEST(Trainer, LargerReductionScaleApproximatesBetter)
{
    TrainerFixture s;
    auto final_mse = [&](double scale) {
        Screener scr = s.makeScreener(scale);
        Trainer trainer(s.model.classifier(), scr, TrainerConfig{});
        return trainer.train(s.train_h, s.val_h).final_val_mse;
    };
    // Fig. 12(a): more screener parameters -> better approximation.
    EXPECT_LT(final_mse(0.5), final_mse(0.125));
}

TEST(Trainer, TrainedScreenerRanksTrueTopCandidates)
{
    TrainerFixture s;
    Screener scr = s.makeScreener();
    Trainer trainer(s.model.classifier(), scr, TrainerConfig{});
    trainer.train(s.train_h, s.val_h);
    scr.freezeQuantized();

    double rec = 0.0;
    const size_t m = 16;
    for (const auto &h : s.val_h) {
        const auto approx = scr.approximateQuantized(h);
        const auto cands = tensor::topkIndices(approx, m);
        const auto truth =
            tensor::topkIndices(s.model.classifier().logits(h), 4);
        rec += tensor::recall(cands, truth);
    }
    EXPECT_GT(rec / s.val_h.size(), 0.85);
}

TEST(Trainer, TuneThresholdYieldsEnoughCandidates)
{
    TrainerFixture s;
    Screener scr = s.makeScreener();
    Trainer trainer(s.model.classifier(), scr, TrainerConfig{});
    trainer.train(s.train_h, s.val_h);
    scr.freezeQuantized();

    const size_t target = 24;
    const float cut = tuneThreshold(scr, s.val_h, target);
    size_t empty = 0;
    double total = 0.0;
    for (const auto &h : s.val_h) {
        const auto approx = scr.approximateQuantized(h);
        const auto sel = tensor::thresholdIndices(approx, cut);
        empty += sel.empty();
        total += static_cast<double>(sel.size());
    }
    // The tuned cut provisions ~2x the target on average (see
    // tuneThreshold) and must leave almost no sample with an empty
    // candidate set.
    EXPECT_LE(empty, s.val_h.size() / 10);
    EXPECT_GT(total / s.val_h.size(), target * 0.5);
    EXPECT_LT(total / s.val_h.size(), target * 6.0);
}

TEST(TrainerDeathTest, DimensionMismatch)
{
    TrainerFixture s;
    ScreenerConfig cfg;
    cfg.categories = 100; // != 512
    cfg.hidden = 48;
    Rng rng(1);
    Screener scr(cfg, rng);
    EXPECT_DEATH(Trainer(s.model.classifier(), scr, TrainerConfig{}),
                 "category mismatch");
}

} // namespace
} // namespace enmc::screening

namespace enmc::screening {
namespace {

/**
 * Eq. 4 is convex, so the closed-form ridge solution must dominate any
 * SGD-only run of the same budget — the property that justifies using it
 * as the "trained to convergence" implementation of Algorithm 1.
 */
TEST(Trainer, ClosedFormDominatesSgdOnly)
{
    TrainerFixture s;
    Screener cf = s.makeScreener();
    TrainerConfig cf_cfg;
    cf_cfg.epochs = 1;
    Trainer t1(s.model.classifier(), cf, cf_cfg);
    const double cf_mse = t1.train(s.train_h, s.val_h).final_val_mse;

    Screener sgd = s.makeScreener();
    TrainerConfig sgd_cfg;
    sgd_cfg.closed_form_init = false;
    sgd_cfg.epochs = 8;
    sgd_cfg.convergence_ratio = 0.0;
    Trainer t2(s.model.classifier(), sgd, sgd_cfg);
    const double sgd_mse = t2.train(s.train_h, s.val_h).final_val_mse;

    EXPECT_LE(cf_mse, sgd_mse * 1.05);
}

/** SGD refinement from the closed-form point must not diverge. */
TEST(Trainer, SgdRefinementStaysNearOptimum)
{
    TrainerFixture s;
    Screener scr = s.makeScreener();
    TrainerConfig cfg;
    cfg.epochs = 6;
    cfg.convergence_ratio = 0.0;
    Trainer trainer(s.model.classifier(), scr, cfg);
    const TrainReport rep = trainer.train(s.train_h, s.val_h);
    const double first = rep.epochs.front().val_mse;
    const double last = rep.epochs.back().val_mse;
    EXPECT_LE(last, first * 1.25);
}

} // namespace
} // namespace enmc::screening

namespace enmc::screening {
namespace {

/**
 * The per-sample trainer that the blocked Trainer replaced: one teacher
 * GEMV and one student GEMV per sample, and the gradient accumulated
 * sample by sample. Trainer::train must reproduce it byte for byte.
 */
class ReferenceTrainer
{
  public:
    ReferenceTrainer(const nn::Classifier &teacher, Screener &screener,
                     TrainerConfig cfg)
        : teacher_(teacher), screener_(screener), cfg_(cfg)
    {
    }

    TrainReport
    train(const std::vector<tensor::Vector> &train_h,
          const std::vector<tensor::Vector> &val_h)
    {
        if (cfg_.closed_form_init)
            closedFormInit(train_h);
        nn::SgdOptimizer opt(cfg_.sgd);
        const size_t slot_w = opt.addParameter(screener_.weights().size());
        const size_t slot_b = opt.addParameter(screener_.bias().size());
        TrainReport report;
        double prev_val = std::numeric_limits<double>::infinity();
        for (size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
            double train_mse = 0.0;
            size_t batches = 0;
            for (size_t base = 0; base < train_h.size();
                 base += cfg_.batch_size) {
                const size_t end =
                    std::min(base + cfg_.batch_size, train_h.size());
                tensor::Matrix grad_w(screener_.weights().rows(),
                                      screener_.weights().cols());
                tensor::Vector grad_b(screener_.bias().size(), 0.0f);
                double batch_mse = 0.0;
                for (size_t i = base; i < end; ++i)
                    batch_mse += accumulateSample(train_h[i], grad_w, grad_b);
                const float inv_s = 2.0f / static_cast<float>(end - base);
                for (size_t i = 0; i < grad_w.size(); ++i)
                    grad_w.data()[i] *= inv_s;
                for (auto &g : grad_b)
                    g *= inv_s;
                opt.step(slot_w,
                         {screener_.weights().data(),
                          screener_.weights().size()},
                         {grad_w.data(), grad_w.size()});
                opt.step(slot_b, screener_.bias(), grad_b);
                train_mse += batch_mse / (end - base);
                ++batches;
            }
            opt.endEpoch();
            EpochLog log;
            log.epoch = epoch;
            log.train_mse = train_mse / std::max<size_t>(batches, 1);
            log.val_mse =
                val_h.empty() ? log.train_mse : evaluateMse(val_h);
            report.epochs.push_back(log);
            if (cfg_.convergence_ratio > 0.0 &&
                prev_val - log.val_mse <
                    cfg_.convergence_ratio * std::max(prev_val, 1e-12)) {
                report.converged_early = true;
                break;
            }
            prev_val = log.val_mse;
        }
        report.final_val_mse = report.epochs.back().val_mse;
        return report;
    }

  private:
    double
    accumulateSample(const tensor::Vector &h, tensor::Matrix &grad_w,
                     tensor::Vector &grad_b) const
    {
        const tensor::Vector z = teacher_.logits(h);
        const tensor::Vector y = screener_.project(h);
        const tensor::Vector zt =
            tensor::gemv(screener_.weights(), y, screener_.bias());
        const size_t l = z.size();
        double sq = 0.0;
        for (size_t r = 0; r < l; ++r) {
            const float e = zt[r] - z[r];
            sq += static_cast<double>(e) * e;
            grad_b[r] += e;
            tensor::axpy(e, y, grad_w.row(r));
        }
        return sq / l;
    }

    void
    closedFormInit(const std::vector<tensor::Vector> &train_h)
    {
        const size_t k = screener_.reducedDim();
        const size_t l = screener_.categories();
        const size_t n = train_h.size();
        tensor::Vector y_mean(k, 0.0f);
        tensor::Vector z_mean(l, 0.0f);
        std::vector<tensor::Vector> ys;
        for (const auto &h : train_h) {
            ys.push_back(screener_.project(h));
            for (size_t i = 0; i < k; ++i)
                y_mean[i] += ys.back()[i];
        }
        for (size_t i = 0; i < k; ++i)
            y_mean[i] /= static_cast<float>(n);
        tensor::Matrix a(k, k);
        tensor::Matrix bt(k, l);
        for (size_t s = 0; s < n; ++s) {
            tensor::Vector y = ys[s];
            for (size_t i = 0; i < k; ++i)
                y[i] -= y_mean[i];
            const tensor::Vector z = teacher_.logits(train_h[s]);
            for (size_t i = 0; i < l; ++i)
                z_mean[i] += z[i];
            for (size_t i = 0; i < k; ++i) {
                const float yi = y[i];
                if (yi == 0.0f)
                    continue;
                tensor::axpy(yi, y, a.row(i));
                tensor::axpy(yi, z, bt.row(i));
            }
        }
        for (size_t i = 0; i < l; ++i)
            z_mean[i] /= static_cast<float>(n);
        const float lam = static_cast<float>(cfg_.ridge_lambda * n);
        for (size_t i = 0; i < k; ++i)
            a(i, i) += lam;
        // The per-column solve spdSolve used to run.
        const tensor::Matrix chol = tensor::cholesky(a);
        tensor::Matrix wt(k, l);
        tensor::Vector col(k);
        for (size_t j = 0; j < l; ++j) {
            for (size_t i = 0; i < k; ++i)
                col[i] = bt(i, j);
            const tensor::Vector sol = tensor::choleskySolve(chol, col);
            for (size_t i = 0; i < k; ++i)
                wt(i, j) = sol[i];
        }
        tensor::Matrix &w = screener_.weights();
        tensor::Vector &b = screener_.bias();
        for (size_t r = 0; r < l; ++r) {
            float dotmean = 0.0f;
            for (size_t c = 0; c < k; ++c) {
                w(r, c) = wt(c, r);
                dotmean += wt(c, r) * y_mean[c];
            }
            b[r] = z_mean[r] - dotmean;
        }
    }

    double
    evaluateMse(const std::vector<tensor::Vector> &samples) const
    {
        double total = 0.0;
        for (const auto &h : samples)
            total += tensor::mse(
                tensor::gemv(screener_.weights(), screener_.project(h),
                             screener_.bias()),
                teacher_.logits(h));
        return total / samples.size();
    }

    const nn::Classifier &teacher_;
    Screener &screener_;
    TrainerConfig cfg_;
};

bool
sameBytes(std::span<const float> a, std::span<const float> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool
sameBytes(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/**
 * Categories span three 1024-row gradient chunks (the last one short),
 * and 150 samples leave a 22-sample tail batch at batch size 32 and a
 * 6-sample tail block.
 */
struct BitIdentityFixture
{
    BitIdentityFixture()
        : model(makeConfig()), rng(model.makeRng(3)),
          train_h(model.sampleHiddenBatch(rng, 150)),
          val_h(model.sampleHiddenBatch(rng, 40))
    {
    }

    static workloads::SyntheticConfig
    makeConfig()
    {
        workloads::SyntheticConfig cfg;
        cfg.categories = 2500;
        cfg.hidden = 48;
        return cfg;
    }

    static ScreenerConfig
    screenerConfig(double scale, tensor::QuantBits quant)
    {
        ScreenerConfig cfg;
        cfg.categories = 2500;
        cfg.hidden = 48;
        cfg.reduction_scale = scale;
        cfg.quant = quant;
        return cfg;
    }

    /** Train one screener each way from the same seed and compare. */
    void
    expectIdentical(const ScreenerConfig &scfg, const TrainerConfig &tcfg,
                    const std::vector<tensor::Vector> &train,
                    const std::vector<tensor::Vector> &val) const
    {
        Rng r1(77), r2(77);
        Screener got(scfg, r1), want(scfg, r2);
        const TrainReport got_rep =
            Trainer(model.classifier(), got, tcfg).train(train, val);
        const TrainReport want_rep =
            ReferenceTrainer(model.classifier(), want, tcfg)
                .train(train, val);
        EXPECT_TRUE(sameBytes({got.weights().data(), got.weights().size()},
                              {want.weights().data(),
                               want.weights().size()}));
        EXPECT_TRUE(sameBytes(got.bias(), want.bias()));
        ASSERT_EQ(got_rep.epochs.size(), want_rep.epochs.size());
        for (size_t e = 0; e < got_rep.epochs.size(); ++e) {
            SCOPED_TRACE(e);
            EXPECT_TRUE(sameBytes(got_rep.epochs[e].train_mse,
                                  want_rep.epochs[e].train_mse));
            EXPECT_TRUE(sameBytes(got_rep.epochs[e].val_mse,
                                  want_rep.epochs[e].val_mse));
        }
        EXPECT_TRUE(sameBytes(got_rep.final_val_mse, want_rep.final_val_mse));
        EXPECT_EQ(got_rep.converged_early, want_rep.converged_early);
        got.freezeQuantized();
        want.freezeQuantized();
        const auto &gq = got.quantizedWeights();
        const auto &wq = want.quantizedWeights();
        EXPECT_EQ(gq.values, wq.values);
        EXPECT_TRUE(sameBytes(gq.scales, wq.scales));
    }

    workloads::SyntheticModel model;
    Rng rng;
    std::vector<tensor::Vector> train_h;
    std::vector<tensor::Vector> val_h;
};

TEST(TrainerBitIdentity, MatchesPerSampleReference)
{
    BitIdentityFixture f;
    for (const bool closed_form : {true, false})
        for (const auto quant :
             {tensor::QuantBits::Int4, tensor::QuantBits::Int8})
            for (const double scale : {0.125, 0.25}) {
                SCOPED_TRACE(::testing::Message()
                             << "closed_form=" << closed_form
                             << " bits=" << static_cast<int>(quant)
                             << " scale=" << scale);
                TrainerConfig tcfg;
                tcfg.closed_form_init = closed_form;
                tcfg.epochs = 3;
                tcfg.convergence_ratio = 0.0;
                f.expectIdentical(BitIdentityFixture::screenerConfig(
                                      scale, quant),
                                  tcfg, f.train_h, f.val_h);
            }
}

TEST(TrainerBitIdentity, DefaultConfigStopsAtTheSameEpoch)
{
    BitIdentityFixture f;
    f.expectIdentical(BitIdentityFixture::screenerConfig(
                          0.25, tensor::QuantBits::Int4),
                      TrainerConfig{}, f.train_h, f.val_h);
}

TEST(TrainerBitIdentity, ZeroProjectedComponents)
{
    // Zero every hidden coordinate that projection row 0 reads, so that
    // y[0] is exactly 0 for every sample (closedFormInit skips it), and
    // make a few whole samples zero.
    BitIdentityFixture f;
    const ScreenerConfig scfg =
        BitIdentityFixture::screenerConfig(0.25, tensor::QuantBits::Int4);
    Rng prng(77);
    const Screener probe(scfg, prng);
    const tensor::Matrix p = probe.projection().toDense();
    auto blank = [&](std::vector<tensor::Vector> hs) {
        for (size_t s = 0; s < hs.size(); ++s)
            for (size_t c = 0; c < hs[s].size(); ++c)
                if (p(0, c) != 0.0f || s % 37 == 5)
                    hs[s][c] = 0.0f;
        return hs;
    };
    const auto train = blank(f.train_h);
    ASSERT_EQ(probe.project(train[0])[0], 0.0f);
    ASSERT_EQ(probe.project(train[5]), tensor::Vector(probe.reducedDim(),
                                                      0.0f));
    TrainerConfig tcfg;
    tcfg.epochs = 2;
    tcfg.convergence_ratio = 0.0;
    f.expectIdentical(scfg, tcfg, train, blank(f.val_h));
}

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
savedDigest(const runtime::EnmcClassifier &clf, const std::string &path)
{
    clf.save(path);
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return fnv1a(bytes);
}

/**
 * FNV-1a digests of the bytes EnmcClassifier::save() writes after
 * calibrate() and after one refresh(), per kernel target. Any change to
 * the training numerics moves them, and must say so. AVX-512's FP32
 * kernels are AVX2's bit for bit, so the two targets share digests.
 */
TEST(TrainerGolden, SavedScreenerDigestsArePinned)
{
    using tensor::kernels::Target;
    workloads::SyntheticConfig mcfg;
    mcfg.categories = 3000;
    mcfg.hidden = 64;
    const workloads::SyntheticModel model(mcfg);
    Rng rng = model.makeRng(5);
    const auto train = model.sampleHiddenBatch(rng, 150);
    const auto val = model.sampleHiddenBatch(rng, 40);
    const std::string path = ::testing::TempDir() + "trainer_golden.enmc";

    struct Pinned
    {
        uint64_t calibrated;
        uint64_t refreshed;
    };
    auto pinned = [](Target t) {
        return t == Target::Scalar
                   ? Pinned{0x9fae26fae8d912cfull, 0x5fc07a1b82b21e5dull}
                   : Pinned{0x05fc0d6329eae662ull, 0x9a27d3637422b0bbull};
    };
    const Target saved = tensor::kernels::activeTarget();
    for (const Target t : tensor::kernels::availableTargets()) {
        SCOPED_TRACE(tensor::kernels::targetName(t));
        tensor::kernels::setActiveTarget(t);
        runtime::EnmcClassifier clf(model.classifier(),
                                    runtime::ClassifierOptions{});
        clf.calibrate(train, val);
        const uint64_t calibrated = savedDigest(clf, path);
        clf.refresh(train, val);
        const uint64_t refreshed = savedDigest(clf, path);
        EXPECT_EQ(calibrated, pinned(t).calibrated)
            << std::hex << "0x" << calibrated;
        EXPECT_EQ(refreshed, pinned(t).refreshed)
            << std::hex << "0x" << refreshed;
    }
    tensor::kernels::setActiveTarget(saved);
}

} // namespace
} // namespace enmc::screening
