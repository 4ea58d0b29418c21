/**
 * @file
 * Tests for the synthetic XC model generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "tensor/ops.h"
#include "tensor/svd.h"
#include "tensor/topk.h"
#include "workloads/synthetic.h"

namespace enmc::workloads {
namespace {

SyntheticConfig
config(size_t l = 512, size_t d = 32)
{
    SyntheticConfig cfg;
    cfg.categories = l;
    cfg.hidden = d;
    return cfg;
}

TEST(Synthetic, ClassifierDimensions)
{
    SyntheticModel model(config());
    EXPECT_EQ(model.classifier().categories(), 512u);
    EXPECT_EQ(model.classifier().hidden(), 32u);
}

TEST(Synthetic, DeterministicForSeed)
{
    SyntheticModel a(config()), b(config());
    EXPECT_EQ(a.classifier().weights()(3, 7), b.classifier().weights()(3, 7));
    Rng r1 = a.makeRng(0), r2 = b.makeRng(0);
    const auto h1 = a.sampleHidden(r1);
    const auto h2 = b.sampleHidden(r2);
    for (size_t i = 0; i < h1.size(); ++i)
        EXPECT_FLOAT_EQ(h1[i], h2[i]);
}

TEST(Synthetic, DifferentSeedsDiffer)
{
    SyntheticConfig c1 = config();
    SyntheticConfig c2 = config();
    c2.seed = 777;
    SyntheticModel a(c1), b(c2);
    EXPECT_NE(a.classifier().weights()(0, 0), b.classifier().weights()(0, 0));
}

TEST(Synthetic, TrueCategoryHasHighLogit)
{
    SyntheticModel model(config());
    Rng rng = model.makeRng(2);
    size_t hits = 0;
    const int n = 50;
    for (int i = 0; i < n; ++i) {
        uint64_t truth = 0;
        const auto h = model.sampleHidden(rng, &truth);
        const auto z = model.classifier().logits(h);
        const auto top = tensor::topkIndices(z, 10);
        for (uint32_t t : top)
            if (t == truth) {
                ++hits;
                break;
            }
    }
    // The SNR default puts the true category in the top-10 most of the
    // time — the regime real trained classifiers operate in.
    EXPECT_GT(hits, n / 2);
}

TEST(Synthetic, HigherSnrSharperLogits)
{
    // The signal scales every correlated logit; what SNR controls is the
    // margin of the true category over the noise floor.
    SyntheticConfig weak = config();
    weak.sample_snr = 0.5;
    SyntheticConfig strong = config();
    strong.sample_snr = 8.0;
    SyntheticModel wm(weak), sm(strong);
    auto true_percentile = [](const SyntheticModel &m) {
        Rng rng = m.makeRng(3);
        double pct = 0.0;
        for (int i = 0; i < 40; ++i) {
            uint64_t truth = 0;
            const auto h = m.sampleHidden(rng, &truth);
            const auto z = m.classifier().logits(h);
            size_t below = 0;
            for (float v : z)
                below += (v < z[truth]);
            pct += static_cast<double>(below) / z.size();
        }
        return pct / 40.0;
    };
    EXPECT_GT(true_percentile(sm), true_percentile(wm));
}

TEST(Synthetic, SpectrumDecays)
{
    // The structured weight matrix must have a decaying singular spectrum
    // (the property AS and SVD-softmax both rely on).
    SyntheticConfig cfg = config(256, 24);
    cfg.spectrum_decay = 1.0;
    cfg.residual_noise = 0.01;
    SyntheticModel model(cfg);
    const auto svd = tensor::thinSvd(model.classifier().weights());
    EXPECT_GT(svd.sigma[0], 3.0f * svd.sigma[12]);
}

TEST(Synthetic, FlatterSpectrumWithLowerDecay)
{
    SyntheticConfig steep = config(256, 24);
    steep.spectrum_decay = 1.2;
    steep.residual_noise = 0.01;
    SyntheticConfig flat = steep;
    flat.spectrum_decay = 0.2;
    const auto s1 = tensor::thinSvd(
        SyntheticModel(steep).classifier().weights());
    const auto s2 = tensor::thinSvd(
        SyntheticModel(flat).classifier().weights());
    const double ratio1 = s1.sigma[0] / s1.sigma[12];
    const double ratio2 = s2.sigma[0] / s2.sigma[12];
    EXPECT_GT(ratio1, ratio2);
}

TEST(Synthetic, BatchSampling)
{
    SyntheticModel model(config());
    Rng rng = model.makeRng(4);
    const auto batch = model.sampleHiddenBatch(rng, 7);
    EXPECT_EQ(batch.size(), 7u);
    for (const auto &h : batch)
        EXPECT_EQ(h.size(), 32u);
}

TEST(Synthetic, SigmoidNormalizationPropagates)
{
    SyntheticConfig cfg = config();
    cfg.normalization = nn::Normalization::Sigmoid;
    SyntheticModel model(cfg);
    EXPECT_EQ(model.classifier().normalization(),
              nn::Normalization::Sigmoid);
}

/**
 * The generator's original row loop (i outer, j inner, one noise draw per
 * output) and the bias draws that follow it, from the model's seed.
 */
std::pair<tensor::Matrix, tensor::Vector>
referenceParameters(const SyntheticConfig &cfg)
{
    const size_t l = cfg.categories;
    const size_t d = cfg.hidden;
    Rng rng(cfg.seed);
    tensor::Matrix v(d, d);
    for (size_t j = 0; j < d; ++j) {
        double nrm = 0.0;
        for (size_t i = 0; i < d; ++i) {
            const double g = rng.normal();
            v(j, i) = static_cast<float>(g);
            nrm += g * g;
        }
        const float inv = static_cast<float>(1.0 / std::sqrt(nrm));
        for (size_t i = 0; i < d; ++i)
            v(j, i) *= inv;
    }
    std::vector<float> sigma(d);
    for (size_t j = 0; j < d; ++j)
        sigma[j] = static_cast<float>(
            std::pow(static_cast<double>(j + 1), -cfg.spectrum_decay));
    tensor::Matrix w(l, d);
    const float noise = static_cast<float>(cfg.residual_noise);
    std::vector<float> g(d);
    for (size_t r = 0; r < l; ++r) {
        for (size_t j = 0; j < d; ++j)
            g[j] = static_cast<float>(rng.normal()) * sigma[j];
        for (size_t i = 0; i < d; ++i) {
            double acc = 0.0;
            for (size_t j = 0; j < d; ++j)
                acc += static_cast<double>(g[j]) * v(j, i);
            w(r, i) = static_cast<float>(acc) +
                      noise * static_cast<float>(rng.normal());
        }
    }
    tensor::Vector b(l);
    for (size_t i = 0; i < l; ++i)
        b[i] = static_cast<float>(
            -0.1 * std::log(static_cast<double>(i + 2)) +
            0.05 * rng.normal());
    return {std::move(w), std::move(b)};
}

TEST(Synthetic, WeightsMatchRowByRowReference)
{
    for (const size_t d : {32u, 37u}) {
        SCOPED_TRACE(d);
        const SyntheticConfig cfg = config(700, d);
        const SyntheticModel model(cfg);
        const auto [w, b] = referenceParameters(cfg);
        const tensor::Matrix &got = model.classifier().weights();
        ASSERT_EQ(got.size(), w.size());
        EXPECT_EQ(std::memcmp(got.data(), w.data(), w.bytes()), 0);
        EXPECT_EQ(std::memcmp(model.classifier().bias().data(), b.data(),
                              b.size() * sizeof(float)),
                  0);
    }
}

TEST(SyntheticDeathTest, TooSmallRejected)
{
    SyntheticConfig cfg;
    cfg.categories = 1;
    EXPECT_DEATH(SyntheticModel{cfg}, "too small");
}

} // namespace
} // namespace enmc::workloads
