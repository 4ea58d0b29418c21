#include "workloads/synthetic.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "tensor/ops.h"

namespace enmc::workloads {

namespace {

/**
 * Build an l x d weight matrix with spectrum sigma_j ∝ (j+1)^-decay plus
 * residual noise: W = G * diag(sigma) * Vᵀ + eps * N, where G is l x d
 * i.i.d. normal and V is a set of d near-orthogonal random directions
 * (exact orthogonality is irrelevant at these dimensions).
 */
tensor::Matrix
makeWeights(const SyntheticConfig &cfg, Rng &rng)
{
    const size_t l = cfg.categories;
    const size_t d = cfg.hidden;

    // Random directions v_j, unit-normalized.
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

    // Each row draws its d coefficients, then its d noise values, and sums
    // every output over j in order. With j outside, the d sums are
    // independent instead of one dependent chain per output.
    tensor::Matrix w(l, d);
    const float noise = static_cast<float>(cfg.residual_noise);
    std::vector<float> g(d);
    std::vector<float> eps(d);
    std::vector<double> acc(d);
    for (size_t r = 0; r < l; ++r) {
        for (size_t j = 0; j < d; ++j)
            g[j] = static_cast<float>(rng.normal()) * sigma[j];
        for (size_t i = 0; i < d; ++i)
            eps[i] = static_cast<float>(rng.normal());
        std::fill(acc.begin(), acc.end(), 0.0);
        for (size_t j = 0; j < d; ++j) {
            const double gj = g[j];
            const float *vj = v.row(j).data();
            for (size_t i = 0; i < d; ++i)
                acc[i] += gj * vj[i];
        }
        float *row = w.row(r).data();
        for (size_t i = 0; i < d; ++i)
            row[i] = static_cast<float>(acc[i]) + noise * eps[i];
    }
    return w;
}

} // namespace

SyntheticModel::SyntheticModel(const SyntheticConfig &cfg)
    : cfg_(cfg)
{
    ENMC_ASSERT(cfg.categories >= 2 && cfg.hidden >= 2,
                "synthetic model too small");
    Rng rng(cfg.seed);
    tensor::Matrix w = makeWeights(cfg, rng);
    tensor::Vector b(cfg.categories);
    // Bias mimics a log-unigram prior: frequent (low-index) categories get
    // a higher bias, as tied output layers learn in practice.
    for (size_t i = 0; i < cfg.categories; ++i)
        b[i] = static_cast<float>(
            -0.1 * std::log(static_cast<double>(i + 2)) +
            0.05 * rng.normal());
    classifier_ = nn::Classifier(std::move(w), std::move(b),
                                 cfg.normalization);
    zipf_ = std::make_unique<ZipfSampler>(cfg.categories,
                                          cfg.zipf_alpha);
}

tensor::Vector
SyntheticModel::sampleHidden(Rng &rng, uint64_t *true_category) const
{
    const uint64_t t = (*zipf_)(rng);
    if (true_category)
        *true_category = t;
    const auto row = classifier_.weights().row(t);
    const double row_norm = tensor::norm2(row);
    const size_t d = cfg_.hidden;
    tensor::Vector h(d);
    const double signal =
        cfg_.sample_snr / std::max(row_norm, 1e-9);
    const double noise = 1.0 / std::sqrt(static_cast<double>(d));
    for (size_t i = 0; i < d; ++i)
        h[i] = static_cast<float>(signal * row[i] + noise * rng.normal());
    // LayerNorm-style rescaling: real front-ends normalize activations
    // before the classifier, so hidden vectors have a homogeneous scale.
    // This is also what makes a single preloaded FILTER threshold usable.
    const double target = std::sqrt(cfg_.sample_snr * cfg_.sample_snr + 1.0);
    const double hnorm = tensor::norm2(h);
    if (hnorm > 1e-12) {
        const float s = static_cast<float>(target / hnorm);
        for (auto &v : h)
            v *= s;
    }
    return h;
}

std::vector<tensor::Vector>
SyntheticModel::sampleHiddenBatch(Rng &rng, size_t n) const
{
    std::vector<tensor::Vector> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i)
        out.push_back(sampleHidden(rng));
    return out;
}

Rng
SyntheticModel::makeRng(uint64_t stream) const
{
    return Rng(cfg_.seed * 0x9e3779b97f4a7c15ull + stream + 1);
}

} // namespace enmc::workloads
