/**
 * @file
 * The extreme-classification layer (paper Eq. 1-2): a large linear
 * transform z = W h + b followed by softmax (or sigmoid for multi-label
 * tasks).
 */

#ifndef ENMC_NN_CLASSIFIER_H
#define ENMC_NN_CLASSIFIER_H

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace enmc::nn {

/** Output normalization applied after the linear transform. */
enum class Normalization { Softmax, Sigmoid };

/**
 * `norm` applied to `z` with the SFU's Taylor-4 exp (tensor::softmaxTaylor
 * or tensor::sigmoidTaylor): the hardware-accurate normalization every
 * functional result and cache hit is served with.
 */
tensor::Vector normalizeTaylor(std::span<const float> z,
                               Normalization norm);

/** A softmax/sigmoid classification layer over l categories. */
class Classifier
{
  public:
    Classifier() = default;

    /** Take ownership of trained weights (l x d) and bias (l). */
    Classifier(tensor::Matrix w, tensor::Vector b,
               Normalization norm = Normalization::Softmax);

    size_t categories() const { return w_.rows(); }
    size_t hidden() const { return w_.cols(); }
    Normalization normalization() const { return norm_; }

    const tensor::Matrix &weights() const { return w_; }
    const tensor::Vector &bias() const { return b_; }

    /** Raw logits z = W h + b. */
    tensor::Vector logits(std::span<const float> h) const;

    /** Logit of a single category: w_i . h + b_i. */
    float logit(size_t category, std::span<const float> h) const;

    /** Normalized probabilities (full classification). */
    tensor::Vector probabilities(std::span<const float> h) const;

    /**
     * Logits for a batch of hidden vectors. Each entry is bit-identical
     * to logits(hs[q]); the batched GEMV streams W once per batch instead
     * of once per item.
     */
    std::vector<tensor::Vector>
    logitsBatch(std::span<const tensor::Vector> hs) const;

    /** Batched probabilities(); same per-item values as the scalar call. */
    std::vector<tensor::Vector>
    probabilitiesBatch(std::span<const tensor::Vector> hs) const;

    /** Memory footprint of the parameters in bytes (FP32). */
    size_t parameterBytes() const;

    /** FLOPs for one full classification (2 l d multiply-adds + norm). */
    uint64_t flopsPerInference() const;

  private:
    tensor::Matrix w_;
    tensor::Vector b_;
    Normalization norm_ = Normalization::Softmax;
};

} // namespace enmc::nn

#endif // ENMC_NN_CLASSIFIER_H
