#include "nn/classifier.h"

#include "common/logging.h"

namespace enmc::nn {

tensor::Vector
normalizeTaylor(std::span<const float> z, Normalization norm)
{
    return norm == Normalization::Softmax ? tensor::softmaxTaylor(z)
                                          : tensor::sigmoidTaylor(z);
}

Classifier::Classifier(tensor::Matrix w, tensor::Vector b, Normalization norm)
    : w_(std::move(w)), b_(std::move(b)), norm_(norm)
{
    ENMC_ASSERT(b_.size() == w_.rows(), "classifier bias size mismatch");
}

tensor::Vector
Classifier::logits(std::span<const float> h) const
{
    return tensor::gemv(w_, h, b_);
}

float
Classifier::logit(size_t category, std::span<const float> h) const
{
    return tensor::dot(w_.row(category), h) + b_[category];
}

tensor::Vector
Classifier::probabilities(std::span<const float> h) const
{
    tensor::Vector z = logits(h);
    if (norm_ == Normalization::Softmax) {
        tensor::softmaxInPlace(z);
        return z;
    }
    return tensor::sigmoid(z);
}

std::vector<tensor::Vector>
Classifier::logitsBatch(std::span<const tensor::Vector> hs) const
{
    return tensor::gemvBatch(w_, hs, b_);
}

std::vector<tensor::Vector>
Classifier::probabilitiesBatch(std::span<const tensor::Vector> hs) const
{
    std::vector<tensor::Vector> zs = logitsBatch(hs);
    for (auto &z : zs) {
        if (norm_ == Normalization::Softmax)
            tensor::softmaxInPlace(z);
        else
            z = tensor::sigmoid(z);
    }
    return zs;
}

size_t
Classifier::parameterBytes() const
{
    return w_.bytes() + b_.size() * sizeof(float);
}

uint64_t
Classifier::flopsPerInference() const
{
    // 2 flops (mul+add) per weight element, plus ~4 flops per category for
    // the normalization (exp + divide amortized).
    return 2ull * w_.rows() * w_.cols() + 4ull * w_.rows();
}

} // namespace enmc::nn
