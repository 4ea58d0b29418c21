#include "nn/sgd.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace enmc::nn {

size_t
SgdOptimizer::addParameter(size_t num_elements)
{
    if (!lr_init_) {
        lr_ = cfg_.lr;
        lr_init_ = true;
    }
    velocity_.emplace_back(num_elements, 0.0f);
    return velocity_.size() - 1;
}

void
SgdOptimizer::step(size_t slot, std::span<float> param,
                   std::span<const float> grad)
{
    ENMC_ASSERT(slot < velocity_.size(), "bad optimizer slot");
    auto &v = velocity_[slot];
    ENMC_ASSERT(v.size() == param.size() && v.size() == grad.size(),
                "optimizer size mismatch");
    const float mu = static_cast<float>(cfg_.momentum);
    const float lr = static_cast<float>(lr_);
    // Element-wise, so fixed slices on the pool give the serial result.
    constexpr size_t kSlice = size_t{1} << 16;
    parallelFor(0, ceilDiv(v.size(), kSlice), 0, [&](size_t s) {
        const size_t end = std::min(v.size(), (s + 1) * kSlice);
        for (size_t i = s * kSlice; i < end; ++i) {
            v[i] = mu * v[i] + grad[i];
            param[i] -= lr * v[i];
        }
    });
}

void
SgdOptimizer::endEpoch()
{
    lr_ *= cfg_.lr_decay;
}

} // namespace enmc::nn
