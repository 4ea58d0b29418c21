#include "screening/trainer.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/solve.h"
#include "tensor/topk.h"

namespace enmc::screening {

Trainer::Trainer(const nn::Classifier &teacher, Screener &screener,
                 TrainerConfig cfg)
    : teacher_(teacher), screener_(screener), cfg_(cfg)
{
    ENMC_ASSERT(teacher.categories() == screener.categories(),
                "teacher/screener category mismatch");
    ENMC_ASSERT(teacher.hidden() == screener.config().hidden,
                "teacher/screener hidden-dim mismatch");
}

namespace {

/** Samples per batched teacher/student GEMV block. */
constexpr size_t kSampleBlock = 16;

/**
 * Rows (or columns) per pool work item. Fixed, so each element's
 * summation order is the same for any ENMC_THREADS.
 */
constexpr size_t kChunk = 1024;

/** Run `body(c0, c1)` over fixed kChunk-wide slices of [0, n). */
template <typename Body>
void
forEachChunk(size_t n, const Body &body)
{
    parallelFor(0, ceilDiv(n, kChunk), 0, [&](size_t c) {
        const size_t c0 = c * kChunk;
        body(c0, std::min(n, c0 + kChunk));
    });
}

/**
 * Up to kSampleBlock samples' projected features and logits, evaluated
 * through the batched GEMV so the teacher streams its weights once per
 * query tile instead of once per sample. Per sample, every row is
 * bit-equal to Screener::project, Classifier::logits and tensor::gemv.
 */
struct SampleBlock
{
    SampleBlock(size_t k, size_t l, bool student)
        : y(kSampleBlock, k), z(kSampleBlock, l),
          zt(student ? kSampleBlock : 0, l)
    {
    }

    /** Evaluate `hs`; z~ only if the block was built with a student. */
    void
    evaluate(const nn::Classifier &teacher, const Screener &screener,
             std::span<const tensor::Vector> hs)
    {
        n = hs.size();
        ENMC_ASSERT(n <= kSampleBlock, "sample block overflow");
        std::array<const float *, kSampleBlock> hp{}, yp{};
        std::array<float *, kSampleBlock> zp{}, ztp{};
        for (size_t i = 0; i < n; ++i) {
            const tensor::Vector yi = screener.project(hs[i]);
            std::copy(yi.begin(), yi.end(), y.row(i).begin());
            hp[i] = hs[i].data();
            yp[i] = y.row(i).data();
            zp[i] = z.row(i).data();
        }
        tensor::kernels::gemvBatchInto(teacher.weights(), hp.data(),
                                       zp.data(), n, teacher.bias());
        if (zt.empty())
            return;
        for (size_t i = 0; i < n; ++i)
            ztp[i] = zt.row(i).data();
        tensor::kernels::gemvBatchInto(screener.weights(), yp.data(),
                                       ztp.data(), n, screener.bias());
    }

    size_t n = 0;
    tensor::Matrix y;  //!< y = P h
    tensor::Matrix z;  //!< teacher logits W h + b
    tensor::Matrix zt; //!< student logits W~ y + b~ (or the error, in train)
};

/**
 * Turn the block's student logits into errors e = z~ - z (dL/dz~ up to
 * the 2/s factor) and add each sample's mean squared error to `mse`, in
 * sample order. Each sample sums its rows in order on its own pool job.
 */
void
toErrors(SampleBlock &blk, double &mse)
{
    const size_t l = blk.z.cols();
    std::array<double, kSampleBlock> sq{};
    parallelFor(0, blk.n, 0, [&](size_t i) {
        float *zt = blk.zt.row(i).data();
        const float *z = blk.z.row(i).data();
        double s = 0.0;
        for (size_t r = 0; r < l; ++r) {
            const float e = zt[r] - z[r];
            s += static_cast<double>(e) * e;
            zt[r] = e;
        }
        sq[i] = s;
    });
    for (size_t i = 0; i < blk.n; ++i)
        mse += sq[i] / l;
}

/**
 * grad_b += Σ e_i and grad_w += Σ e_i y_iᵀ over the block, rows outer and
 * samples inner, so each element still adds its samples in order.
 */
void
accumulateGradient(const SampleBlock &blk, tensor::Matrix &grad_w,
                   tensor::Vector &grad_b)
{
    const size_t k = grad_w.cols();
    std::array<const float *, kSampleBlock> ys{};
    for (size_t i = 0; i < blk.n; ++i)
        ys[i] = blk.y.row(i).data();
    const auto &kern = tensor::kernels::ops();
    forEachChunk(grad_w.rows(), [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            float *gw = grad_w.data() + r * k;
            for (size_t i = 0; i < blk.n; ++i) {
                const float e = blk.zt(i, r);
                grad_b[r] += e;
                kern.axpy(e, ys[i], gw, k);
            }
        }
    });
}

} // namespace

void
Trainer::closedFormInit(const std::vector<tensor::Vector> &train_h)
{
    const size_t k = screener_.reducedDim();
    const size_t l = screener_.categories();
    const size_t n = train_h.size();

    // First pass: the mean of y = P h.
    tensor::Vector y_mean(k, 0.0f);
    for (const auto &h : train_h) {
        const tensor::Vector y = screener_.project(h);
        for (size_t i = 0; i < k; ++i)
            y_mean[i] += y[i];
    }
    for (size_t i = 0; i < k; ++i)
        y_mean[i] /= static_cast<float>(n);

    // Second pass, in sample blocks: the mean of z = W h + b,
    // A = Σ ỹ ỹᵀ + λI and B = Σ z ỹᵀ with ỹ = y - ȳ.
    // Σ ỹ zᵀ = Σ ỹ (z - z̄)ᵀ, so only the bias needs z̄.
    tensor::Vector z_mean(l, 0.0f);
    tensor::Matrix a(k, k);
    tensor::Matrix bt(k, l); // Bᵀ, so spdSolve returns W~ᵀ directly
    SampleBlock blk(k, l, false);
    const auto &kern = tensor::kernels::ops();
    for (size_t base = 0; base < n; base += kSampleBlock) {
        blk.evaluate(teacher_, screener_,
                     {train_h.data() + base,
                      std::min(kSampleBlock, n - base)});
        for (size_t i = 0; i < blk.n; ++i) {
            float *yc = blk.y.row(i).data();
            for (size_t p = 0; p < k; ++p)
                yc[p] -= y_mean[p];
            for (size_t p = 0; p < k; ++p)
                if (yc[p] != 0.0f)
                    kern.axpy(yc[p], yc, a.row(p).data(), k);
        }
        // Column slices of z̄ and Bᵀ, each element summed in sample order.
        forEachChunk(l, [&](size_t c0, size_t c1) {
            for (size_t i = 0; i < blk.n; ++i) {
                const float *z = blk.z.row(i).data();
                for (size_t c = c0; c < c1; ++c)
                    z_mean[c] += z[c];
            }
            for (size_t p = 0; p < k; ++p) {
                float *row = bt.row(p).data() + c0;
                for (size_t i = 0; i < blk.n; ++i) {
                    const float yi = blk.y(i, p);
                    if (yi != 0.0f)
                        kern.axpy(yi, blk.z.row(i).data() + c0, row,
                                  c1 - c0);
                }
            }
        });
    }
    for (size_t i = 0; i < l; ++i)
        z_mean[i] /= static_cast<float>(n);
    const float lam = static_cast<float>(cfg_.ridge_lambda * n);
    for (size_t i = 0; i < k; ++i)
        a(i, i) += lam;

    const tensor::Matrix wt = tensor::spdSolve(a, bt); // k x l = W~ᵀ
    tensor::Matrix &w = screener_.weights();
    tensor::Vector &b = screener_.bias();
    forEachChunk(l, [&](size_t r0, size_t r1) {
        for (size_t c = 0; c < k; ++c) {
            const float *col = wt.row(c).data();
            for (size_t r = r0; r < r1; ++r)
                w(r, c) = col[r];
        }
        for (size_t r = r0; r < r1; ++r) {
            float dotmean = 0.0f;
            for (size_t c = 0; c < k; ++c)
                dotmean += w(r, c) * y_mean[c];
            b[r] = z_mean[r] - dotmean;
        }
    });
}

TrainReport
Trainer::train(const std::vector<tensor::Vector> &train_h,
               const std::vector<tensor::Vector> &val_h)
{
    ENMC_ASSERT(!train_h.empty(), "empty training set");
    if (cfg_.closed_form_init)
        closedFormInit(train_h);
    const size_t k = screener_.reducedDim();
    const size_t l = screener_.categories();
    SampleBlock blk(k, l, true);
    tensor::Matrix grad_w(l, k);
    tensor::Vector grad_b(l);
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
            std::fill(grad_w.data(), grad_w.data() + grad_w.size(), 0.0f);
            std::fill(grad_b.begin(), grad_b.end(), 0.0f);
            double batch_mse = 0.0;
            for (size_t b0 = base; b0 < end; b0 += kSampleBlock) {
                blk.evaluate(teacher_, screener_,
                             {train_h.data() + b0,
                              std::min(kSampleBlock, end - b0)});
                toErrors(blk, batch_mse);
                accumulateGradient(blk, grad_w, grad_b);
            }
            const float inv_s = 2.0f / static_cast<float>(end - base);
            forEachChunk(l, [&](size_t r0, size_t r1) {
                std::for_each(grad_w.data() + r0 * k, grad_w.data() + r1 * k,
                              [inv_s](float &g) { g *= inv_s; });
                std::for_each(grad_b.begin() + r0, grad_b.begin() + r1,
                              [inv_s](float &g) { g *= inv_s; });
            });
            opt.step(slot_w,
                     {screener_.weights().data(), screener_.weights().size()},
                     {grad_w.data(), grad_w.size()});
            opt.step(slot_b, screener_.bias(), grad_b);
            train_mse += batch_mse / (end - base);
            ++batches;
        }
        opt.endEpoch();

        EpochLog log;
        log.epoch = epoch;
        log.train_mse = train_mse / std::max<size_t>(batches, 1);
        log.val_mse = val_h.empty() ? log.train_mse : evaluateMse(val_h);
        report.epochs.push_back(log);
        if (cfg_.verbose) {
            inform("epoch ", epoch, " train_mse=", log.train_mse,
                   " val_mse=", log.val_mse);
        }

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

double
Trainer::evaluateMse(const std::vector<tensor::Vector> &samples) const
{
    ENMC_ASSERT(!samples.empty(), "empty evaluation set");
    SampleBlock blk(screener_.reducedDim(), screener_.categories(), true);
    double total = 0.0;
    for (size_t base = 0; base < samples.size(); base += kSampleBlock) {
        blk.evaluate(teacher_, screener_,
                     {samples.data() + base,
                      std::min(kSampleBlock, samples.size() - base)});
        std::array<double, kSampleBlock> mse{};
        parallelFor(0, blk.n, 0, [&](size_t i) {
            mse[i] = tensor::mse(blk.zt.row(i), blk.z.row(i));
        });
        for (size_t i = 0; i < blk.n; ++i)
            total += mse[i];
    }
    return total / samples.size();
}

float
tuneThreshold(const Screener &screener,
              const std::vector<tensor::Vector> &val_h,
              size_t target_candidates)
{
    ENMC_ASSERT(!val_h.empty(), "threshold tuning needs validation data");
    // Calibrate the cut on the pooled approximate logits of the
    // validation set. Samples with hotter logit distributions then select
    // more candidates, colder ones fewer — exactly how a single preloaded
    // FILTER threshold behaves. The 2x provisioning factor keeps cold
    // samples from being starved of accurate candidates at a modest
    // average-cost increase (tunable quality/cost knob, paper Sec. 4.2).
    std::vector<float> pooled;
    for (const auto &h : val_h) {
        const tensor::Vector approx =
            screener.config().quant == tensor::QuantBits::Fp32 ||
                    !screener.quantizedFrozen()
                ? screener.approximateFp32(h)
                : screener.approximateQuantized(h);
        pooled.insert(pooled.end(), approx.begin(), approx.end());
    }
    return tensor::thresholdForCount(pooled,
                                     2 * target_candidates * val_h.size());
}

} // namespace enmc::screening
