/**
 * @file
 * Screener distillation (paper Algorithm 1).
 *
 * Trains W~ and b~ by SGD on the MSE objective of Eq. 4:
 *   L = (1/s) * sum_s || (W h + b) - (W~ P h + b~) ||^2
 * The teacher classifier and the projection P stay frozen; only the
 * screener parameters move. Convergence takes a few epochs, mirroring the
 * paper's "much faster than original model training".
 */

#ifndef ENMC_SCREENING_TRAINER_H
#define ENMC_SCREENING_TRAINER_H

#include <cstddef>
#include <functional>
#include <vector>

#include "nn/classifier.h"
#include "nn/sgd.h"
#include "screening/screener.h"

namespace enmc::screening {

/** Training hyperparameters for Algorithm 1. */
struct TrainerConfig
{
    size_t epochs = 8;
    size_t batch_size = 32;       //!< s in Eq. 4
    nn::SgdConfig sgd{0.01, 0.9, 0.7};
    /**
     * Warm-start from the closed-form ridge solution of the (convex)
     * Eq. 4 objective: W~ = (Σ z yᵀ)(Σ y yᵀ + λI)⁻¹ with y = P h. SGD
     * then refines from the optimum's neighbourhood; this is what "train
     * till convergence" reaches and makes runs deterministic and fast.
     */
    bool closed_form_init = true;
    double ridge_lambda = 1e-3;
    /** Stop early once validation MSE improves by less than this ratio. */
    double convergence_ratio = 1e-3;
    bool verbose = false;
};

/** Per-epoch training record. */
struct EpochLog
{
    size_t epoch = 0;
    double train_mse = 0.0;
    double val_mse = 0.0;
};

/** Outcome of a training run. */
struct TrainReport
{
    std::vector<EpochLog> epochs;
    double final_val_mse = 0.0;
    bool converged_early = false;
};

/**
 * Distills `teacher` into `screener` over the given hidden vectors.
 *
 * Samples are evaluated in blocks of 16 through the batched GEMV, so the
 * l x d teacher streams once per query tile rather than once per sample.
 * The gradient and the normal equations are then applied with the rows
 * (or columns) outside and the block's samples inside, in fixed
 * 1024-wide chunks on the global pool. Every element keeps the sample
 * order of a per-sample loop, so a trained screener is byte-identical
 * for any block size and any ENMC_THREADS.
 */
class Trainer
{
  public:
    Trainer(const nn::Classifier &teacher, Screener &screener,
            TrainerConfig cfg);

    /**
     * Run Algorithm 1.
     * @param train_h Training hidden vectors (each of dim d).
     * @param val_h Validation hidden vectors for convergence tracking.
     */
    TrainReport train(const std::vector<tensor::Vector> &train_h,
                      const std::vector<tensor::Vector> &val_h);

    /** Mean Eq.-4 loss of the current screener over a sample set. */
    double evaluateMse(const std::vector<tensor::Vector> &samples) const;

  private:
    /** Set screener parameters to the closed-form ridge solution. */
    void closedFormInit(const std::vector<tensor::Vector> &train_h);

    const nn::Classifier &teacher_;
    Screener &screener_;
    TrainerConfig cfg_;
};

/**
 * Tune the FILTER threshold on a validation set so that on average
 * `target_candidates` categories pass (paper: "the threshold value can be
 * tuned on validation sets"). Returns the tuned threshold.
 */
float tuneThreshold(const Screener &screener,
                    const std::vector<tensor::Vector> &val_h,
                    size_t target_candidates);

} // namespace enmc::screening

#endif // ENMC_SCREENING_TRAINER_H
