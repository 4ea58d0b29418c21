/**
 * @file
 * Quickstart: offload an extreme classifier to ENMC in four steps.
 *
 *  1. Bring a trained classifier (here: a synthetic 8K-category model).
 *  2. Wrap it in an EnmcClassifier (allocates the screener).
 *  3. calibrate(): distills the screener (Algorithm 1) and tunes the
 *     hardware FILTER threshold.
 *  4. forward(): runs candidates-only classification on the simulated
 *     ENMC ranks and returns full probability vectors + top-k.
 */

#include <cstdio>

#include "runtime/api.h"
#include "workloads/synthetic.h"

using namespace enmc;

int
main()
{
    // 1. A "trained" extreme classifier: 8192 categories, 64-dim hidden.
    workloads::SyntheticConfig model_cfg;
    model_cfg.categories = 8192;
    model_cfg.hidden = 64;
    workloads::SyntheticModel model(model_cfg);
    std::printf("classifier: %zu categories x %zu dims (%.1f MB FP32)\n",
                model.classifier().categories(), model.classifier().hidden(),
                model.classifier().parameterBytes() / 1e6);

    // 2. Offload options: 0.25 reduction scale, INT4, ~128 candidates.
    runtime::ClassifierOptions options;
    options.candidates = 128;
    runtime::EnmcClassifier clf(model.classifier(),
                                runtime::classifierOptionsFromEnv(options));

    // 3. Calibrate on sampled hidden vectors (stand-ins for the
    //    activations your front-end model produces on training data).
    Rng rng = model.makeRng(7);
    const auto train_h = model.sampleHiddenBatch(rng, 256);
    const auto val_h = model.sampleHiddenBatch(rng, 64);
    const auto report = clf.calibrate(train_h, val_h);
    std::printf("calibrated in %zu epochs, val MSE %.3f, screener %.1f KB "
                "(%.1fx smaller)\n",
                report.epochs.size(), report.final_val_mse,
                clf.screener().parameterBytes() / 1e3,
                double(model.classifier().parameterBytes()) /
                    clf.screener().parameterBytes());

    // 4. Classify a batch on the ENMC rank model.
    const auto h_batch = model.sampleHiddenBatch(rng, 4);
    const auto outputs = clf.forward(h_batch, 5);
    const auto exact = clf.forwardFull(h_batch, 5);

    for (size_t i = 0; i < outputs.size(); ++i) {
        std::printf("item %zu: %zu candidates computed accurately; top-5:",
                    i, outputs[i].candidates.size());
        for (uint32_t c : outputs[i].topk)
            std::printf(" %u", c);
        std::printf("  (exact top-1: %u %s)\n", exact[i].topk[0],
                    exact[i].topk[0] == outputs[i].topk[0] ? "MATCH"
                                                           : "DIFFERS");
    }
    // The slowest rank of the same batch, straight from the rank model.
    const Cycles cycles = clf.system()
                              .runFunctional(model.classifier(),
                                             clf.screener(), h_batch,
                                             clf.options().ranks)
                              .rank_cycles;
    std::printf("representative rank: %llu DDR cycles (%.1f us)\n",
                static_cast<unsigned long long>(cycles),
                cyclesToSeconds(cycles, 1200e6) * 1e6);
    return 0;
}
