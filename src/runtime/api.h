/**
 * @file
 * The programmer-facing ENMC API (paper Fig. 9): wraps screener training,
 * threshold tuning, and hardware execution behind a classifier object —
 * the C++ analogue of the paper's `enmc.Classifier(...)` /
 * `model.forward(...)` Python package.
 *
 * Two serving-oriented extensions (ROADMAP item 4) sit on top of the
 * paper flow, both off by default and bit-identical when enabled with
 * default knobs:
 *  - a hot-label candidate cache (screening::CandidateCache) in front of
 *    screening — repeated feature sketches skip the full screening GEMV
 *    and go straight to exact executor rows for the cached candidate set;
 *  - versioned screener snapshots (runtime::ScreenerSnapshotSlot):
 *    calibrate(), load() and refresh() each publish a finished screener
 *    as a new immutable epoch, and forward() keeps serving across a
 *    refresh; every output records the snapshot epoch that computed it.
 */

#ifndef ENMC_RUNTIME_API_H
#define ENMC_RUNTIME_API_H

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/classifier.h"
#include "runtime/snapshot.h"
#include "runtime/system.h"
#include "screening/cache.h"
#include "screening/screener.h"
#include "screening/trainer.h"

namespace enmc::runtime {

/** Construction options for an offloaded classifier. */
struct ClassifierOptions
{
    double reduction_scale = 0.25;          //!< Fig. 12(a) default
    tensor::QuantBits quant = tensor::QuantBits::Int4; //!< Fig. 12(b)
    /** Weight-quantization scheme (symmetric = bit-identical default). */
    tensor::QuantScheme scheme = tensor::QuantScheme::Symmetric;
    /** Target candidate count per inference (threshold is tuned to it). */
    size_t candidates = 64;
    screening::TrainerConfig trainer;
    /** Ranks to slice across in functional runs. */
    uint64_t ranks = 4;
    uint64_t seed = 42;
    /** Candidate-cache knobs (capacity 0 = disabled, the default). */
    screening::CacheConfig cache;
    /** Snapshot grace-list knobs. */
    SnapshotConfig snapshot;
};

/** `base` with the `ENMC_CACHE_*` / `ENMC_SNAPSHOT_*` environment
 *  overrides applied (fail-loud, like every other `ENMC_*` knob). */
ClassifierOptions
classifierOptionsFromEnv(ClassifierOptions base = ClassifierOptions{});

/** Die with a diagnostic when the cache is on with an FP32 screener (no
 *  integer sketch to key on) or a fault-injecting or resilient system
 *  (whose streams a screening bypass would reorder). */
void requireCacheExact(bool cache_on, tensor::QuantBits quant,
                       const SystemConfig &system);

/** One inference's output. */
struct ClassifierOutput
{
    tensor::Vector probabilities;      //!< full-length, mixed accuracy
    std::vector<uint32_t> topk;        //!< top-k category indices
    std::vector<uint32_t> candidates;  //!< rows computed accurately
    /** True when the candidate cache served this item (validated hit). */
    bool cache_hit = false;
    /** Screener snapshot epoch this item was computed under. */
    uint64_t snapshot_epoch = 0;
};

/** Who runs forward()'s cache misses; empty means the classifier's own
 *  EnmcSystem::runFunctional, and a cluster passes its fabric's. */
using MissRunner = std::function<EnmcSystem::FunctionalResult(
    const nn::Classifier &classifier, const screening::Screener &screener,
    const std::vector<tensor::Vector> &h_batch, uint64_t ranks)>;

/**
 * An extreme classifier offloaded to ENMC memory.
 *
 * Usage:
 *   EnmcClassifier clf(teacher, options, system);
 *   clf.calibrate(train_h, val_h);             // Algorithm 1 + threshold
 *   auto out = clf.forward(h_batch, k);        // runs on the rank model
 *
 * Calibrated means an epoch is published. The constructor publishes
 * nothing; calibrate(), load() and refresh() each build a finished
 * screener and publish it, with its projection seed, as one immutable
 * snapshot (epoch 1, 2, ...). A published snapshot is never written
 * again.
 *
 * Threading: forward() and save() may run concurrently with refresh()
 * (the serve executor thread and a control thread). Each reads one
 * snapshot and uses it throughout, so a batch never mixes epochs and a
 * saved file never pairs one epoch's screener with another's seed. One
 * thread at a time publishes (calibrate, load, refresh), and one thread
 * at a time calls forward(): the cache is single-threaded.
 */
class EnmcClassifier
{
  public:
    /** Publishes nothing; fatal per requireCacheExact. */
    EnmcClassifier(const nn::Classifier &teacher,
                   const ClassifierOptions &options,
                   const SystemConfig &system = SystemConfig{});

    /**
     * Distill a screener from options.seed, tune its FILTER threshold
     * and publish it (offline; epoch 1 on a fresh classifier).
     */
    screening::TrainReport calibrate(
        const std::vector<tensor::Vector> &train_h,
        const std::vector<tensor::Vector> &val_h);

    /**
     * Candidates-only classification of a batch on the ENMC model, under
     * one snapshot. Validated cache hits are served host-side; the
     * misses run on `run_misses` (the classifier's own system when
     * empty). Every output carries the snapshot's epoch.
     */
    std::vector<ClassifierOutput> forward(
        const std::vector<tensor::Vector> &h_batch, size_t k,
        const MissRunner &run_misses = {});

    /** Reference full classification (host-only path). */
    std::vector<ClassifierOutput> forwardFull(
        const std::vector<tensor::Vector> &h_batch, size_t k) const;

    /** Persist the current snapshot's screener and its projection seed
     *  (train once, deploy many). */
    void save(const std::string &path) const;

    /** Publish a previously saved screener as the next epoch. */
    void load(const std::string &path);

    /**
     * Online refresh: distill a fresh screener against the current
     * teacher (seeded from options.seed + the next epoch so retrains
     * differ), tune its threshold, and publish it. In-flight forward()
     * batches finish on the snapshot they acquired; later batches see
     * the new epoch. Returns the new epoch.
     */
    uint64_t refresh(const std::vector<tensor::Vector> &train_h,
                     const std::vector<tensor::Vector> &val_h);

    const nn::Classifier &teacher() const { return teacher_; }
    const ClassifierOptions &options() const { return options_; }
    /**
     * The current snapshot's screener. Only safe while no concurrent
     * refresh can retire it (calibration, tests); forward() and save()
     * hold one snapshot for the whole call instead.
     */
    const screening::Screener &screener() const;
    const EnmcSystem &system() const { return system_; }
    bool calibrated() const { return slot_.current() != nullptr; }

    /** Epoch of the currently published screener (0 before calibrate). */
    uint64_t snapshotEpoch() const { return slot_.epoch(); }
    ScreenerSnapshotSlot &snapshots() { return slot_; }
    screening::CandidateCache &cache() { return cache_; }

  private:
    /** A screener drawn from `seed`, trained, frozen and tuned. */
    std::pair<std::unique_ptr<screening::Screener>, screening::TrainReport>
    trainScreener(uint64_t seed, const std::vector<tensor::Vector> &train_h,
                  const std::vector<tensor::Vector> &val_h) const;

    /** Check a finished screener against this classifier and publish it
     *  as the next epoch; returns that epoch. */
    uint64_t publish(std::unique_ptr<const screening::Screener> screener,
                     uint64_t projection_seed);

    /** Serve one validated cache hit host-side (exact rows from h). */
    ClassifierOutput serveHit(const screening::CacheEntry &entry,
                              const tensor::Vector &h, size_t k) const;

    const nn::Classifier &teacher_;
    ClassifierOptions options_;
    EnmcSystem system_;
    ScreenerSnapshotSlot slot_;
    screening::CandidateCache cache_;
};

} // namespace enmc::runtime

#endif // ENMC_RUNTIME_API_H
