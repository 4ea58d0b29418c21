/**
 * @file
 * Versioned screener snapshots with atomic hot-swap (ROADMAP item 4).
 *
 * The screener's logit geometry drifts as the upstream model retrains;
 * production serving cannot stop the world to refresh it. This slot
 * publishes epoch-tagged immutable snapshots through a mutex-guarded
 * `shared_ptr` swap: readers acquire the current snapshot once per
 * request (one pointer copy under a short lock — never torn, TSan-clean)
 * and keep using it for the whole forward pass even if a publish lands
 * mid-request. Every response records the epoch it was computed under.
 *
 * Reclamation is RCU-flavoured: a superseded snapshot moves to a retired
 * list instead of being destroyed (in-flight readers may still hold it);
 * `collect()` frees retired snapshots whose only remaining reference is
 * the list itself — i.e. after the grace period has naturally expired.
 * Epoch 0 means "nothing published yet"; the first publish is epoch 1
 * and epochs increase monotonically from there.
 */

#ifndef ENMC_RUNTIME_SNAPSHOT_H
#define ENMC_RUNTIME_SNAPSHOT_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/stats.h"
#include "obs/registry.h"
#include "screening/screener.h"

namespace enmc::runtime {

/** Snapshot-slot knobs; parsed from `ENMC_SNAPSHOT_*` (fail-loud). */
struct SnapshotConfig
{
    /**
     * Hard cap on retired snapshots awaiting collection. Exceeding it is
     * fatal — it means readers are leaking snapshot references (or the
     * caller never collects), and unbounded retired weight copies are an
     * OOM in production clothing.
     */
    size_t max_retired = 8;
    /** Run collect() automatically at each publish (on by default). */
    bool auto_collect = true;

    void validate() const;
};

/** `base` with `ENMC_SNAPSHOT_*` overrides applied. */
SnapshotConfig snapshotConfigFromEnv(SnapshotConfig base = SnapshotConfig{});

/** An immutable epoch-tagged screener version, with the Rng seed its
 *  projection was drawn from (everything forward() or save() reads). */
class ScreenerSnapshot
{
  public:
    ScreenerSnapshot(uint64_t epoch,
                     std::unique_ptr<const screening::Screener> screener,
                     uint64_t projection_seed)
        : epoch_(epoch), screener_(std::move(screener)),
          projection_seed_(projection_seed) {}

    uint64_t epoch() const { return epoch_; }
    const screening::Screener &screener() const { return *screener_; }
    uint64_t projectionSeed() const { return projection_seed_; }

  private:
    uint64_t epoch_;
    std::unique_ptr<const screening::Screener> screener_;
    uint64_t projection_seed_;
};

/** The publication point: one current snapshot + retired grace list. */
class ScreenerSnapshotSlot
{
  public:
    explicit ScreenerSnapshotSlot(const SnapshotConfig &cfg = {});

    /**
     * Publish a finished screener (projection drawn from
     * `projection_seed`) as a new version; returns its epoch. The previous
     * current snapshot (if any) retires; with auto_collect, expired
     * retirees are freed in the same call.
     */
    uint64_t publish(std::unique_ptr<const screening::Screener> screener,
                     uint64_t projection_seed);

    /**
     * Acquire the current snapshot (nullptr before the first publish).
     * The returned shared_ptr keeps the snapshot alive for as long as
     * the caller holds it, across any number of concurrent publishes.
     */
    std::shared_ptr<const ScreenerSnapshot> current() const;

    /** Epoch of the current snapshot; 0 before the first publish. */
    uint64_t epoch() const;

    /**
     * Free retired snapshots with no outstanding readers; returns how
     * many were freed. Safe to call from any thread, any time.
     */
    size_t collect();

    /** Retired snapshots still awaiting their grace period. */
    size_t retiredCount() const;

    StatGroup &stats() { return stats_; }

  private:
    /** collect() for a caller that holds mutex_. */
    size_t collectLocked();

    SnapshotConfig cfg_;
    mutable std::mutex mutex_;
    std::shared_ptr<const ScreenerSnapshot> current_;
    std::vector<std::shared_ptr<const ScreenerSnapshot>> retired_;
    uint64_t epoch_ = 0;

    StatGroup stats_;
    Counter &stat_publishes_;
    Counter &stat_swaps_;
    Counter &stat_retired_;
    Counter &stat_collected_;
    // Declared last so the group unregisters before any stat dies.
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::runtime

#endif // ENMC_RUNTIME_SNAPSHOT_H
