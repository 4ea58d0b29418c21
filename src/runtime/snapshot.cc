#include "runtime/snapshot.h"

#include <utility>

#include "common/env.h"
#include "common/logging.h"

namespace enmc::runtime {

void
SnapshotConfig::validate() const
{
    if (max_retired < 1)
        ENMC_FATAL("ENMC_SNAPSHOT_MAX_RETIRED must be >= 1");
}

SnapshotConfig
snapshotConfigFromEnv(SnapshotConfig cfg)
{
    cfg.max_retired = envU64("ENMC_SNAPSHOT_MAX_RETIRED", cfg.max_retired);
    cfg.auto_collect =
        envBool("ENMC_SNAPSHOT_AUTO_COLLECT", cfg.auto_collect);
    cfg.validate();
    return cfg;
}

ScreenerSnapshotSlot::ScreenerSnapshotSlot(const SnapshotConfig &cfg)
    : cfg_(cfg),
      stats_("runtime.snapshot"),
      stat_publishes_(stats_.addCounter("publishes",
                                        "snapshot versions published")),
      stat_swaps_(stats_.addCounter(
          "swaps", "publishes that replaced a live snapshot")),
      stat_retired_(stats_.addCounter(
          "retired", "snapshots moved to the grace list")),
      stat_collected_(stats_.addCounter(
          "collected", "retired snapshots freed after their grace period")),
      stats_registration_(stats_)
{
    cfg_.validate();
}

uint64_t
ScreenerSnapshotSlot::publish(
    std::unique_ptr<const screening::Screener> screener,
    uint64_t projection_seed)
{
    ENMC_ASSERT(screener != nullptr, "cannot publish a null screener");
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t epoch = ++epoch_;
    auto next = std::make_shared<const ScreenerSnapshot>(
        epoch, std::move(screener), projection_seed);
    if (current_) {
        retired_.push_back(std::move(current_));
        ++stat_retired_;
        ++stat_swaps_;
    }
    current_ = std::move(next);
    ++stat_publishes_;
    if (cfg_.auto_collect)
        collectLocked();
    if (retired_.size() > cfg_.max_retired)
        ENMC_FATAL("snapshot grace list exceeded max_retired=",
                   cfg_.max_retired,
                   " (readers leaking snapshot references, or collect() "
                   "never called)");
    return epoch;
}

std::shared_ptr<const ScreenerSnapshot>
ScreenerSnapshotSlot::current() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return current_;
}

uint64_t
ScreenerSnapshotSlot::epoch() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return epoch_;
}

size_t
ScreenerSnapshotSlot::collect()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return collectLocked();
}

size_t
ScreenerSnapshotSlot::collectLocked()
{
    // A retiree the list alone still references has no readers left.
    const size_t freed = std::erase_if(
        retired_, [](const auto &snap) { return snap.use_count() == 1; });
    stat_collected_ += freed;
    return freed;
}

size_t
ScreenerSnapshotSlot::retiredCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return retired_.size();
}

} // namespace enmc::runtime
