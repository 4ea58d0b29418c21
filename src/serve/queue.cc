#include "serve/queue.h"

#include <algorithm>

#include "common/logging.h"

namespace enmc::serve {

const char *
admissionName(Admission a)
{
    switch (a) {
      case Admission::Admitted: return "admitted";
      case Admission::RejectedQueueFull: return "rejected-queue-full";
      case Admission::RejectedShutdown: return "rejected-shutdown";
      case Admission::RejectedInvalid: return "rejected-invalid";
    }
    return "?";
}

void
ArrivalTrace::normalize()
{
    std::stable_sort(requests.begin(), requests.end(),
                     [](const Request &a, const Request &b) {
                         if (a.arrival_us != b.arrival_us)
                             return a.arrival_us < b.arrival_us;
                         return a.id < b.id;
                     });
}

RequestQueue::RequestQueue(size_t capacity)
    : capacity_(capacity),
      stats_("serve.queue"),
      stat_admitted_(stats_.addCounter("admitted", "requests admitted")),
      stat_rejected_full_(stats_.addCounter(
          "rejectedFull", "requests rejected: queue at capacity")),
      stat_rejected_shutdown_(stats_.addCounter(
          "rejectedShutdown", "requests rejected: queue closed")),
      stat_popped_(stats_.addCounter("popped",
                                     "requests handed to the batcher")),
      // Fixed shape regardless of capacity: the registry merges
      // same-named groups across instances, so shapes must agree.
      stat_depth_(stats_.addHistogram(
          "depth", "queue depth observed at each admission", 0.0, 1024.0,
          32)),
      stats_registration_(stats_)
{
    ENMC_ASSERT(capacity_ >= 1, "queue capacity must be >= 1");
}

size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

void
RequestQueue::recordDecision(Admission a)
{
    switch (a) {
      case Admission::Admitted: ++stat_admitted_; break;
      case Admission::RejectedQueueFull: ++stat_rejected_full_; break;
      case Admission::RejectedShutdown: ++stat_rejected_shutdown_; break;
      case Admission::RejectedInvalid: break; // counted by the loop
    }
}

Admission
RequestQueue::admitLocked(QueuedRequest &&item, bool valid,
                          std::unique_lock<std::mutex> &)
{
    stat_depth_.sample(static_cast<double>(items_.size()));
    const Admission a =
        admitDecision(valid, items_.size(), capacity_, closed_);
    recordDecision(a);
    if (a == Admission::Admitted) {
        items_.push_back(std::move(item));
        items_cv_.notify_one();
    }
    return a;
}

Admission
RequestQueue::tryPush(QueuedRequest item, bool valid)
{
    std::unique_lock<std::mutex> lock(mutex_);
    return admitLocked(std::move(item), valid, lock);
}

Admission
RequestQueue::pushBlocking(QueuedRequest item, bool valid)
{
    std::unique_lock<std::mutex> lock(mutex_);
    space_cv_.wait(lock, [&] {
        return !valid || closed_ || items_.size() < capacity_;
    });
    return admitLocked(std::move(item), valid, lock);
}

Admission
RequestQueue::pushOrdered(QueuedRequest item, bool valid)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const RequestId id = item.request.id;
    order_cv_.wait(lock, [&] { return closed_ || next_ordered_id_ == id; });
    Admission a;
    if (closed_ && next_ordered_id_ != id) {
        a = Admission::RejectedShutdown;
        recordDecision(a);
    } else {
        a = admitLocked(std::move(item), valid, lock);
        ++next_ordered_id_;
    }
    order_cv_.notify_all();
    return a;
}

size_t
RequestQueue::pop(size_t max_n, std::chrono::microseconds wait,
                  std::vector<QueuedRequest> &out)
{
    ENMC_ASSERT(max_n >= 1, "pop needs max_n >= 1");
    std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty() && !closed_)
        items_cv_.wait_for(lock, wait,
                           [&] { return closed_ || !items_.empty(); });
    size_t n = 0;
    while (n < max_n && !items_.empty()) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
        ++n;
    }
    if (n > 0) {
        stat_popped_ += n;
        space_cv_.notify_all();
    }
    return n;
}

void
RequestQueue::recordReplayAdmission(Admission a, size_t depth)
{
    std::lock_guard<std::mutex> lock(mutex_);
    stat_depth_.sample(static_cast<double>(depth));
    recordDecision(a);
}

void
RequestQueue::recordReplayPop(size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    stat_popped_ += n;
}

void
RequestQueue::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    space_cv_.notify_all();
    items_cv_.notify_all();
    order_cv_.notify_all();
}

} // namespace enmc::serve
