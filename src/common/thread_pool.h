/**
 * @file
 * A small fixed-size thread pool (no work stealing) plus a parallelFor
 * helper for the simulator's embarrassingly parallel loops.
 *
 * Rank slices and cluster node shards are independent simulations:
 * each worker runs whole iterations against its own EnmcRank/NmpEngine
 * instance and writes into a caller-owned, per-index output slot, so the
 * merged result is bit-identical to the serial loop regardless of worker
 * count or scheduling order. Iterations are handed out from a single
 * atomic counter — simple, deterministic in its outputs, and plenty for
 * loops whose bodies are millions of simulated cycles long.
 */

#ifndef ENMC_COMMON_THREAD_POOL_H
#define ENMC_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.h"

namespace enmc {

/** Fixed set of workers executing submitted jobs FIFO. */
class ThreadPool
{
  public:
    /**
     * @param workers Worker-thread count. 0 picks the hardware
     *        concurrency (at least 1).
     */
    explicit ThreadPool(size_t workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t workers() const { return threads_.size(); }

    /** Enqueue one job. Jobs must not throw. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

    /**
     * Run `fn(i)` for every i in [begin, end) on the pool and block until
     * all iterations complete. Iterations are claimed one at a time from
     * an atomic counter; with `workers() == 1` (or a single iteration)
     * the loop runs inline on the calling thread.
     *
     * If `fn` throws, the remaining unstarted iterations are skipped and
     * the first exception is rethrown on the calling thread after the
     * loop drains — the pool itself stays usable.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)> &fn);

    /**
     * Process-wide pool, sized once on first use from the
     * `ENMC_THREADS` environment variable (unset/0 = hardware
     * concurrency). Shared by every simulation loop so nested callers
     * do not oversubscribe the machine.
     */
    static ThreadPool &global();

    /**
     * Pool utilization stats ("common.threadPool"). The pool lives below
     * the obs layer, so it does not self-register with the StatRegistry;
     * obs::initMetrics enrolls the global pool's group when metrics are
     * requested.
     */
    StatGroup &stats() { return stats_; }

  private:
    void workerLoop();

    StatGroup stats_;
    Counter &jobs_executed_;
    Counter &parallel_fors_;
    Counter &iterations_;

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable work_cv_;   //!< signals workers: job or stop
    std::condition_variable done_cv_;   //!< signals wait(): all drained
    std::deque<std::function<void()>> queue_;
    size_t in_flight_ = 0;              //!< popped but unfinished jobs
    bool stop_ = false;
};

/**
 * Run `fn(i)` for i in [begin, end) with `workers` threads.
 * `workers == 1` runs serially inline (the reference path tests compare
 * against); `workers == 0` uses the global pool.
 */
void parallelFor(size_t begin, size_t end, size_t workers,
                 const std::function<void(size_t)> &fn);

} // namespace enmc

#endif // ENMC_COMMON_THREAD_POOL_H
