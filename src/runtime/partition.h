/**
 * @file
 * The one rank partitioning + rank-local address layout policy.
 *
 * Every consumer that splits a category range across execution units —
 * the timing path (`EnmcSystem::makeSliceTask`), the functional path
 * (`EnmcSystem::runFunctionalRange`), the channel simulator, the
 * scale-out timing model and the cluster router's shard map — derives
 * its slices from `RankPartitioner` and its task address map from
 * `TaskLayout`, so the timing and functional simulations provably
 * exercise one layout. (Regression-tested in
 * `tests/runtime/test_backend.cc`: both paths must produce byte-identical
 * base addresses for the same task shape.)
 */

#ifndef ENMC_RUNTIME_PARTITION_H
#define ENMC_RUNTIME_PARTITION_H

#include <cstdint>
#include <vector>

#include "enmc/task.h"

namespace enmc::runtime {

/** One contiguous share of a partitioned category range. */
struct RowSlice
{
    uint64_t begin = 0;   //!< first (global) row of this share
    uint64_t rows = 0;    //!< rows in this share (> 0)
};

/** Splits row ranges evenly across ranks / nodes. */
class RankPartitioner
{
  public:
    /** Rows per share when `rows` spread over `parts` (ceil slicing). */
    static uint64_t sliceRows(uint64_t rows, uint64_t parts)
    {
        return ceilDiv(rows, parts);
    }

    /** An even share of any per-part total (candidates, bytes, ...). */
    static uint64_t evenShare(uint64_t total, uint64_t parts)
    {
        return ceilDiv(total, parts);
    }

    /**
     * Partition [row_begin, row_begin + rows) into at most `parts`
     * contiguous slices of ceil(rows / parts) rows (the final slice takes
     * the remainder; trailing empty slices are dropped).
     */
    static std::vector<RowSlice> partition(uint64_t row_begin,
                                           uint64_t rows, uint64_t parts);
};

/**
 * Rank-local address layout: disjoint regions for screener weights,
 * classifier weights, biases, features and outputs, each region
 * row-aligned so streaming stays row-hit friendly.
 */
class TaskLayout
{
  public:
    /** Region alignment (one DRAM row's worth of bytes). */
    static constexpr uint64_t kAlign = 4096;

    /**
     * Assign the five base addresses of `task` from its dimensions.
     * @return the total reserved footprint in bytes.
     */
    static uint64_t assign(arch::RankTask &task);
};

} // namespace enmc::runtime

#endif // ENMC_RUNTIME_PARTITION_H
