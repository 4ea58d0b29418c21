/**
 * @file
 * DRAM device-state and timing model for one channel.
 *
 * Tracks per-bank open rows and enforces every JEDEC timing constraint in
 * the Timing struct via "earliest allowed issue cycle" tables at bank,
 * rank, and channel scope — the same mechanism Ramulator uses.
 */

#ifndef ENMC_DRAM_CHANNEL_H
#define ENMC_DRAM_CHANNEL_H

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "common/stats.h"
#include "common/units.h"
#include "dram/config.h"
#include "dram/timing.h"

namespace enmc::dram {

/** DRAM commands modeled by the simulator. */
enum class Cmd { Act, Pre, Rd, Wr, Ref };

const char *cmdName(Cmd cmd);

/** Timing/state model for one channel's DRAM devices. */
class Channel
{
  public:
    /** earliestIssue() result for a command no wait can make legal. */
    static constexpr Cycles kNever = std::numeric_limits<Cycles>::max();

    Channel(const Organization &org, const Timing &timing);

    /** Flat index of the addressed bank; panics on bad coordinates. */
    size_t bankIndex(const AddrVec &vec) const;

    /**
     * First cycle at which `cmd` targeting `vec` may issue, given the
     * current bank, rank and bus state; kNever if the bank state rules
     * it out (ACT to an active bank, PRE to an idle one, RD/WR to a
     * closed row, REF with a bank open). Every timing rule is a
     * monotone `now >= bound` test, so the result stays exact until the
     * next issue() changes the state.
     */
    Cycles earliestIssue(Cmd cmd, const AddrVec &vec) const
    {
        return earliestIssue(cmd, vec, bankIndex(vec));
    }

    /** As above, with `bank` == bankIndex(vec) precomputed. */
    Cycles earliestIssue(Cmd cmd, const AddrVec &vec, size_t bank) const;

    /** True iff `cmd` targeting the given coordinates may issue at `now`. */
    bool canIssue(Cmd cmd, const AddrVec &vec, Cycles now) const
    {
        return now >= earliestIssue(cmd, vec);
    }

    /** Issue `cmd`; updates open-row state and all timing tables. */
    void issue(Cmd cmd, const AddrVec &vec, Cycles now);

    /** Is the addressed bank active with exactly this row open? */
    bool rowOpen(const AddrVec &vec) const
    {
        return rowOpen(bankIndex(vec), vec.row);
    }
    bool rowOpen(size_t bank, uint32_t row) const
    {
        return banks_[bank].active && banks_[bank].open_row == row;
    }

    /** Is the addressed bank active (any row)? */
    bool bankActive(const AddrVec &vec) const
    {
        return bankActive(bankIndex(vec));
    }
    bool bankActive(size_t bank) const { return banks_[bank].active; }

    /** Are all banks of a rank precharged (required before REF)? */
    bool rankAllPrecharged(uint32_t rank) const;

    const Organization &org() const { return org_; }
    const Timing &timing() const { return timing_; }

    /** Command issue counters (ACT/PRE/RD/WR/REF), for energy accounting. */
    uint64_t commandCount(Cmd cmd) const;

  private:
    struct BankState
    {
        bool active = false;
        uint32_t open_row = 0;
        Cycles next_act = 0;
        Cycles next_pre = 0;
        Cycles next_rdwr = 0;
    };

    struct RankState
    {
        Cycles next_act = 0;  //!< tRRD_S / post-REF gate (any bank group)
        Cycles next_rd = 0;   //!< tCCD_S / tWTR gate (any bank group)
        Cycles next_wr = 0;   //!< tCCD_S / read->write turnaround gate
        Cycles next_ref = 0;
        std::deque<Cycles> act_window; //!< last ACT cycles for tFAW
        // Per-bank-group long constraints (tCCD_L / tRRD_L).
        std::vector<Cycles> next_act_bg;
        std::vector<Cycles> next_rd_bg;
        std::vector<Cycles> next_wr_bg;
    };

    Organization org_;
    Timing timing_;
    std::vector<BankState> banks_;   //!< [rank * banksPerRank + bank]
    std::vector<RankState> ranks_;
    Cycles bus_free_ = 0;            //!< end of last data burst on the bus
    int last_bus_rank_ = -1;
    uint64_t cmd_counts_[5] = {0, 0, 0, 0, 0};
};

} // namespace enmc::dram

#endif // ENMC_DRAM_CHANNEL_H
