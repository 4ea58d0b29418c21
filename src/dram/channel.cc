#include "dram/channel.h"

#include <algorithm>

#include "common/logging.h"

namespace enmc::dram {

const char *
cmdName(Cmd cmd)
{
    switch (cmd) {
      case Cmd::Act: return "ACT";
      case Cmd::Pre: return "PRE";
      case Cmd::Rd: return "RD";
      case Cmd::Wr: return "WR";
      case Cmd::Ref: return "REF";
    }
    return "?";
}

Channel::Channel(const Organization &org, const Timing &timing)
    : org_(org), timing_(timing),
      banks_(static_cast<size_t>(org.ranks) * org.banksPerRank()),
      ranks_(org.ranks)
{
    for (auto &r : ranks_) {
        r.next_act_bg.assign(org.bankgroups, 0);
        r.next_rd_bg.assign(org.bankgroups, 0);
        r.next_wr_bg.assign(org.bankgroups, 0);
    }
}

size_t
Channel::bankIndex(const AddrVec &vec) const
{
    ENMC_ASSERT(vec.rank < org_.ranks && vec.bankgroup < org_.bankgroups &&
                vec.bank < org_.banks, "bad bank coordinates");
    return static_cast<size_t>(vec.rank) * org_.banksPerRank() +
           static_cast<size_t>(vec.bankgroup) * org_.banks + vec.bank;
}

bool
Channel::rankAllPrecharged(uint32_t rank) const
{
    const size_t base = static_cast<size_t>(rank) * org_.banksPerRank();
    for (size_t i = 0; i < org_.banksPerRank(); ++i)
        if (banks_[base + i].active)
            return false;
    return true;
}

Cycles
Channel::earliestIssue(Cmd cmd, const AddrVec &vec, size_t bank_idx) const
{
    const BankState &bank = banks_[bank_idx];
    const RankState &rank = ranks_[vec.rank];

    switch (cmd) {
      case Cmd::Act: {
        if (bank.active)
            return kNever; // must precharge first
        Cycles at = std::max({bank.next_act, rank.next_act,
                              rank.next_act_bg[vec.bankgroup]});
        // Four-activate window: the 4th-previous ACT must be at least
        // tFAW cycles ago.
        if (rank.act_window.size() >= 4)
            at = std::max(at, rank.act_window.front() + timing_.tfaw);
        return at;
      }
      case Cmd::Pre:
        return bank.active ? bank.next_pre : kNever;
      case Cmd::Rd:
      case Cmd::Wr: {
        if (!bank.active || bank.open_row != vec.row)
            return kNever;
        const bool rd = cmd == Cmd::Rd;
        Cycles at = std::max({bank.next_rdwr,
                              rd ? rank.next_rd : rank.next_wr,
                              rd ? rank.next_rd_bg[vec.bankgroup]
                                 : rank.next_wr_bg[vec.bankgroup]});
        // Shared data bus: the new burst must start after the previous one
        // drains (plus a rank-switch bubble when changing ranks).
        Cycles bus_ready = bus_free_;
        if (last_bus_rank_ >= 0 &&
            static_cast<uint32_t>(last_bus_rank_) != vec.rank) {
            bus_ready += timing_.trtrs;
        }
        const Cycles latency = rd ? timing_.cl : timing_.cwl;
        if (bus_ready > latency)
            at = std::max(at, bus_ready - latency);
        return at;
      }
      case Cmd::Ref:
        if (!rankAllPrecharged(vec.rank))
            return kNever;
        return std::max(rank.next_ref, rank.next_act);
    }
    return kNever;
}

void
Channel::issue(Cmd cmd, const AddrVec &vec, Cycles now)
{
    ENMC_ASSERT(canIssue(cmd, vec, now), "issued ", cmdName(cmd),
                " violates timing");
    BankState &bank = banks_[bankIndex(vec)];
    RankState &rank = ranks_[vec.rank];
    ++cmd_counts_[static_cast<int>(cmd)];

    switch (cmd) {
      case Cmd::Act: {
        bank.active = true;
        bank.open_row = vec.row;
        bank.next_act = now + timing_.trc;
        bank.next_rdwr = now + timing_.trcd;
        bank.next_pre = now + timing_.tras;
        rank.next_act = std::max(rank.next_act, now + timing_.trrd_s);
        rank.next_act_bg[vec.bankgroup] =
            std::max(rank.next_act_bg[vec.bankgroup],
                     now + timing_.trrd_l);
        rank.act_window.push_back(now);
        while (rank.act_window.size() > 4)
            rank.act_window.pop_front();
        break;
      }
      case Cmd::Pre: {
        bank.active = false;
        bank.next_act = std::max(bank.next_act, now + timing_.trp);
        break;
      }
      case Cmd::Rd: {
        const Cycles data_end = now + timing_.cl + timing_.tbl;
        bus_free_ = data_end;
        last_bus_rank_ = static_cast<int>(vec.rank);
        rank.next_rd = std::max(rank.next_rd, now + timing_.tccd_s);
        rank.next_rd_bg[vec.bankgroup] =
            std::max(rank.next_rd_bg[vec.bankgroup],
                     now + timing_.tccd_l);
        // Read -> write turnaround: write data may start only after the
        // read burst leaves the bus.
        rank.next_wr = std::max(rank.next_wr,
                                data_end + 2 - timing_.cwl);
        bank.next_pre = std::max(bank.next_pre, now + timing_.trtp);
        break;
      }
      case Cmd::Wr: {
        const Cycles data_end = now + timing_.cwl + timing_.tbl;
        bus_free_ = data_end;
        last_bus_rank_ = static_cast<int>(vec.rank);
        rank.next_wr = std::max(rank.next_wr, now + timing_.tccd_s);
        rank.next_wr_bg[vec.bankgroup] =
            std::max(rank.next_wr_bg[vec.bankgroup],
                     now + timing_.tccd_l);
        rank.next_rd = std::max(rank.next_rd, data_end + timing_.twtr);
        bank.next_pre = std::max(bank.next_pre, data_end + timing_.twr);
        break;
      }
      case Cmd::Ref: {
        const size_t base =
            static_cast<size_t>(vec.rank) * org_.banksPerRank();
        for (size_t i = 0; i < org_.banksPerRank(); ++i) {
            banks_[base + i].next_act =
                std::max(banks_[base + i].next_act, now + timing_.trfc);
        }
        rank.next_act = std::max(rank.next_act, now + timing_.trfc);
        rank.next_ref = now + timing_.trefi;
        break;
      }
    }
}

uint64_t
Channel::commandCount(Cmd cmd) const
{
    return cmd_counts_[static_cast<int>(cmd)];
}

} // namespace enmc::dram
