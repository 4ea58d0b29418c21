/**
 * @file
 * Tests for JEDEC timing enforcement in the channel state machine.
 */

#include <gtest/gtest.h>

#include "dram/channel.h"

namespace enmc::dram {
namespace {

class ChannelTiming : public ::testing::Test
{
  protected:
    ChannelTiming()
        : org_(makeOrg()), timing_(Timing::ddr4_2400()),
          ch_(org_, timing_)
    {
    }

    static Organization
    makeOrg()
    {
        Organization o = Organization::paperTable3();
        o.channels = 1;
        o.ranks = 2; // rank-to-rank tests need two
        return o;
    }

    AddrVec
    at(uint32_t rank, uint32_t bg, uint32_t bank, uint32_t row)
    {
        AddrVec v;
        v.rank = rank;
        v.bankgroup = bg;
        v.bank = bank;
        v.row = row;
        return v;
    }

    Organization org_;
    Timing timing_;
    Channel ch_;
};

TEST_F(ChannelTiming, ActivateOpensRow)
{
    const AddrVec v = at(0, 0, 0, 5);
    EXPECT_FALSE(ch_.rowOpen(v));
    ASSERT_TRUE(ch_.canIssue(Cmd::Act, v, 10));
    ch_.issue(Cmd::Act, v, 10);
    EXPECT_TRUE(ch_.rowOpen(v));
    EXPECT_TRUE(ch_.bankActive(v));
}

TEST_F(ChannelTiming, TrcdGatesReadAfterActivate)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    EXPECT_FALSE(ch_.canIssue(Cmd::Rd, v, 100 + timing_.trcd - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Rd, v, 100 + timing_.trcd));
}

TEST_F(ChannelTiming, TrasGatesPrecharge)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    EXPECT_FALSE(ch_.canIssue(Cmd::Pre, v, 100 + timing_.tras - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Pre, v, 100 + timing_.tras));
}

TEST_F(ChannelTiming, TrpGatesNextActivate)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    const Cycles pre_at = 100 + timing_.tras;
    ch_.issue(Cmd::Pre, v, pre_at);
    EXPECT_FALSE(ch_.canIssue(Cmd::Act, v, pre_at + timing_.trp - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Act, v, pre_at + timing_.trp));
}

TEST_F(ChannelTiming, TrcGatesActToActSameBank)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    ch_.issue(Cmd::Pre, v, 100 + timing_.tras);
    // tRP satisfied at tRAS + tRP = tRC - OK; but verify the combined
    // constraint directly: ACT->ACT >= tRC.
    EXPECT_FALSE(ch_.canIssue(Cmd::Act, v, 100 + timing_.trc - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Act, v, 100 + timing_.trc));
}

TEST_F(ChannelTiming, TrrdShortGatesActsAcrossBankGroups)
{
    ch_.issue(Cmd::Act, at(0, 0, 0, 1), 100);
    const AddrVec other = at(0, 1, 0, 1); // different bank group
    EXPECT_FALSE(ch_.canIssue(Cmd::Act, other, 100 + timing_.trrd_s - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Act, other, 100 + timing_.trrd_s));
}

TEST_F(ChannelTiming, TrrdLongGatesActsWithinBankGroup)
{
    ch_.issue(Cmd::Act, at(0, 0, 0, 1), 100);
    const AddrVec same_bg = at(0, 0, 1, 1); // same group, other bank
    EXPECT_FALSE(ch_.canIssue(Cmd::Act, same_bg, 100 + timing_.trrd_l - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Act, same_bg, 100 + timing_.trrd_l));
}

TEST_F(ChannelTiming, FawLimitsBurstsOfActivates)
{
    // Use a relaxed tRRD so tFAW is the binding constraint.
    Timing t = timing_;
    t.trrd_s = 1;
    t.trrd_l = 1;
    t.tfaw = 20;
    Channel ch(org_, t);
    Cycles now = 100;
    for (int i = 0; i < 4; ++i)
        ch.issue(Cmd::Act, at(0, static_cast<uint32_t>(i) % 4,
                              static_cast<uint32_t>(i) / 4, 1),
                 now + i);
    const AddrVec fifth = at(0, 0, 1, 1);
    EXPECT_FALSE(ch.canIssue(Cmd::Act, fifth, now + 4));
    EXPECT_FALSE(ch.canIssue(Cmd::Act, fifth, now + t.tfaw - 1));
    EXPECT_TRUE(ch.canIssue(Cmd::Act, fifth, now + t.tfaw));
}

TEST_F(ChannelTiming, TccdLongGatesReadsWithinBankGroup)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    const Cycles rd1 = 100 + timing_.trcd;
    ch_.issue(Cmd::Rd, v, rd1);
    EXPECT_FALSE(ch_.canIssue(Cmd::Rd, v, rd1 + timing_.tccd_l - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Rd, v, rd1 + timing_.tccd_l));
}

TEST_F(ChannelTiming, TccdShortGatesReadsAcrossBankGroups)
{
    const AddrVec a = at(0, 0, 0, 1);
    const AddrVec b = at(0, 1, 0, 1); // different bank group
    ch_.issue(Cmd::Act, a, 100);
    ch_.issue(Cmd::Act, b, 100 + timing_.trrd_s);
    const Cycles rd1 = 100 + timing_.trcd + timing_.trrd_s;
    ch_.issue(Cmd::Rd, a, rd1);
    EXPECT_FALSE(ch_.canIssue(Cmd::Rd, b, rd1 + timing_.tccd_s - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Rd, b, rd1 + timing_.tccd_s));
}

TEST_F(ChannelTiming, ReadNeedsOpenMatchingRow)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    AddrVec wrong = v;
    wrong.row = 2;
    EXPECT_FALSE(ch_.canIssue(Cmd::Rd, wrong, 100 + timing_.trcd));
}

TEST_F(ChannelTiming, WriteToReadTurnaround)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    const Cycles wr = 100 + timing_.trcd;
    ch_.issue(Cmd::Wr, v, wr);
    const Cycles gate = wr + timing_.cwl + timing_.tbl + timing_.twtr;
    EXPECT_FALSE(ch_.canIssue(Cmd::Rd, v, gate - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Rd, v, gate));
}

TEST_F(ChannelTiming, WriteRecoveryGatesPrecharge)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    const Cycles wr = 100 + timing_.trcd;
    ch_.issue(Cmd::Wr, v, wr);
    const Cycles gate = wr + timing_.cwl + timing_.tbl + timing_.twr;
    EXPECT_FALSE(ch_.canIssue(Cmd::Pre, v, gate - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Pre, v, gate));
}

TEST_F(ChannelTiming, RankToRankBusSwitchPenalty)
{
    const AddrVec r0 = at(0, 0, 0, 1);
    const AddrVec r1 = at(1, 0, 0, 1);
    ch_.issue(Cmd::Act, r0, 100);
    ch_.issue(Cmd::Act, r1, 100 + timing_.trrd_s);
    const Cycles rd0 = 100 + timing_.trcd + timing_.trrd_s;
    ch_.issue(Cmd::Rd, r0, rd0);
    // Same-rank next read allowed at tCCD; other-rank read must leave a
    // tRTRS bubble after the first burst drains.
    const Cycles data_end = rd0 + timing_.cl + timing_.tbl;
    const Cycles other_ok = data_end + timing_.trtrs - timing_.cl;
    EXPECT_FALSE(ch_.canIssue(Cmd::Rd, r1, other_ok - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Rd, r1, other_ok));
}

TEST_F(ChannelTiming, EarliestIssueNamesTheBindingBound)
{
    const AddrVec r0 = at(0, 0, 0, 1);
    const AddrVec r1 = at(1, 0, 0, 1);
    // Bank state alone rules a command out: no wait makes it legal.
    EXPECT_EQ(ch_.earliestIssue(Cmd::Pre, r0), Channel::kNever);
    EXPECT_EQ(ch_.earliestIssue(Cmd::Rd, r0), Channel::kNever);
    EXPECT_EQ(ch_.earliestIssue(Cmd::Ref, r0), 0u);
    ch_.issue(Cmd::Act, r1, 90);
    ch_.issue(Cmd::Act, r0, 100);
    EXPECT_EQ(ch_.earliestIssue(Cmd::Act, r0), Channel::kNever);
    EXPECT_EQ(ch_.earliestIssue(Cmd::Ref, r0), Channel::kNever);
    EXPECT_EQ(ch_.earliestIssue(Cmd::Wr, at(0, 0, 0, 2)), Channel::kNever);
    EXPECT_EQ(ch_.earliestIssue(Cmd::Rd, r0), 100 + timing_.trcd);
    EXPECT_EQ(ch_.earliestIssue(Cmd::Pre, r0), 100 + timing_.tras);
    EXPECT_EQ(ch_.earliestIssue(Cmd::Act, at(0, 0, 1, 1)),
              100 + timing_.trrd_l);
    // Rank 1's tRCD has long passed; the data bus, drained plus the
    // rank-switch bubble, binds its read.
    const Cycles rd0 = 100 + timing_.trcd;
    ch_.issue(Cmd::Rd, r0, rd0);
    EXPECT_EQ(ch_.earliestIssue(Cmd::Rd, r1),
              rd0 + timing_.tbl + timing_.trtrs);
    EXPECT_FALSE(ch_.canIssue(Cmd::Rd, r1, rd0 + timing_.tbl +
                                               timing_.trtrs - 1));
}

TEST_F(ChannelTiming, RefreshRequiresAllBanksPrecharged)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    AddrVec rank0;
    rank0.rank = 0;
    EXPECT_FALSE(ch_.canIssue(Cmd::Ref, rank0, 100 + timing_.trefi));
    ch_.issue(Cmd::Pre, v, 100 + timing_.tras);
    EXPECT_TRUE(ch_.canIssue(Cmd::Ref, rank0,
                             100 + timing_.tras + timing_.trp +
                                 timing_.trefi));
}

TEST_F(ChannelTiming, RefreshBlocksActivatesForTrfc)
{
    AddrVec rank0;
    rank0.rank = 0;
    const Cycles ref_at = timing_.trefi;
    ASSERT_TRUE(ch_.canIssue(Cmd::Ref, rank0, ref_at));
    ch_.issue(Cmd::Ref, rank0, ref_at);
    const AddrVec v = at(0, 2, 1, 9);
    EXPECT_FALSE(ch_.canIssue(Cmd::Act, v, ref_at + timing_.trfc - 1));
    EXPECT_TRUE(ch_.canIssue(Cmd::Act, v, ref_at + timing_.trfc));
    // Other rank unaffected.
    EXPECT_TRUE(ch_.canIssue(Cmd::Act, at(1, 0, 0, 1), ref_at + 1));
}

TEST_F(ChannelTiming, CommandCountsTrack)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    ch_.issue(Cmd::Rd, v, 100 + timing_.trcd);
    EXPECT_EQ(ch_.commandCount(Cmd::Act), 1u);
    EXPECT_EQ(ch_.commandCount(Cmd::Rd), 1u);
    EXPECT_EQ(ch_.commandCount(Cmd::Pre), 0u);
}

TEST_F(ChannelTiming, DoubleActivateRejected)
{
    const AddrVec v = at(0, 0, 0, 1);
    ch_.issue(Cmd::Act, v, 100);
    // Bank already active: a second ACT is illegal until precharge.
    EXPECT_FALSE(ch_.canIssue(Cmd::Act, v, 100 + timing_.trc + 100));
}

TEST_F(ChannelTiming, IssueViolationPanics)
{
    const AddrVec v = at(0, 0, 0, 1);
    EXPECT_DEATH(ch_.issue(Cmd::Rd, v, 0), "violates timing");
}

} // namespace
} // namespace enmc::dram
