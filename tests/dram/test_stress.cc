/**
 * @file
 * Stress / property tests for the DRAM simulator: random traffic over a
 * grid of organizations and mappings must drain, conserve requests, and
 * never violate a timing constraint (violations panic inside
 * Channel::issue, so surviving the run *is* the assertion).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "dram/controller.h"

namespace enmc::dram {
namespace {

struct StressParam
{
    uint32_t ranks;
    uint32_t bankgroups;
    uint32_t banks;
    AddrMapping mapping;
    bool refresh;
};

class DramStress : public ::testing::TestWithParam<StressParam>
{
};

/** What a stress run leaves observable. */
struct StressOutcome
{
    Cycles end = 0;
    uint64_t issued = 0;
    uint64_t completed = 0;
    std::vector<uint64_t> counters; //!< every counter, in name order
    double occupancy_sum = 0.0;
    uint64_t occupancy_count = 0;
    double latency_sum = 0.0;
};

/**
 * 12000 rounds of one random request and one cycle each, then a drain.
 * With `skipping`, the drain jumps over the quiet cycles before each of
 * the controller's events instead of ticking through them.
 */
StressOutcome
stressRun(const StressParam &p, bool skipping)
{
    Organization org = Organization::paperTable3();
    org.channels = 1;
    org.ranks = p.ranks;
    org.bankgroups = p.bankgroups;
    org.banks = p.banks;
    org.mapping = p.mapping;
    ControllerConfig cfg;
    cfg.refresh_enabled = p.refresh;
    Controller ctrl(org, Timing::ddr4_2400(), cfg, "stress");

    Rng rng(p.ranks * 131 + p.bankgroups * 17 + p.banks);
    StressOutcome out;
    const uint64_t span = org.bytesPerChannel();
    Addr stream_addr = 0;
    for (int round = 0; round < 12000; ++round) {
        // Mixture: 60% streaming locality, 40% random.
        Addr addr;
        if (rng.uniform() < 0.6) {
            stream_addr += 64;
            addr = stream_addr % span;
        } else {
            addr = (static_cast<Addr>(rng()) % span) & ~Addr{63};
        }
        Request req;
        req.addr = addr;
        req.type = rng.uniform() < 0.3 ? ReqType::Write : ReqType::Read;
        req.on_complete = [&out](const Request &) { ++out.completed; };
        if (ctrl.enqueue(std::move(req)))
            ++out.issued;
        ctrl.tick();
    }
    const Cycles drain_from = ctrl.now();
    while (!ctrl.idle()) {
        if (skipping)
            ctrl.skipTo(ctrl.nextEventCycle() - 1);
        ctrl.tick();
        if (ctrl.now() - drain_from >= 2'000'000u) {
            ADD_FAILURE() << "failed to drain";
            break;
        }
    }
    out.end = ctrl.now();
    for (const auto &[name, c] : ctrl.stats().counters())
        out.counters.push_back(c.value.value());
    const ScalarStat &occ = ctrl.stats().scalar("queueOccupancy");
    out.occupancy_sum = occ.sum();
    out.occupancy_count = occ.count();
    out.latency_sum = ctrl.stats().scalar("readLatency").sum();

    EXPECT_EQ(out.completed, out.issued);
    EXPECT_EQ(ctrl.stats().counter("reads").value() +
                  ctrl.stats().counter("writes").value(),
              out.issued);
    if (p.refresh) {
        EXPECT_GT(ctrl.stats().counter("refreshes").value(), 0u);
    }
    return out;
}

TEST_P(DramStress, RandomTrafficConservedUnderAllTimings)
{
    stressRun(GetParam(), /*skipping=*/false);
}

TEST_P(DramStress, SkippingDrainMatchesTicking)
{
    const StressOutcome ticked = stressRun(GetParam(), false);
    const StressOutcome skipped = stressRun(GetParam(), true);
    EXPECT_EQ(skipped.end, ticked.end);
    EXPECT_EQ(skipped.completed, ticked.completed);
    EXPECT_EQ(skipped.counters, ticked.counters);
    EXPECT_EQ(skipped.occupancy_sum, ticked.occupancy_sum);
    EXPECT_EQ(skipped.occupancy_count, ticked.occupancy_count);
    EXPECT_EQ(skipped.occupancy_count, skipped.end);
    EXPECT_EQ(skipped.latency_sum, ticked.latency_sum);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DramStress,
    ::testing::Values(
        StressParam{1, 4, 4, AddrMapping::RoRaBgBaCoCh, true},
        StressParam{1, 4, 4, AddrMapping::RoRaCoBaBgCh, true},
        StressParam{1, 4, 4, AddrMapping::RoCoRaBgBaCh, true},
        StressParam{2, 4, 4, AddrMapping::RoRaBgBaCoCh, true},
        StressParam{4, 4, 4, AddrMapping::RoRaCoBaBgCh, true},
        StressParam{8, 4, 4, AddrMapping::RoRaBgBaCoCh, true},
        StressParam{1, 2, 2, AddrMapping::RoRaCoBaBgCh, true},
        StressParam{2, 2, 8, AddrMapping::RoCoRaBgBaCh, true},
        StressParam{1, 4, 4, AddrMapping::RoRaBgBaCoCh, false},
        StressParam{4, 2, 4, AddrMapping::RoRaCoBaBgCh, false}),
    [](const ::testing::TestParamInfo<StressParam> &info) {
        const auto &p = info.param;
        return std::string("r") + std::to_string(p.ranks) + "bg" +
               std::to_string(p.bankgroups) + "b" +
               std::to_string(p.banks) + "m" +
               std::to_string(static_cast<int>(p.mapping)) +
               (p.refresh ? "ref" : "noref");
    });

/** Fuzz the ISA encode/decode with random-but-valid instructions. */
TEST(DramStress, TimingPresetInternallyConsistent)
{
    const Timing t = Timing::ddr4_2400();
    EXPECT_EQ(t.tras + t.trp, t.trc);
    EXPECT_GE(t.tccd_l, t.tccd_s);
    EXPECT_GE(t.trrd_l, t.trrd_s);
    EXPECT_GE(t.cl, t.cwl);
    EXPECT_GT(t.trefi, t.trfc);
}

} // namespace
} // namespace enmc::dram
