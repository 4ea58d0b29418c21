/**
 * @file
 * Tests for the FR-FCFS memory controller.
 */

#include <gtest/gtest.h>

#include <functional>
#include <list>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dram/controller.h"
#include "fault/injector.h"

namespace enmc::dram {
namespace {

Organization
singleRankOrg()
{
    Organization o = Organization::paperTable3();
    o.channels = 1;
    o.ranks = 1;
    return o;
}

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest()
        : org_(singleRankOrg()), timing_(Timing::ddr4_2400()),
          ctrl_(org_, timing_, ControllerConfig{}, "test")
    {
    }

    /** Enqueue a read and return the completion cycle via callback. */
    void
    read(Addr addr, std::vector<Cycles> *done)
    {
        Request req;
        req.addr = addr;
        req.type = ReqType::Read;
        req.on_complete = [done](const Request &r) {
            done->push_back(r.complete);
        };
        ASSERT_TRUE(ctrl_.enqueue(std::move(req)));
    }

    void
    tickUntilIdle(Cycles bound = 1'000'000)
    {
        Cycles n = 0;
        while (!ctrl_.idle()) {
            ctrl_.tick();
            ASSERT_LT(++n, bound) << "controller failed to drain";
        }
    }

    Organization org_;
    Timing timing_;
    Controller ctrl_;
};

TEST_F(ControllerTest, ColdReadLatency)
{
    std::vector<Cycles> done;
    read(0, &done);
    tickUntilIdle();
    ASSERT_EQ(done.size(), 1u);
    // Closed bank: ACT + tRCD + CL + BL (plus the controller's one-cycle
    // scheduling steps).
    const Cycles ideal = timing_.trcd + timing_.cl + timing_.tbl;
    EXPECT_GE(done[0], ideal);
    EXPECT_LE(done[0], ideal + 4);
}

TEST_F(ControllerTest, RowHitFasterThanConflict)
{
    // Two reads to the same row, then one to a different row of the same
    // bank.
    std::vector<Cycles> done;
    read(0, &done);
    read(64, &done);                       // same row (sequential line)
    tickUntilIdle();
    const Cycles hit_delta = done[1] - done[0];

    std::vector<Cycles> done2;
    read(0, &done2);
    // Different row, same bank/bankgroup: flip a row bit.
    Organization o = org_;
    AddrVec v = mapAddress(0, o);
    v.row = 123;
    read(unmapAddress(v, o), &done2);
    tickUntilIdle();
    const Cycles conflict_delta = done2[1] - done2[0];
    EXPECT_LT(hit_delta, conflict_delta);
    EXPECT_EQ(hit_delta, timing_.tccd_l); // sequential lines share a bank group
}

TEST_F(ControllerTest, RowHitCounters)
{
    std::vector<Cycles> done;
    read(0, &done);
    tickUntilIdle();
    read(64, &done); // row buffer still open -> hit
    tickUntilIdle();
    EXPECT_EQ(ctrl_.stats().counter("rowHits").value(), 1u);
    EXPECT_EQ(ctrl_.stats().counter("rowMisses").value(), 1u);
    EXPECT_EQ(ctrl_.stats().counter("reads").value(), 2u);
}

TEST_F(ControllerTest, StreamingApproachesPeakBandwidth)
{
    // 512 sequential lines = 32 KiB, streamed with the on-DIMM
    // bank-group-interleaved mapping (sequential lines alternate groups,
    // so tCCD_S rather than tCCD_L paces the bus).
    Controller ctrl(org_.singleRankView(), timing_, ControllerConfig{},
                    "stream");
    std::vector<Cycles> done;
    const int lines = 512;
    int issued = 0;
    while (issued < lines) {
        Request req;
        req.addr = static_cast<Addr>(issued) * 64;
        req.type = ReqType::Read;
        req.on_complete = [&done](const Request &r) {
            done.push_back(r.complete);
        };
        if (ctrl.enqueue(std::move(req)))
            ++issued;
        else
            ctrl.tick();
    }
    Cycles n = 0;
    while (!ctrl.idle()) {
        ctrl.tick();
        ASSERT_LT(++n, 1'000'000u);
    }
    ASSERT_EQ(done.size(), static_cast<size_t>(lines));
    // Data bus limit: one 64B line per tCCD_S(=tbl) cycles. Allow 25%
    // overhead for row transitions and refresh.
    const double cycles = static_cast<double>(ctrl.now());
    const double ideal = static_cast<double>(lines) * timing_.tbl;
    EXPECT_LT(cycles, ideal * 1.25);
    EXPECT_GE(cycles, ideal);
}

TEST_F(ControllerTest, BankGroupInterleaveBeatsLinearMappingOnStreams)
{
    // The same sequential stream through the default (column-major)
    // mapping is paced by tCCD_L; the interleaved mapping reaches the
    // bus rate. This is why the on-DIMM controllers interleave.
    auto stream_cycles = [&](const Organization &org) {
        Controller ctrl(org, timing_, ControllerConfig{}, "map");
        int issued = 0;
        while (issued < 256) {
            Request req;
            req.addr = static_cast<Addr>(issued) * 64;
            if (ctrl.enqueue(std::move(req)))
                ++issued;
            else
                ctrl.tick();
        }
        while (!ctrl.idle())
            ctrl.tick();
        return ctrl.now();
    };
    const Cycles linear = stream_cycles(org_);
    const Cycles interleaved = stream_cycles(org_.singleRankView());
    EXPECT_LT(interleaved, linear);
}

TEST_F(ControllerTest, WritesComplete)
{
    int completed = 0;
    Request req;
    req.addr = 4096;
    req.type = ReqType::Write;
    req.on_complete = [&completed](const Request &) { ++completed; };
    ASSERT_TRUE(ctrl_.enqueue(std::move(req)));
    tickUntilIdle();
    EXPECT_EQ(completed, 1);
    EXPECT_EQ(ctrl_.stats().counter("writes").value(), 1u);
}

TEST_F(ControllerTest, QueueFillsAndRejects)
{
    for (size_t i = 0; i < ctrl_.queueDepth(); ++i) {
        Request req;
        req.addr = static_cast<Addr>(i) * 8192 * 64; // scattered
        EXPECT_TRUE(ctrl_.enqueue(std::move(req)));
    }
    Request extra;
    extra.addr = 1 << 20;
    EXPECT_FALSE(ctrl_.enqueue(std::move(extra)));
    tickUntilIdle();
}

TEST_F(ControllerTest, RefreshHappensPeriodically)
{
    // Idle-tick for 3 refresh intervals.
    for (Cycles i = 0; i < 3 * timing_.trefi + 100; ++i)
        ctrl_.tick();
    EXPECT_GE(ctrl_.stats().counter("refreshes").value(), 3u);
    EXPECT_LE(ctrl_.stats().counter("refreshes").value(), 4u);
}

TEST_F(ControllerTest, RefreshCanBeDisabled)
{
    ControllerConfig cfg;
    cfg.refresh_enabled = false;
    Controller ctrl(org_, timing_, cfg, "noref");
    for (Cycles i = 0; i < 2 * timing_.trefi; ++i)
        ctrl.tick();
    EXPECT_EQ(ctrl.stats().counter("refreshes").value(), 0u);
}

TEST_F(ControllerTest, NextEventIsTheRefreshDeadlineWhenIdle)
{
    EXPECT_EQ(ctrl_.nextEventCycle(), timing_.trefi);
    ctrl_.skipTo(timing_.trefi - 1);
    ctrl_.tick(); // the refresh falls due; its REF can issue at once
    EXPECT_EQ(ctrl_.stats().counter("refreshes").value(), 1u);
    EXPECT_EQ(ctrl_.nextEventCycle(), 2 * timing_.trefi);
    EXPECT_EQ(ctrl_.stats().scalar("queueOccupancy").count(),
              timing_.trefi);
}

TEST_F(ControllerTest, IdleWithoutRefreshHasNoNextEvent)
{
    ControllerConfig cfg;
    cfg.refresh_enabled = false;
    Controller ctrl(org_, timing_, cfg, "noref");
    EXPECT_EQ(ctrl.nextEventCycle(), Channel::kNever);
    // Nothing is ever due: a skip of any length is one step.
    const Cycles far = 1'000'000'000'000ull;
    ctrl.skipTo(far);
    EXPECT_EQ(ctrl.now(), far);
    EXPECT_EQ(ctrl.stats().scalar("queueOccupancy").count(), far);
    EXPECT_EQ(ctrl.stats().scalar("queueOccupancy").sum(), 0.0);
}

TEST_F(ControllerTest, NextEventTracksQueuedWorkAndCompletions)
{
    std::vector<Cycles> done;
    read(0x0, &done);
    // A fresh request may issue its ACT on the next tick.
    EXPECT_EQ(ctrl_.nextEventCycle(), 1u);
    Cycles ticks = 0;
    while (!ctrl_.idle()) {
        ctrl_.skipTo(ctrl_.nextEventCycle() - 1);
        ctrl_.tick();
        ++ticks;
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(ctrl_.now(), done[0]);
    // ACT, RD and the completion: one tick each, at most one more for a
    // scan that wakes on the row becoming ready.
    EXPECT_LE(ticks, 4u);
    EXPECT_EQ(ctrl_.stats().scalar("queueOccupancy").count(), ctrl_.now());
}

TEST_F(ControllerTest, SkipToPastTheNextEventPanics)
{
    std::vector<Cycles> done;
    read(0x0, &done);
    EXPECT_DEATH(ctrl_.skipTo(5), "passes the next event");
}

TEST_F(ControllerTest, FrfcfsPrefersReadyRowHit)
{
    // Prime: open row A in bank 0.
    std::vector<Cycles> done_a;
    read(0, &done_a);
    tickUntilIdle();

    // Enqueue: conflict request (row B bank 0) first, then a hit (row A).
    AddrVec vb = mapAddress(0, org_);
    vb.row = 77;
    std::vector<Cycles> done_b, done_hit;
    read(unmapAddress(vb, org_), &done_b);
    read(64, &done_hit);
    tickUntilIdle();
    // The row hit completes before the older conflicting request
    // (first-ready scheduling).
    ASSERT_EQ(done_b.size(), 1u);
    ASSERT_EQ(done_hit.size(), 1u);
    EXPECT_LT(done_hit[0], done_b[0]);
}

TEST_F(ControllerTest, BytesAndBandwidthAccounting)
{
    std::vector<Cycles> done;
    read(0, &done);
    read(64, &done);
    tickUntilIdle();
    EXPECT_EQ(ctrl_.bytesTransferred(), 2u * 64u);
    EXPECT_GT(ctrl_.achievedBandwidth(), 0.0);
}

TEST_F(ControllerTest, ReadLatencyStatSampled)
{
    std::vector<Cycles> done;
    read(0, &done);
    tickUntilIdle();
    EXPECT_EQ(ctrl_.stats().scalar("readLatency").count(), 1u);
    EXPECT_GT(ctrl_.stats().scalar("readLatency").mean(), 0.0);
}

/** Long-run stress: random traffic drains and respects conservation. */
TEST_F(ControllerTest, RandomTrafficDrains)
{
    uint64_t completed = 0;
    uint64_t issued = 0;
    uint64_t next = 12345;
    for (int round = 0; round < 2000; ++round) {
        next = next * 6364136223846793005ull + 1442695040888963407ull;
        Request req;
        req.addr = (next >> 16) % (1ull << 28);
        req.type = (next & 1) ? ReqType::Write : ReqType::Read;
        req.on_complete = [&completed](const Request &) { ++completed; };
        if (ctrl_.enqueue(std::move(req)))
            ++issued;
        ctrl_.tick();
    }
    tickUntilIdle();
    EXPECT_EQ(completed, issued);
    EXPECT_EQ(ctrl_.stats().counter("reads").value() +
                  ctrl_.stats().counter("writes").value(),
              issued);
}

// ---- fault-injector attachment + ECC overhead model ----

/** Run `n` sequential reads through a fresh tick loop and return the ECC
 *  classification counters (corrected, detected, escaped). */
struct EccTally
{
    uint64_t corrected = 0;
    uint64_t detected = 0;
    uint64_t escaped = 0;
    bool operator==(const EccTally &) const = default;
};

TEST_F(ControllerTest, ReattachResetsBurstSequence)
{
    // The determinism contract: classification outcomes are pure in
    // (seed, stream, burst index). Re-attaching an injector must restart
    // the burst index, so the same read sequence replays the same
    // outcomes — a stale sequence number used to leak across re-attach.
    fault::FaultConfig fcfg;
    fcfg.enabled = true;
    fcfg.seed = 9;
    fcfg.data_ber = 2e-3; // high enough that 64 bursts see faults
    fault::FaultInjector injector(fcfg, /*stream=*/0);

    auto pass = [&]() {
        ctrl_.attachFaultInjector(&injector);
        const uint64_t c0 = ctrl_.stats().counter("eccCorrected").value();
        const uint64_t d0 = ctrl_.stats().counter("eccDetected").value();
        const uint64_t e0 = ctrl_.stats().counter("eccEscaped").value();
        std::vector<Cycles> done;
        for (int i = 0; i < 64; ++i)
            read(static_cast<Addr>(i) * 64, &done);
        tickUntilIdle();
        EccTally t;
        t.corrected = ctrl_.stats().counter("eccCorrected").value() - c0;
        t.detected = ctrl_.stats().counter("eccDetected").value() - d0;
        t.escaped = ctrl_.stats().counter("eccEscaped").value() - e0;
        return t;
    };

    const EccTally first = pass();
    EXPECT_GT(first.corrected + first.detected + first.escaped, 0u)
        << "operating point no longer exercises the fault path";
    const EccTally second = pass();
    EXPECT_EQ(first, second)
        << "re-attach must replay identical burst classifications";
}

TEST_F(ControllerTest, EccOverheadOffChargesNothing)
{
    fault::FaultConfig fcfg;
    fcfg.enabled = true;
    fcfg.seed = 9;
    fcfg.data_ber = 0.0; // classification path active, overhead off
    fault::FaultInjector injector(fcfg, 0);
    ctrl_.attachFaultInjector(&injector);

    std::vector<Cycles> done;
    for (int i = 0; i < 32; ++i)
        read(static_cast<Addr>(i) * 64, &done);
    tickUntilIdle();
    EXPECT_EQ(ctrl_.eccRedundancyReads(), 0u);
    EXPECT_EQ(ctrl_.eccDecodeCyclesCharged(), 0u);
    EXPECT_EQ(ctrl_.stats().counter("eccProtectedReads").value(), 0u);
}

TEST_F(ControllerTest, EccOverheadChargesRedundancyAndDecode)
{
    // One controller with the overhead model on, one with it off: the
    // protected run must issue SECDED(72,64) check-bit bursts (1/8 of the
    // data bursts) and charge decode latency on every read.
    fault::FaultConfig fcfg;
    fcfg.enabled = true;
    fcfg.seed = 9;
    fcfg.data_ber = 0.0;
    fcfg.ecc_overhead = true;
    fault::FaultInjector injector(fcfg, 0);
    ctrl_.attachFaultInjector(&injector);

    constexpr int kReads = 64;
    std::vector<Cycles> done;
    for (int i = 0; i < kReads; ++i)
        read(static_cast<Addr>(i) * 64, &done);
    tickUntilIdle();

    // 12.5% overhead => one redundancy burst per 8 data bursts.
    EXPECT_EQ(ctrl_.eccRedundancyReads(), kReads / 8);
    const Timing t = Timing::ddr4_2400();
    EXPECT_EQ(ctrl_.eccDecodeCyclesCharged(),
              static_cast<uint64_t>(kReads) *
                  t.eccDecodeCycles(fault::EccScheme::Word72));
    EXPECT_EQ(ctrl_.stats().counter("eccProtectedReads").value(),
              static_cast<uint64_t>(kReads));

    // The charges land on the request timeline, not just the counters.
    Controller plain(org_, timing_, ControllerConfig{}, "test.plain");
    std::vector<Cycles> plain_done;
    for (int i = 0; i < kReads; ++i) {
        Request req;
        req.addr = static_cast<Addr>(i) * 64;
        req.type = ReqType::Read;
        req.on_complete = [&plain_done](const Request &r) {
            plain_done.push_back(r.complete);
        };
        ASSERT_TRUE(plain.enqueue(std::move(req)));
    }
    while (!plain.idle())
        plain.tick();
    ASSERT_EQ(done.size(), plain_done.size());
    EXPECT_GT(done.back(), plain_done.back())
        << "ECC overhead must lengthen the read timeline";
}

TEST_F(ControllerTest, WeakNoneClassSkipsOverheadStrongPays)
{
    // Differentiated protection at the controller: Weak-class requests
    // mapped to EccScheme::None ride free; Strong-class requests pay.
    fault::FaultConfig fcfg;
    fcfg.enabled = true;
    fcfg.data_ber = 0.0;
    fcfg.ecc_overhead = true;
    fcfg.weak_scheme = fault::EccScheme::None;
    fault::FaultInjector injector(fcfg, 0);
    ctrl_.attachFaultInjector(&injector);

    std::vector<Cycles> done;
    for (int i = 0; i < 16; ++i) {
        Request req;
        req.addr = static_cast<Addr>(i) * 64;
        req.type = ReqType::Read;
        req.prot = fault::Protection::Weak;
        req.on_complete = [&done](const Request &r) {
            done.push_back(r.complete);
        };
        ASSERT_TRUE(ctrl_.enqueue(std::move(req)));
    }
    tickUntilIdle();
    EXPECT_EQ(ctrl_.eccRedundancyReads(), 0u);
    EXPECT_EQ(ctrl_.eccDecodeCyclesCharged(), 0u);

    for (int i = 0; i < 16; ++i) {
        Request req;
        req.addr = static_cast<Addr>(i) * 64;
        req.type = ReqType::Read;
        req.prot = fault::Protection::Strong;
        req.on_complete = [&done](const Request &r) {
            done.push_back(r.complete);
        };
        ASSERT_TRUE(ctrl_.enqueue(std::move(req)));
    }
    tickUntilIdle();
    EXPECT_EQ(ctrl_.eccRedundancyReads(), 2u); // 16 bursts / 8
    EXPECT_GT(ctrl_.eccDecodeCyclesCharged(), 0u);
}

// ---- differential check against a per-cycle reference scheduler ----

/**
 * Reference FR-FCFS: every cycle, scan the whole queue for the oldest
 * row hit whose column command can issue, then for the oldest request
 * whose PRE or ACT can issue, asking Channel::canIssue per request. Its
 * refresh policy is the Controller's: a rank whose interval elapsed
 * precharges its banks one PRE per cycle, then takes REF, and its
 * requests wait meanwhile.
 */
class ReferenceFrFcfs
{
  public:
    ReferenceFrFcfs(const Organization &org, const Timing &timing,
                    size_t depth, size_t requests)
        : org_(org), depth_(depth), channel_(org, timing),
          next_refresh_(org.ranks, timing.trefi),
          refresh_pending_(org.ranks, false)
    {
        complete.assign(requests, 0);
    }

    bool enqueue(uint64_t id, Addr addr, ReqType type)
    {
        if (queue_.size() >= depth_)
            return false;
        AddrVec vec = mapAddress(addr, org_);
        vec.channel = 0;
        if (channel_.rowOpen(vec))
            ++row_hits;
        else if (channel_.bankActive(vec))
            ++row_conflicts;
        else
            ++row_misses;
        queue_.push_back({id, type, vec});
        return true;
    }

    void tick()
    {
        ++now_;
        while (!inflight_.empty() && inflight_.top() <= now_)
            inflight_.pop();
        if (!serviceRefresh())
            trySchedule();
    }

    bool idle() const { return queue_.empty() && inflight_.empty(); }
    const Channel &channel() const { return channel_; }

    uint64_t row_hits = 0;
    uint64_t row_misses = 0;
    uint64_t row_conflicts = 0;
    uint64_t refreshes = 0;
    std::vector<Cycles> complete; //!< data-end cycle, by request id

  private:
    struct Entry
    {
        uint64_t id;
        ReqType type;
        AddrVec vec;
    };

    bool serviceRefresh()
    {
        for (uint32_t r = 0; r < org_.ranks; ++r) {
            if (now_ >= next_refresh_[r])
                refresh_pending_[r] = true;
            if (!refresh_pending_[r])
                continue;
            AddrVec vec;
            vec.rank = r;
            if (!channel_.rankAllPrecharged(r)) {
                for (uint32_t bg = 0; bg < org_.bankgroups; ++bg) {
                    for (uint32_t b = 0; b < org_.banks; ++b) {
                        vec.bankgroup = bg;
                        vec.bank = b;
                        if (channel_.bankActive(vec) &&
                            channel_.canIssue(Cmd::Pre, vec, now_)) {
                            channel_.issue(Cmd::Pre, vec, now_);
                            return true;
                        }
                    }
                }
                continue;
            }
            if (channel_.canIssue(Cmd::Ref, vec, now_)) {
                channel_.issue(Cmd::Ref, vec, now_);
                ++refreshes;
                refresh_pending_[r] = false;
                next_refresh_[r] = now_ + channel_.timing().trefi;
                return true;
            }
        }
        return false;
    }

    void trySchedule()
    {
        for (auto it = queue_.begin(); it != queue_.end(); ++it) {
            if (refresh_pending_[it->vec.rank])
                continue;
            const bool rd = it->type == ReqType::Read;
            const Cmd col = rd ? Cmd::Rd : Cmd::Wr;
            if (channel_.rowOpen(it->vec) &&
                channel_.canIssue(col, it->vec, now_)) {
                channel_.issue(col, it->vec, now_);
                const Cycles data_end =
                    now_ + (rd ? channel_.timing().readLatency()
                               : channel_.timing().writeLatency());
                complete[it->id] = data_end;
                inflight_.push(data_end);
                queue_.erase(it);
                return;
            }
        }
        for (const Entry &e : queue_) {
            if (refresh_pending_[e.vec.rank] || channel_.rowOpen(e.vec))
                continue;
            const Cmd cmd =
                channel_.bankActive(e.vec) ? Cmd::Pre : Cmd::Act;
            if (channel_.canIssue(cmd, e.vec, now_)) {
                channel_.issue(cmd, e.vec, now_);
                return;
            }
        }
    }

    Organization org_;
    size_t depth_;
    Channel channel_;
    std::list<Entry> queue_;
    std::priority_queue<Cycles, std::vector<Cycles>, std::greater<>>
        inflight_;
    std::vector<Cycles> next_refresh_;
    std::vector<bool> refresh_pending_;
    Cycles now_ = 0;
};

struct DiffParam
{
    uint32_t ranks;
    AddrMapping mapping;
    uint64_t seed;
};

struct Traffic
{
    Addr addr;
    ReqType type;
    Cycles arrive; //!< first cycle the request may be enqueued
};

/**
 * Mixed traffic: 60% of requests continue one of four sequential streams
 * (row hits, and row conflicts where streams share a bank), the rest hit
 * random lines; 30% are writes. Arrivals alternate every 400 requests
 * between a burst that all arrives at once, which keeps the queue full,
 * and a trickle 0-59 cycles apart, which lets it drain and refill.
 */
std::vector<Traffic>
mixedTraffic(const Organization &org, uint64_t seed, size_t n)
{
    Rng rng(seed);
    const uint64_t span = org.bytesPerChannel();
    Addr streams[4];
    for (Addr &s : streams)
        s = (rng() % span) & ~Addr{63};
    std::vector<Traffic> out(n);
    Cycles at = 0;
    for (size_t i = 0; i < n; ++i) {
        Traffic &t = out[i];
        if (rng.uniform() < 0.6) {
            Addr &s = streams[rng() % 4];
            s = (s + 64) % span;
            t.addr = s;
        } else {
            t.addr = (rng() % span) & ~Addr{63};
        }
        t.type = rng.uniform() < 0.3 ? ReqType::Write : ReqType::Read;
        if ((i / 400) % 2 == 1)
            at += rng() % 60;
        t.arrive = at;
    }
    return out;
}

/**
 * Every cycle, enqueue the requests that have arrived until one is
 * refused, then tick; finally drain. Returns the cycles it took.
 */
template <typename Sched, typename Enqueue>
Cycles
drive(Sched &sched, const std::vector<Traffic> &traffic, Enqueue enqueue)
{
    const Cycles bound = 5'000'000;
    size_t next = 0;
    Cycles cycles = 0;
    while (next < traffic.size() || !sched.idle()) {
        while (next < traffic.size() && traffic[next].arrive <= cycles &&
               enqueue(next)) {
            ++next;
        }
        sched.tick();
        if (++cycles >= bound) {
            ADD_FAILURE() << "failed to drain";
            break;
        }
    }
    return cycles;
}

/**
 * drive(), but between arrivals the controller jumps over the cycles
 * before its nextEventCycle() instead of ticking through them. Counts
 * the ticks it ran in `ticks`.
 */
template <typename Enqueue>
Cycles
driveSkipping(Controller &ctrl, const std::vector<Traffic> &traffic,
              Enqueue enqueue, Cycles &ticks)
{
    const Cycles bound = 5'000'000;
    size_t next = 0;
    while (next < traffic.size() || !ctrl.idle()) {
        while (next < traffic.size() &&
               traffic[next].arrive <= ctrl.now() && enqueue(next)) {
            ++next;
        }
        ctrl.tick();
        ++ticks;
        if (next == traffic.size() && ctrl.idle())
            break;
        // Stop where the next request arrives (or at once, when one is
        // waiting for queue space): its enqueue must see that cycle.
        Cycles to = ctrl.nextEventCycle() - 1;
        if (next < traffic.size())
            to = std::min(to, std::max(traffic[next].arrive, ctrl.now()));
        ctrl.skipTo(std::min(to, bound));
        if (ctrl.now() >= bound) {
            ADD_FAILURE() << "failed to drain";
            break;
        }
    }
    return ctrl.now();
}

/**
 * Drive the Controller (ticking every cycle, or skipping to its events)
 * and ReferenceFrFcfs with the same traffic; every completion cycle and
 * counter must agree.
 */
void
expectMatchesReference(const DiffParam &p, bool skipping)
{
    Organization org = singleRankOrg();
    org.ranks = p.ranks;
    org.mapping = p.mapping;
    const Timing timing = Timing::ddr4_2400();
    ControllerConfig cfg; // 64-entry queue, refresh on
    const size_t n = 8000;
    const std::vector<Traffic> traffic = mixedTraffic(org, p.seed, n);

    std::vector<Cycles> complete(n, 0);
    Controller ctrl(org, timing, cfg, "diff");
    const auto enqueue = [&](size_t i) {
        Request req;
        req.addr = traffic[i].addr;
        req.type = traffic[i].type;
        req.id = i;
        req.on_complete = [&complete](const Request &r) {
            complete[r.id] = r.complete;
        };
        return ctrl.enqueue(std::move(req));
    };
    Cycles ticks = 0;
    const Cycles drained = skipping
                               ? driveSkipping(ctrl, traffic, enqueue, ticks)
                               : drive(ctrl, traffic, enqueue);
    if (skipping) {
        EXPECT_LT(ticks, drained) << "no cycle was skipped";
    }

    ReferenceFrFcfs ref(org, timing, cfg.queue_depth, n);
    const Cycles ref_drained = drive(ref, traffic, [&](size_t i) {
        return ref.enqueue(i, traffic[i].addr, traffic[i].type);
    });

    for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(complete[i], ref.complete[i]) << "request " << i;
    }
    EXPECT_EQ(drained, ref_drained);
    const StatGroup &st = ctrl.stats();
    EXPECT_EQ(st.counter("rowHits").value(), ref.row_hits);
    EXPECT_EQ(st.counter("rowMisses").value(), ref.row_misses);
    EXPECT_EQ(st.counter("rowConflicts").value(), ref.row_conflicts);
    EXPECT_EQ(st.counter("refreshes").value(), ref.refreshes);
    // One occupancy sample per cycle, skipped or ticked.
    EXPECT_EQ(st.scalar("queueOccupancy").count(), drained);
    for (Cmd c : {Cmd::Act, Cmd::Pre, Cmd::Rd, Cmd::Wr, Cmd::Ref}) {
        EXPECT_EQ(ctrl.channel().commandCount(c),
                  ref.channel().commandCount(c))
            << cmdName(c);
    }
    // The run must reach the paths it exists to cover.
    EXPECT_GE(ref.refreshes, 2u * p.ranks);
    EXPECT_GT(ref.row_hits, 0u);
    EXPECT_GT(ref.row_conflicts, 0u);
}

class ControllerDifferential : public ::testing::TestWithParam<DiffParam>
{
};

TEST_P(ControllerDifferential, MatchesPerCycleReferenceScheduler)
{
    expectMatchesReference(GetParam(), /*skipping=*/false);
}

TEST_P(ControllerDifferential, SkippingMatchesPerCycleReferenceScheduler)
{
    expectMatchesReference(GetParam(), /*skipping=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, ControllerDifferential,
    ::testing::Values(DiffParam{1, AddrMapping::RoRaBgBaCoCh, 1},
                      DiffParam{1, AddrMapping::RoRaCoBaBgCh, 2},
                      DiffParam{2, AddrMapping::RoCoRaBgBaCh, 3},
                      DiffParam{2, AddrMapping::RoRaBgBaCoCh, 4},
                      DiffParam{4, AddrMapping::RoRaCoBaBgCh, 5},
                      DiffParam{4, AddrMapping::RoRaBgBaCoCh, 6}),
    [](const ::testing::TestParamInfo<DiffParam> &info) {
        return std::string("r") + std::to_string(info.param.ranks) + "m" +
               std::to_string(static_cast<int>(info.param.mapping)) +
               "s" + std::to_string(info.param.seed);
    });

} // namespace
} // namespace enmc::dram
