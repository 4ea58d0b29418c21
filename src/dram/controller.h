/**
 * @file
 * Per-channel memory controller: request queue, FR-FCFS scheduling,
 * open-row policy, and all-bank refresh management.
 */

#ifndef ENMC_DRAM_CONTROLLER_H
#define ENMC_DRAM_CONTROLLER_H

#include <cstdint>
#include <list>
#include <queue>
#include <vector>

#include "common/stats.h"
#include "dram/channel.h"
#include "dram/request.h"
#include "fault/ecc.h"
#include "obs/registry.h"

namespace enmc::fault {
class FaultInjector;
} // namespace enmc::fault

namespace enmc::dram {

/** Controller tuning knobs. */
struct ControllerConfig
{
    size_t queue_depth = 64;      //!< Table 3: 64-entry queue
    bool refresh_enabled = true;
    /**
     * Close a row after this many cycles without a hit (0 = keep open
     * until conflict, i.e. pure open-page).
     */
    Cycles row_idle_timeout = 0;
};

/** One DDR channel's scheduler. Tick once per command-clock cycle. */
class Controller
{
  public:
    Controller(const Organization &org, const Timing &timing,
               const ControllerConfig &cfg, std::string name = "dram.ctrl");

    /**
     * Enqueue a request (address must decode to this channel's coordinate
     * space; the channel field of the decoded address is ignored).
     * @return false if the queue is full.
     */
    bool enqueue(Request req);

    /** Advance one command-clock cycle. */
    void tick();

    /**
     * The first cycle after now() whose tick() may do more than sample
     * the queue occupancy: the earliest of an in-flight completion, the
     * scheduler's wake-up cycle (with requests queued), each rank's
     * refresh deadline and a pending refresh's earliest PRE or REF.
     * Every tick() before it finds nothing due, because each bound is a
     * monotone `now >= bound` test on state that only an issue, an
     * enqueue or a completion changes. Channel::kNever when none is due
     * (an idle controller with refresh off). Valid until the next
     * enqueue() or tick().
     */
    Cycles nextEventCycle() const;

    /**
     * Advance the clock to cycle `c` exactly as `c - now()` ticks would
     * when none of them acts: each skipped cycle samples the queue
     * occupancy once. Requires now() <= c < nextEventCycle().
     */
    void skipTo(Cycles c);

    /** Current cycle. */
    Cycles now() const { return now_; }

    /** True when no requests are queued or in flight. */
    bool idle() const { return queue_.empty() && inflight_.empty(); }

    size_t queueOccupancy() const { return queue_.size(); }
    size_t queueDepth() const { return cfg_.queue_depth; }

    const Channel &channel() const { return channel_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /**
     * Attach a fault injector: every completed read burst is classified
     * through the ECC scheme of its request's protection class and
     * tallied into this controller's stat group (eccCorrected /
     * eccDetected / eccEscaped / stuckReads plus the per-class eccWeak* /
     * eccStrong* splits). With the injector's `ecc_overhead` knob set,
     * protected reads additionally charge redundancy-read bursts for the
     * check bits and per-codeword decode latency on the DDR clock.
     * Pass nullptr to detach. Default: no injector, zero overhead.
     *
     * Attaching restarts the burst-classification sequence: a
     * detached-then-reattached injector replays the same
     * (seed, stream, index) outcomes a fresh controller would — the
     * determinism contract a stale sequence number used to break.
     */
    void attachFaultInjector(fault::FaultInjector *injector)
    {
        fault_injector_ = injector;
        fault_burst_seq_ = 0;
        for (int c = 0; c < fault::kNumProtectionClasses; ++c) {
            ecc_check_debt_bytes_[c] = 0.0;
            ecc_decode_acc_bytes_[c] = 0;
        }
    }
    const fault::FaultInjector *faultInjector() const
    {
        return fault_injector_;
    }

    /** Extra read bursts issued for ECC check bits (overhead model). */
    uint64_t eccRedundancyReads() const;
    /** Syndrome-decode cycles charged on the DDR clock (overhead model). */
    uint64_t eccDecodeCyclesCharged() const;

    /** Total bytes moved (reads + writes), data only (no redundancy). */
    uint64_t bytesTransferred() const;

    /** Achieved bandwidth in bytes/sec over the elapsed cycles. */
    double achievedBandwidth() const;

  private:
    struct Entry
    {
        Request req;
        AddrVec vec;
        size_t bank;     //!< Channel::bankIndex(vec), checked at enqueue
    };

    /** Earliest issue cycle of one (bank, command), valid for one scan. */
    struct ScanMemo
    {
        uint64_t scan = 0;
        Cycles at = 0;
    };

    struct Completion
    {
        Cycles at;
        Request req;
        bool operator>(const Completion &o) const { return at > o.at; }
    };

    /** @return true if a refresh-related command used this cycle's slot. */
    bool serviceRefresh();
    /** Earliest cycle rank `r`'s pending refresh can issue a PRE or REF. */
    Cycles refreshIssueCycle(uint32_t r) const;
    bool trySchedule();
    /** The command `e` needs next: RD/WR on a row hit, else PRE or ACT. */
    Cmd nextCommand(const Entry &e) const;
    /** Channel::earliestIssue for `e` and `cmd`, memoized per scan. */
    Cycles earliestIssue(const Entry &e, Cmd cmd);
    void issue(Cmd cmd, const AddrVec &vec);
    void finishRequest(Entry &entry, Cycles data_end);

    Organization org_;
    ControllerConfig cfg_;
    Channel channel_;
    std::list<Entry> queue_;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>> inflight_;
    std::vector<Cycles> next_refresh_;    //!< per rank
    std::vector<bool> refresh_pending_;   //!< per rank
    Cycles now_ = 0;
    /**
     * trySchedule() skips its scan while now_ < wake_at_: no queued
     * request can issue before then unless an issue or an enqueue
     * changes the state, and both lower it.
     */
    Cycles wake_at_ = 0;
    uint64_t scan_ = 0;                   //!< trySchedule() scans so far
    std::vector<ScanMemo> scan_memo_;     //!< [bank * 4 + cmd], ACT..WR

    /** Per-class tally target for a classified burst. */
    void tallyClass(fault::Protection cls, uint64_t corrected,
                    uint64_t detected, uint64_t escaped);
    /** @return extra cycles charged for ECC overhead on this burst. */
    Cycles chargeEccOverhead(fault::Protection cls, fault::EccScheme scheme);

    fault::FaultInjector *fault_injector_ = nullptr;
    uint64_t fault_burst_seq_ = 0;  //!< unique index per classified burst
    /** Check-bit bytes owed per class; a full burst's worth buys one
     *  redundancy read. */
    double ecc_check_debt_bytes_[fault::kNumProtectionClasses] = {};
    /** Data bytes accumulated toward the next codeword boundary, for
     *  block schemes whose codeword spans multiple bursts. */
    uint64_t ecc_decode_acc_bytes_[fault::kNumProtectionClasses] = {};

    StatGroup stats_;
    Counter &reads_;
    Counter &writes_;
    Counter &row_hits_;
    Counter &row_misses_;
    Counter &row_conflicts_;
    Counter &refreshes_;
    Counter &ecc_corrected_;
    Counter &ecc_detected_;
    Counter &ecc_escaped_;
    Counter &ecc_weak_corrected_;
    Counter &ecc_weak_detected_;
    Counter &ecc_weak_escaped_;
    Counter &ecc_strong_corrected_;
    Counter &ecc_strong_detected_;
    Counter &ecc_strong_escaped_;
    Counter &ecc_protected_reads_;
    Counter &ecc_redundancy_reads_;
    Counter &ecc_decode_cycles_;
    Counter &stuck_reads_;
    ScalarStat &read_latency_;
    ScalarStat &queue_occupancy_;
    Histogram &read_latency_hist_;
    // Declared last so the group unregisters before any stat dies.
    obs::StatRegistration stats_registration_;
};

} // namespace enmc::dram

#endif // ENMC_DRAM_CONTROLLER_H
