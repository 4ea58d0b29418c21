#include "dram/controller.h"

#include <algorithm>

#include "common/logging.h"
#include "fault/injector.h"

namespace enmc::dram {

Controller::Controller(const Organization &org, const Timing &timing,
                       const ControllerConfig &cfg, std::string name)
    : org_(org), cfg_(cfg), channel_(org, timing),
      next_refresh_(org.ranks, timing.trefi),
      refresh_pending_(org.ranks, false),
      scan_memo_(org.ranks * org.banksPerRank() * 4),
      stats_(std::move(name)),
      reads_(stats_.addCounter("reads", "read requests completed")),
      writes_(stats_.addCounter("writes", "write requests completed")),
      row_hits_(stats_.addCounter("rowHits", "row-buffer hits")),
      row_misses_(stats_.addCounter("rowMisses",
                                    "row-buffer misses (bank idle)")),
      row_conflicts_(stats_.addCounter("rowConflicts",
                                       "row-buffer conflicts (wrong row)")),
      refreshes_(stats_.addCounter("refreshes", "REF commands issued")),
      ecc_corrected_(stats_.addCounter("eccCorrected",
                                       "read words repaired by SECDED")),
      ecc_detected_(stats_.addCounter(
          "eccDetected", "read words detected uncorrectable")),
      ecc_escaped_(stats_.addCounter(
          "eccEscaped", "read words silently corrupted")),
      ecc_weak_corrected_(stats_.addCounter(
          "eccWeakCorrected", "weak-class read words repaired")),
      ecc_weak_detected_(stats_.addCounter(
          "eccWeakDetected", "weak-class words detected uncorrectable")),
      ecc_weak_escaped_(stats_.addCounter(
          "eccWeakEscaped", "weak-class words silently corrupted")),
      ecc_strong_corrected_(stats_.addCounter(
          "eccStrongCorrected", "strong-class read words repaired")),
      ecc_strong_detected_(stats_.addCounter(
          "eccStrongDetected", "strong-class words detected uncorrectable")),
      ecc_strong_escaped_(stats_.addCounter(
          "eccStrongEscaped", "strong-class words silently corrupted")),
      ecc_protected_reads_(stats_.addCounter(
          "eccProtectedReads", "read bursts covered by an ECC scheme")),
      ecc_redundancy_reads_(stats_.addCounter(
          "eccRedundancyReads", "extra bursts fetching ECC check bits")),
      ecc_decode_cycles_(stats_.addCounter(
          "eccDecodeCycles", "syndrome-decode cycles charged to reads")),
      stuck_reads_(stats_.addCounter("stuckReads",
                                     "reads served by a stuck rank")),
      read_latency_(stats_.addScalar("readLatency",
                                     "request latency in cycles")),
      queue_occupancy_(stats_.addScalar("queueOccupancy",
                                        "queue entries per cycle")),
      read_latency_hist_(stats_.addHistogram(
          "readLatencyHist", "request latency distribution in cycles",
          0.0, 256.0, 32)),
      stats_registration_(stats_)
{
}

bool
Controller::enqueue(Request req)
{
    if (queue_.size() >= cfg_.queue_depth)
        return false;
    Entry e;
    e.vec = mapAddress(req.addr, org_);
    // A controller owns exactly one channel; the decoded channel index is
    // only meaningful to the MemorySystem router above us.
    e.vec.channel = 0;
    e.bank = channel_.bankIndex(e.vec);
    req.arrive = now_;
    e.req = std::move(req);

    // Classify row-buffer outcome at arrival against current bank state.
    if (channel_.rowOpen(e.bank, e.vec.row))
        ++row_hits_;
    else if (channel_.bankActive(e.bank))
        ++row_conflicts_;
    else
        ++row_misses_;

    wake_at_ = std::min(
        wake_at_, channel_.earliestIssue(nextCommand(e), e.vec, e.bank));
    queue_.push_back(std::move(e));
    return true;
}

Cmd
Controller::nextCommand(const Entry &e) const
{
    if (channel_.rowOpen(e.bank, e.vec.row))
        return e.req.type == ReqType::Read ? Cmd::Rd : Cmd::Wr;
    return channel_.bankActive(e.bank) ? Cmd::Pre : Cmd::Act;
}

static_assert(static_cast<int>(Cmd::Act) == 0 &&
                  static_cast<int>(Cmd::Wr) == 3,
              "scan_memo_ keeps ACT, PRE, RD and WR per bank");

Cycles
Controller::earliestIssue(const Entry &e, Cmd cmd)
{
    // Requests to one bank that need the same command share the answer.
    ScanMemo &m = scan_memo_[e.bank * 4 + static_cast<size_t>(cmd)];
    if (m.scan != scan_) {
        m.scan = scan_;
        m.at = channel_.earliestIssue(cmd, e.vec, e.bank);
    }
    return m.at;
}

void
Controller::issue(Cmd cmd, const AddrVec &vec)
{
    channel_.issue(cmd, vec, now_);
    wake_at_ = 0; // the state changed: the next cycle must scan again
}

bool
Controller::serviceRefresh()
{
    if (!cfg_.refresh_enabled)
        return false;
    for (uint32_t r = 0; r < org_.ranks; ++r) {
        if (now_ >= next_refresh_[r])
            refresh_pending_[r] = true;
        if (!refresh_pending_[r])
            continue;
        AddrVec vec;
        vec.rank = r;
        // Precharge any open bank in the rank, one PRE per cycle.
        if (!channel_.rankAllPrecharged(r)) {
            for (uint32_t bg = 0; bg < org_.bankgroups; ++bg) {
                for (uint32_t b = 0; b < org_.banks; ++b) {
                    vec.bankgroup = bg;
                    vec.bank = b;
                    if (channel_.bankActive(vec) &&
                        channel_.canIssue(Cmd::Pre, vec, now_)) {
                        issue(Cmd::Pre, vec);
                        return true; // one command per cycle
                    }
                }
            }
            continue; // waiting on tRAS etc.; other ranks may proceed
        }
        if (channel_.canIssue(Cmd::Ref, vec, now_)) {
            issue(Cmd::Ref, vec);
            ++refreshes_;
            refresh_pending_[r] = false;
            next_refresh_[r] = now_ + channel_.timing().trefi;
            return true;
        }
    }
    return false;
}

Cycles
Controller::refreshIssueCycle(uint32_t r) const
{
    // serviceRefresh()'s order of business: precharge every open bank,
    // then REF once the whole rank is idle.
    AddrVec vec;
    vec.rank = r;
    if (channel_.rankAllPrecharged(r))
        return channel_.earliestIssue(Cmd::Ref, vec);
    Cycles at = Channel::kNever;
    for (uint32_t bg = 0; bg < org_.bankgroups; ++bg) {
        for (uint32_t b = 0; b < org_.banks; ++b) {
            vec.bankgroup = bg;
            vec.bank = b;
            at = std::min(at, channel_.earliestIssue(Cmd::Pre, vec));
        }
    }
    return at;
}

Cycles
Controller::nextEventCycle() const
{
    Cycles next = inflight_.empty() ? Channel::kNever : inflight_.top().at;
    if (!queue_.empty())
        next = std::min(next, wake_at_);
    if (cfg_.refresh_enabled) {
        for (uint32_t r = 0; r < org_.ranks; ++r) {
            next = std::min(next, refresh_pending_[r] ? refreshIssueCycle(r)
                                                      : next_refresh_[r]);
        }
    }
    return std::max(next, now_ + 1);
}

void
Controller::skipTo(Cycles c)
{
    ENMC_ASSERT(c >= now_ && c < nextEventCycle(), "skipTo(", c,
                ") from cycle ", now_, " passes the next event");
    queue_occupancy_.sample(static_cast<double>(queue_.size()), c - now_);
    now_ = c;
}

bool
Controller::trySchedule()
{
    if (now_ < wake_at_)
        return false;
    // One pass in arrival order. The oldest row hit whose column command
    // can issue wins outright (FR); failing that, the oldest request whose
    // PRE or ACT can issue (FCFS). Requests that must wait bound the next
    // cycle worth scanning.
    ++scan_;
    auto fcfs = queue_.end();
    Cmd fcfs_cmd = Cmd::Act;
    Cycles wake = Channel::kNever;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (refresh_pending_[it->vec.rank])
            continue;
        const Cmd cmd = nextCommand(*it);
        const Cycles at = earliestIssue(*it, cmd);
        if (at > now_) {
            wake = std::min(wake, at);
        } else if (cmd == Cmd::Rd || cmd == Cmd::Wr) {
            issue(cmd, it->vec);
            const Cycles data_end = now_ +
                (cmd == Cmd::Rd ? channel_.timing().readLatency()
                                : channel_.timing().writeLatency());
            finishRequest(*it, data_end);
            queue_.erase(it);
            return true;
        } else if (fcfs == queue_.end()) {
            fcfs = it;
            fcfs_cmd = cmd;
        }
    }
    if (fcfs != queue_.end()) {
        issue(fcfs_cmd, fcfs->vec);
        return true;
    }
    wake_at_ = wake;
    return false;
}

void
Controller::tallyClass(fault::Protection cls, uint64_t corrected,
                       uint64_t detected, uint64_t escaped)
{
    switch (cls) {
    case fault::Protection::Weak:
        ecc_weak_corrected_ += corrected;
        ecc_weak_detected_ += detected;
        ecc_weak_escaped_ += escaped;
        break;
    case fault::Protection::Strong:
        ecc_strong_corrected_ += corrected;
        ecc_strong_detected_ += detected;
        ecc_strong_escaped_ += escaped;
        break;
    case fault::Protection::None:
        break; // unprotected accesses only show in the aggregates
    }
}

Cycles
Controller::chargeEccOverhead(fault::Protection cls,
                              fault::EccScheme scheme)
{
    if (scheme == fault::EccScheme::None)
        return 0;
    ++ecc_protected_reads_;
    const fault::EccGeometry g = fault::eccGeometry(scheme);
    const uint64_t access = org_.accessBytes();
    const auto c = static_cast<size_t>(cls);
    Cycles extra = 0;

    // Redundancy bandwidth: check bits ride on the same bus; once a full
    // burst's worth of debt accumulates, charge one extra burst slot.
    ecc_check_debt_bytes_[c] += static_cast<double>(access) * g.overhead();
    while (ecc_check_debt_bytes_[c] >= static_cast<double>(access)) {
        ecc_check_debt_bytes_[c] -= static_cast<double>(access);
        ++ecc_redundancy_reads_;
        extra += channel_.timing().tbl;
    }

    // Decode latency: word-granular codewords decode in parallel, one
    // decode latency per burst; a block codeword spanning many bursts
    // decodes once per completed codeword.
    const uint32_t decode = channel_.timing().eccDecodeCycles(scheme);
    if (g.dataBytes() <= access) {
        ecc_decode_cycles_ += decode;
        extra += decode;
    } else {
        ecc_decode_acc_bytes_[c] += access;
        if (ecc_decode_acc_bytes_[c] >= g.dataBytes()) {
            ecc_decode_acc_bytes_[c] -= g.dataBytes();
            ecc_decode_cycles_ += decode;
            extra += decode;
        }
    }
    return extra;
}

void
Controller::finishRequest(Entry &entry, Cycles data_end)
{
    if (entry.req.type == ReqType::Read) {
        ++reads_;
        if (fault_injector_ && fault_injector_->enabled()) {
            const uint64_t words = org_.accessBytes() / 8;
            const fault::Protection cls = entry.req.prot;
            const fault::EccScheme scheme =
                fault_injector_->config().schemeFor(cls);
            if (fault_injector_->config().rankStuck(entry.vec.rank)) {
                // A stuck rank returns garbage on every burst; ECC flags
                // the whole line.
                ++stuck_reads_;
                ecc_detected_ += words;
                tallyClass(cls, 0, words, 0);
            } else {
                const auto out = fault_injector_->classifyBurst(
                    words, fault_burst_seq_, cls);
                ecc_corrected_ += out.corrected;
                ecc_detected_ += out.detected;
                ecc_escaped_ += out.escaped;
                tallyClass(cls, out.corrected, out.detected, out.escaped);
            }
            fault_burst_seq_ += words;
            if (fault_injector_->config().ecc_overhead)
                data_end += chargeEccOverhead(cls, scheme);
        }
    } else {
        ++writes_;
    }
    entry.req.complete = data_end;
    read_latency_.sample(static_cast<double>(data_end - entry.req.arrive));
    read_latency_hist_.sample(
        static_cast<double>(data_end - entry.req.arrive));
    Completion c{data_end, std::move(entry.req)};
    inflight_.push(std::move(c));
}

void
Controller::tick()
{
    ++now_;
    queue_occupancy_.sample(static_cast<double>(queue_.size()));

    // Deliver finished data transfers.
    while (!inflight_.empty() && inflight_.top().at <= now_) {
        const Completion &c = inflight_.top();
        if (c.req.on_complete)
            c.req.on_complete(c.req);
        inflight_.pop();
    }

    // Refresh has priority; one C/A command per cycle.
    if (!serviceRefresh())
        trySchedule();
}

uint64_t
Controller::eccRedundancyReads() const
{
    return ecc_redundancy_reads_.value();
}

uint64_t
Controller::eccDecodeCyclesCharged() const
{
    return ecc_decode_cycles_.value();
}

uint64_t
Controller::bytesTransferred() const
{
    return (reads_.value() + writes_.value()) * org_.accessBytes();
}

double
Controller::achievedBandwidth() const
{
    if (now_ == 0)
        return 0.0;
    const double seconds =
        cyclesToSeconds(now_, channel_.timing().freq_hz);
    return bytesTransferred() / seconds;
}

} // namespace enmc::dram
