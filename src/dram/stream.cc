#include "dram/stream.h"

#include "common/logging.h"
#include "common/units.h"

namespace enmc::dram {

void
StreamTransfer::start(Addr base, uint64_t bytes, ReqType type,
                      uint64_t line_bytes, fault::Protection prot)
{
    ENMC_ASSERT(!started_ || done(), "restarting an in-flight transfer");
    ENMC_ASSERT(line_bytes > 0, "line size must be positive");
    base_ = base;
    type_ = type;
    prot_ = prot;
    issued_ = 0;
    completed_ = 0;
    started_ = true;
    line_bytes_ = line_bytes;
    pending_bytes_ = bytes;
    total_lines_ = ceilDiv(bytes, line_bytes);
}

bool
StreamTransfer::pump(Controller &ctrl)
{
    if (!started_)
        return false;
    const uint64_t before = issued_;
    // Stop at a full queue before building a request it would reject.
    while (issued_ < total_lines_ &&
           ctrl.queueOccupancy() < ctrl.queueDepth()) {
        Request req;
        req.addr = base_ + issued_ * line_bytes_;
        req.type = type_;
        req.prot = prot_;
        req.id = issued_;
        req.on_complete = [this](const Request &) { ++completed_; };
        if (!ctrl.enqueue(std::move(req)))
            break;
        ++issued_;
    }
    return issued_ != before;
}

} // namespace enmc::dram
