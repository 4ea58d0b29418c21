/**
 * @file
 * Streaming DMA helper: fetches/stores a contiguous byte range through a
 * Controller, respecting queue space, and reports completion. This is the
 * access pattern of every on-DIMM engine in the project (tile loads of
 * screener weights, candidate row fetches, result write-backs).
 */

#ifndef ENMC_DRAM_STREAM_H
#define ENMC_DRAM_STREAM_H

#include <cstdint>

#include "dram/controller.h"

namespace enmc::dram {

/** One in-flight contiguous transfer, split into line-sized requests. */
class StreamTransfer
{
  public:
    StreamTransfer() = default;

    /**
     * Begin a transfer of `bytes` starting at `base`, split into
     * `line_bytes`-sized requests (one DRAM burst each), each tagged
     * with protection class `prot` for the controller's ECC model.
     */
    void start(Addr base, uint64_t bytes, ReqType type,
               uint64_t line_bytes = 64,
               fault::Protection prot = fault::Protection::Strong);

    /**
     * Issue as many pending line requests as the queue accepts.
     * @return true if any request was enqueued. Either way the queue is
     * then full or every line issued, so another pump() enqueues nothing
     * until the controller issues a column command.
     */
    bool pump(Controller &ctrl);

    /** All lines issued and all completions observed? */
    bool done() const { return started_ && completed_ == total_lines_; }

    bool started() const { return started_; }
    uint64_t linesTotal() const { return total_lines_; }
    uint64_t linesCompleted() const { return completed_; }

  private:
    Addr base_ = 0;
    uint64_t pending_bytes_ = 0;
    uint64_t line_bytes_ = 64;
    uint64_t total_lines_ = 0;
    uint64_t issued_ = 0;
    uint64_t completed_ = 0;
    ReqType type_ = ReqType::Read;
    fault::Protection prot_ = fault::Protection::Strong;
    bool started_ = false;
};

} // namespace enmc::dram

#endif // ENMC_DRAM_STREAM_H
