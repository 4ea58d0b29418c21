/**
 * @file
 * The request/response vocabulary of the serving layer.
 *
 * A `Request` is one classification query: a hidden vector at functional
 * scale (for logits), a candidate budget at full scale (for timing), a
 * tenant tag (for per-tenant SLO accounting) and an arrival timestamp.
 * Timestamps are *virtual* microseconds in replay mode (the deterministic
 * discrete-event path) and wall-clock microseconds in live mode; a
 * `Response` carries the admit/dispatch/complete triple in the same
 * domain, so time-in-queue and time-in-backend fall out by subtraction.
 *
 * Admission is explicit: a rejected request still produces a `Response`
 * whose `admission` names the reason (reject-with-reason is the
 * backpressure contract — callers can distinguish an overloaded queue
 * from a shutting-down server and react differently).
 */

#ifndef ENMC_SERVE_REQUEST_H
#define ENMC_SERVE_REQUEST_H

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/matrix.h"

namespace enmc::serve {

using RequestId = uint64_t;

/** Why a request was (not) admitted. */
enum class Admission : uint8_t {
    Admitted = 0,
    RejectedQueueFull,  //!< bounded queue at capacity (backpressure)
    RejectedShutdown,   //!< server closed while the request waited
    RejectedInvalid,    //!< malformed request (e.g. empty feature vector)
};

const char *admissionName(Admission a);

/** The pure admission policy (validity first), shared by the live queue
 *  and the replay simulation so every entry point rejects alike. */
inline Admission
admitDecision(bool valid, size_t occupancy, size_t capacity, bool closed)
{
    if (!valid)
        return Admission::RejectedInvalid;
    if (closed)
        return Admission::RejectedShutdown;
    if (occupancy >= capacity)
        return Admission::RejectedQueueFull;
    return Admission::Admitted;
}

/** One classification query. */
struct Request
{
    RequestId id = 0;           //!< unique, dense, assigned in submit order
    std::string tenant;         //!< empty = the default tenant
    double arrival_us = 0.0;    //!< virtual arrival time (replay mode)
    /** Hidden vector at functional scale (empty = timing-only request). */
    tensor::Vector hidden;
    /** Per-request candidate budget at full scale (0 = job default). */
    uint64_t candidates = 0;
};

/** One served (or rejected) request's outcome. */
struct Response
{
    RequestId id = 0;
    Admission admission = Admission::Admitted;
    /** Excluded from the report's latency percentiles when set. */
    bool warmup = false;
    std::string tenant;

    double admit_us = 0.0;      //!< admission into the queue
    double dispatch_us = 0.0;   //!< handed to the backend (leaves queue)
    double complete_us = 0.0;   //!< batch finished; response ready
    uint32_t batch_size = 0;    //!< size of the batch that served it
    /** Dispatch route that served the batch (the planner's pick under
     *  `--backend=auto`; the fixed backend/cluster name otherwise).
     *  Empty for rejected requests. */
    std::string backend;

    double queueUs() const { return dispatch_us - admit_us; }
    double backendUs() const { return complete_us - dispatch_us; }
    double latencyUs() const { return complete_us - admit_us; }

    /** Mixed-accuracy probabilities (empty for timing-only serving). */
    tensor::Vector probabilities;
    std::vector<uint32_t> topk;
    std::vector<uint32_t> candidates;

    /** True when the candidate cache served this request's screening. */
    bool cache_hit = false;
    /** Screener snapshot epoch this response was computed under (0 for
     *  timing-only or rejected requests). */
    uint64_t snapshot_epoch = 0;
};

/** A fixed arrival schedule: requests sorted by (arrival_us, id). */
struct ArrivalTrace
{
    std::vector<Request> requests;

    /** Sorts by (arrival_us, id); call after building out of order. */
    void normalize();
};

} // namespace enmc::serve

#endif // ENMC_SERVE_REQUEST_H
