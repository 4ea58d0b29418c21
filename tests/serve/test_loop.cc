/**
 * @file
 * Tests for the virtual-time serve loop: batching behaviour, admission
 * control under overload, warm-up separation (the lm_inference_server
 * cold-start bug regression), SLO accounting, and closed-loop serving.
 *
 * All tests here run timing-only (no classifier attached): the
 * discrete-event simulation makes every latency a pure function of the
 * arrival trace and the configuration, so exact assertions hold. The
 * warm-up test also serves live, asserting only clock-free counts.
 */

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "obs/registry.h"
#include "serve/loop.h"

namespace enmc::serve {
namespace {

runtime::JobSpec
smallJob()
{
    runtime::JobSpec job;
    job.categories = 32768;
    job.hidden = 128;
    job.reduced = 32;
    job.candidates = 512;
    return job;
}

ServeConfig
baseConfig()
{
    ServeConfig cfg;
    cfg.backend = "enmc";
    cfg.queue_capacity = 64;
    cfg.max_batch = 8;
    cfg.max_delay_us = 200.0;
    cfg.warmup_requests = 0;
    cfg.compute_logits = false;
    return cfg;
}

ArrivalTrace
burstTrace(size_t n, double at_us = 0.0)
{
    ArrivalTrace trace;
    for (size_t i = 0; i < n; ++i) {
        Request r;
        r.id = i;
        r.arrival_us = at_us;
        trace.requests.push_back(r);
    }
    return trace;
}

TEST(ServeLoop, BurstBatchesBySizeTrigger)
{
    ServeLoop loop(baseConfig(), smallJob());
    const ServeReport report = loop.replay(burstTrace(32));

    ASSERT_EQ(report.responses.size(), 32u);
    EXPECT_EQ(report.admittedCount(), 32u);
    for (const Response &r : report.responses) {
        EXPECT_EQ(r.batch_size, 8u);
        EXPECT_GT(r.backendUs(), 0.0);
        EXPECT_GE(r.complete_us, r.dispatch_us);
        EXPECT_GE(r.dispatch_us, r.admit_us);
    }
    EXPECT_EQ(loop.batcher().stats().counter("batches").value(), 4u);
    EXPECT_EQ(loop.batcher().stats().counter("flushSize").value(), 4u);
    EXPECT_EQ(loop.queue().stats().counter("admitted").value(), 32u);
    EXPECT_EQ(loop.queue().stats().counter("popped").value(), 32u);
}

TEST(ServeLoop, LonelyRequestFlushedAtDeadline)
{
    ServeConfig cfg = baseConfig();
    ServeLoop loop(cfg, smallJob());

    // Request 0 waits for co-travellers that only arrive after its
    // deadline; request 1 arrives into an idle, draining loop.
    ArrivalTrace trace;
    Request r0;
    r0.id = 0;
    r0.arrival_us = 0.0;
    Request r1;
    r1.id = 1;
    r1.arrival_us = 5000.0;
    trace.requests = {r0, r1};

    const ServeReport report = loop.replay(trace);
    ASSERT_EQ(report.responses.size(), 2u);
    // The deadline bounds the batching wait exactly in virtual time.
    EXPECT_DOUBLE_EQ(report.responses[0].queueUs(), cfg.max_delay_us);
    EXPECT_EQ(report.responses[0].batch_size, 1u);
    EXPECT_GE(loop.batcher().stats().counter("flushDeadline").value(), 1u);
    EXPECT_GE(loop.batcher().stats().counter("flushDrain").value(), 1u);
}

TEST(ServeLoop, OverloadRejectsWithQueueFullReason)
{
    ServeConfig cfg = baseConfig();
    cfg.queue_capacity = 8;
    ServeLoop loop(cfg, smallJob());

    const ServeReport report = loop.replay(burstTrace(20));
    ASSERT_EQ(report.responses.size(), 20u);
    EXPECT_EQ(report.admittedCount(), 8u);
    EXPECT_EQ(report.rejectedCount(), 12u);
    EXPECT_EQ(report.rejectedCount(Admission::RejectedQueueFull), 12u);
    EXPECT_EQ(loop.queue().stats().counter("rejectedFull").value(), 12u);
    // Rejected requests still carry their identity for the caller.
    size_t rejected_with_id = 0;
    for (const Response &r : report.responses)
        if (r.admission == Admission::RejectedQueueFull)
            rejected_with_id += (r.id >= 8);
    EXPECT_EQ(rejected_with_id, 12u);
}

TEST(ServeLoop, WarmupRequestsFlaggedAndExcludedFromMeasurement)
{
    ServeConfig cfg = baseConfig();
    cfg.warmup_requests = 4;
    ServeLoop loop(cfg, smallJob());

    const ServeReport report = loop.replay(burstTrace(12));
    EXPECT_EQ(report.warmupCount(), 4u);
    EXPECT_EQ(report.measuredCount(), 8u);
    EXPECT_EQ(report.measuredLatencies().size(), 8u);
    // Warm-up is assigned in dispatch order: the first four requests.
    for (size_t i = 0; i < 12; ++i)
        EXPECT_EQ(report.responses[i].warmup, i < 4) << i;
    EXPECT_EQ(loop.stats().counter("warmupRequests").value(), 4u);
    EXPECT_EQ(loop.stats().counter("measuredRequests").value(), 8u);

    // The live clock stamps warm-up through the same batch path. One
    // producer and a FIFO queue make dispatch order the id order.
    ServeLoop live(cfg, smallJob());
    live.start();
    std::vector<std::future<Response>> futures;
    for (Request &r : burstTrace(12).requests)
        futures.push_back(live.submitBlocking(std::move(r)));
    for (std::future<Response> &f : futures)
        f.wait();
    const ServeReport live_report = live.stop();
    ASSERT_EQ(live_report.responses.size(), 12u);
    EXPECT_EQ(live_report.warmupCount(), 4u);
    EXPECT_EQ(live_report.measuredCount(), 8u);
    for (size_t i = 0; i < 12; ++i)
        EXPECT_EQ(live_report.responses[i].warmup, i < 4) << i;
    EXPECT_EQ(live.stats().counter("warmupRequests").value(), 4u);
    EXPECT_EQ(live.stats().counter("measuredRequests").value(), 8u);
}

TEST(ServeReport, WarmupLatenciesNeverReachPercentiles)
{
    // Regression for the old lm_inference_server loop, which timed the
    // cold first request together with steady-state ones: a pathological
    // warm-up latency must not move any percentile.
    ServeReport report;
    for (size_t i = 0; i < 10; ++i) {
        Response r;
        r.id = i;
        r.warmup = i < 2;
        r.admit_us = 0.0;
        r.dispatch_us = 0.0;
        r.complete_us = r.warmup ? 1e6 : 100.0 + static_cast<double>(i);
        report.responses.push_back(r);
    }
    const obs::Percentiles p = report.measuredLatency();
    EXPECT_LT(p.max(), 200.0);
    EXPECT_LT(p.at(0.99), 200.0);
    ASSERT_EQ(report.warmupLatencies().size(), 2u);
    EXPECT_DOUBLE_EQ(report.warmupLatencies()[0], 1e6);
    // Throughput is measured over the steady-state window only.
    EXPECT_GT(report.queriesPerSecond(), 0.0);
}

TEST(ServeLoop, SloViolationsAccountedPerTenant)
{
    ServeConfig cfg = baseConfig();
    cfg.slo_us = 1e-3; // everything violates
    ServeLoop loop(cfg, smallJob());

    ArrivalTrace trace = burstTrace(8);
    for (size_t i = 0; i < trace.requests.size(); ++i)
        trace.requests[i].tenant = (i % 2 == 0) ? "alpha" : "beta";
    const ServeReport report = loop.replay(trace);

    EXPECT_EQ(report.admittedCount(), 8u);
    EXPECT_EQ(loop.stats().counter("sloViolations").value(), 8u);
    const auto groups = obs::StatRegistry::instance().snapshot();
    ASSERT_TRUE(groups.count("serve.tenant.alpha"));
    ASSERT_TRUE(groups.count("serve.tenant.beta"));
    EXPECT_EQ(groups.at("serve.tenant.alpha").counter("admitted").value(),
              4u);
    EXPECT_EQ(
        groups.at("serve.tenant.alpha").counter("sloViolations").value(),
        4u);
}

TEST(ServeLoop, QueueAndBackendTimesDecomposeLatency)
{
    ServeLoop loop(baseConfig(), smallJob());
    const ServeReport report = loop.replay(burstTrace(16));
    for (const Response &r : report.responses)
        EXPECT_DOUBLE_EQ(r.queueUs() + r.backendUs(), r.latencyUs());
    const StatGroup &stats = loop.stats();
    EXPECT_EQ(stats.scalar("timeInQueueUs").count(), 16u);
    EXPECT_EQ(stats.scalar("timeInBackendUs").count(), 16u);
    EXPECT_EQ(stats.histogram("latencyUs").total(), 16u);
}

TEST(ServeLoop, ClosedLoopServesEveryClientRequest)
{
    ServeConfig cfg = baseConfig();
    cfg.max_batch = 4;
    ServeLoop loop(cfg, smallJob());

    const ServeReport report = loop.runClosedLoop(
        4, 5, [](RequestId, size_t) { return Request{}; });
    ASSERT_EQ(report.responses.size(), 20u);
    EXPECT_EQ(report.admittedCount(), 20u);
    for (size_t i = 0; i < 20; ++i)
        EXPECT_EQ(report.responses[i].id, i); // dense ids, sorted
    for (const Response &r : report.responses)
        EXPECT_LE(r.batch_size, 4u); // never more than the client count
    EXPECT_GT(report.queriesPerSecond(), 0.0);
}

TEST(ServeLoop, DynamicBatchingBeatsBatchOneThroughput)
{
    // The core dynamic-batching claim at miniature scale: a batched
    // closed loop finishes the same offered load at higher queries/sec
    // than batch=1 serving, because the per-offload handoff amortizes.
    ServeConfig serial = baseConfig();
    serial.max_batch = 1;
    ServeConfig batched = baseConfig();
    batched.max_batch = 16;

    auto make = [](RequestId, size_t) { return Request{}; };
    ServeLoop serial_loop(serial, smallJob());
    ServeLoop batched_loop(batched, smallJob());
    const double serial_qps =
        serial_loop.runClosedLoop(16, 4, make).queriesPerSecond();
    const double batched_qps =
        batched_loop.runClosedLoop(16, 4, make).queriesPerSecond();
    EXPECT_GT(batched_qps, serial_qps);
}

TEST(ServeLoop, ServiceTimeMemoizationIsConsistent)
{
    ServeLoop loop(baseConfig(), smallJob());
    const double first = loop.batchServiceUs(8, 512);
    const double again = loop.batchServiceUs(8, 512);
    EXPECT_DOUBLE_EQ(first, again);
    // The handoff cost is part of every dispatch.
    EXPECT_GE(first, loop.config().handoff_us);
    // Bigger batches take longer end-to-end but less per request.
    const double one = loop.batchServiceUs(1, 512);
    EXPECT_GT(first, one);
    EXPECT_LT(first / 8.0, one);
}

TEST(ServeLoopDeathTest, MisconfigurationIsFatal)
{
    ServeConfig cfg = baseConfig();
    cfg.max_batch = 0;
    EXPECT_DEATH({ ServeLoop loop(cfg, smallJob()); }, "max_batch");
}

} // namespace
} // namespace enmc::serve
