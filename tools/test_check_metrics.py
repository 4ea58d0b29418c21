#!/usr/bin/env python3
"""Self-test for check_metrics.py's planner invariants.

Builds minimal metrics documents in a temp directory and asserts that
the checker accepts the consistent one and rejects each broken variant
non-zero with a diagnostic on stderr:
  - plan kind counters that do not sum to plans;
  - per-backend dispatch.* counters that do not sum to plans;
  - deadDispatches > 0 (routed to an unavailable backend);
  - plans disagreeing with the batcher's dispatched-batch count;
  - --expect-switch against a document with switchEvents == 0, and
    against a document with no plan group at all;
  - a malformed group (missing its counters map) fails loudly rather
    than being skipped;
  - per-class ECC accounting: a {faultWeak,faultStrong}* class whose
    injected count does not close against corrected+detected+escaped;
  - ECC overhead accounting: redundancy reads or decode cycles charged
    while eccProtectedReads == 0;
  - candidate-cache accounting: lookup/hit/miss/validated/rejected/
    bypass tallies that do not close, a serve.loop hit/miss split that
    disagrees with its latency histograms or exceeds the cache's
    validated hits, and snapshot-slot publish/swap/epoch bookkeeping;
  - an enmc.tune document whose kernel pin names no dispatch target
    (the removed sse2 tier).

Run directly (python3 tools/test_check_metrics.py) or via ctest as
tool_check_metrics_selftest.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_metrics.py")


def counter(value):
    return {"value": value, "description": ""}


def good_doc():
    """A consistent --backend=auto metrics document: 12 batches, one
    plan per batch, kinds and per-backend dispatches closing exactly."""
    return {
        "schema": "enmc.metrics",
        "schema_version": 1,
        "tool": "test_check_metrics",
        "groups": {
            "plan": {
                "counters": {
                    "plans": counter(12),
                    "warmupPlans": counter(6),
                    "explorePlans": counter(1),
                    "steadyPlans": counter(5),
                    "switchEvents": counter(2),
                    "deadDispatches": counter(0),
                    "bins": counter(2),
                    "killEvents": counter(1),
                    "reviveEvents": counter(1),
                    "dispatch.cpu": counter(5),
                    "dispatch.enmc": counter(4),
                    "dispatch.tensordimm": counter(3),
                },
                "scalars": {},
                "histograms": {},
            },
            "serve.batcher": {
                "counters": {
                    "batches": counter(12),
                    "flushSize": counter(10),
                    "flushDeadline": counter(1),
                    "flushDrain": counter(1),
                },
                "scalars": {},
                "histograms": {},
            },
            "runtime.system": {
                "counters": {
                    "faultInjectedWords": counter(30),
                    "faultCorrected": counter(20),
                    "faultDetected": counter(6),
                    "faultEscaped": counter(4),
                    "faultNoneInjected": counter(0),
                    "faultNoneCorrected": counter(0),
                    "faultNoneDetected": counter(0),
                    "faultNoneEscaped": counter(0),
                    "faultWeakInjected": counter(10),
                    "faultWeakCorrected": counter(7),
                    "faultWeakDetected": counter(2),
                    "faultWeakEscaped": counter(1),
                    "faultStrongInjected": counter(20),
                    "faultStrongCorrected": counter(13),
                    "faultStrongDetected": counter(4),
                    "faultStrongEscaped": counter(3),
                },
                "scalars": {},
                "histograms": {},
            },
            "enmc.rank.dram": {
                "counters": {
                    "eccProtectedReads": counter(640),
                    "eccRedundancyReads": counter(80),
                    "eccDecodeCycles": counter(1280),
                },
                "scalars": {},
                "histograms": {},
            },
        },
        "traceEvents": [],
    }


def hist(total, bins):
    return {"lo": 0.0, "hi": 1e6, "bins": bins, "total": total,
            "underflow": 0, "overflow": 0, "description": ""}


def scalar(count, lo, hi):
    mean = (lo + hi) / 2 if count else 0
    return {"count": count, "sum": mean * count, "min": lo, "max": hi,
            "mean": mean, "description": ""}


def good_cache_doc():
    """A consistent candidate-cache + hot-swap metrics document: 40
    classified responses (30 hits, 10 misses), every tally closing."""
    return {
        "schema": "enmc.metrics",
        "schema_version": 1,
        "tool": "test_check_metrics",
        "groups": {
            "screening.cache": {
                "counters": {
                    "lookups": counter(40),
                    "hits": counter(30),
                    "misses": counter(10),
                    "validated": counter(28),
                    "rejected": counter(2),
                    "screenerBypass": counter(28),
                    "fullScreens": counter(12),
                    "insertions": counter(10),
                    "evictions": counter(3),
                },
                "scalars": {},
                "histograms": {},
            },
            "serve.loop": {
                "counters": {
                    "cacheHits": counter(28),
                    "cacheMisses": counter(12),
                    "measuredRequests": counter(44),
                },
                "scalars": {"servedEpoch": scalar(40, 1, 2)},
                "histograms": {
                    "latencyHitUs": hist(28, [28]),
                    "latencyMissUs": hist(12, [12]),
                },
            },
            "runtime.snapshot": {
                "counters": {
                    "publishes": counter(2),
                    "swaps": counter(1),
                    "retired": counter(1),
                    "collected": counter(1),
                },
                "scalars": {},
                "histograms": {},
            },
            "bench.serving.cache": {
                "counters": {},
                "scalars": {
                    "hitP50Us": scalar(1, 28, 28),
                    "missP50Us": scalar(1, 37, 37),
                },
                "histograms": {},
            },
        },
        "traceEvents": [],
    }


def good_tune_doc():
    """A minimal enmc.tune document pinning the avx2 kernel target."""
    return {
        "schema": "enmc.tune",
        "schema_version": 1,
        "tool": "test_check_metrics",
        "configs": {
            "intel-f6m106-avx512": {
                "host": {"gemv_row_chunk": 1024},
                "kernels": "avx2",
            },
        },
    }


def run_checker(doc, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metrics.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        return subprocess.run(
            [sys.executable, CHECKER, *flags, path],
            capture_output=True, text=True)


def expect_pass(label, doc, *flags):
    res = run_checker(doc, *flags)
    assert res.returncode == 0, (
        f"{label}: expected pass, got rc={res.returncode}\n{res.stderr}")
    print(f"  ok: {label}")


def expect_fail(label, doc, needle, *flags):
    res = run_checker(doc, *flags)
    assert res.returncode != 0, f"{label}: expected failure, got rc=0"
    assert needle in res.stderr, (
        f"{label}: diagnostic missing {needle!r}:\n{res.stderr}")
    print(f"  ok: {label}")


def main():
    expect_pass("consistent planner document", good_doc())
    expect_pass("consistent document with --expect-switch", good_doc(),
                "--expect-switch")

    doc = good_doc()
    doc["groups"]["plan"]["counters"]["steadyPlans"] = counter(4)
    expect_fail("plan kinds do not sum to plans", doc,
                "warmup+explore+steady")

    doc = good_doc()
    doc["groups"]["plan"]["counters"]["dispatch.cpu"] = counter(6)
    expect_fail("dispatch.* counters do not sum to plans", doc,
                "per-backend dispatch sum")

    doc = good_doc()
    doc["groups"]["plan"]["counters"]["deadDispatches"] = counter(1)
    expect_fail("dispatch to an unavailable backend", doc,
                "unavailable backend")

    doc = good_doc()
    doc["groups"]["serve.batcher"]["counters"]["batches"] = counter(13)
    doc["groups"]["serve.batcher"]["counters"]["flushSize"] = counter(11)
    expect_fail("plans disagree with dispatched batches", doc,
                "dispatched batches")

    doc = good_doc()
    doc["groups"]["plan"]["counters"]["switchEvents"] = counter(0)
    expect_pass("no switch without --expect-switch", doc)
    expect_fail("no switch with --expect-switch", doc,
                "switchEvents == 0", "--expect-switch")

    doc = good_doc()
    del doc["groups"]["plan"]
    expect_pass("plan group absent is fine by default", doc)
    expect_fail("--expect-switch demands a plan group", doc,
                "no 'plan' group", "--expect-switch")

    doc = good_doc()
    del doc["groups"]["plan"]["counters"]
    expect_fail("malformed group fails loudly", doc,
                "missing map 'counters'")

    doc = good_doc()
    doc["groups"]["runtime.system"]["counters"]["faultWeakEscaped"] = \
        counter(2)
    expect_fail("weak-class ECC accounting does not close", doc,
                "faultWeakInjected")

    doc = good_doc()
    doc["groups"]["runtime.system"]["counters"]["faultStrongInjected"] = \
        counter(21)
    expect_fail("strong-class ECC accounting does not close", doc,
                "faultStrongInjected")

    doc = good_doc()
    doc["groups"]["enmc.rank.dram"]["counters"]["eccProtectedReads"] = \
        counter(0)
    expect_fail("redundancy charged with no protected reads", doc,
                "no ECC-protected reads")

    doc = good_doc()
    doc["groups"]["enmc.rank.dram"]["counters"]["eccRedundancyReads"] = \
        counter(0)
    doc["groups"]["enmc.rank.dram"]["counters"]["eccDecodeCycles"] = \
        counter(0)
    doc["groups"]["enmc.rank.dram"]["counters"]["eccProtectedReads"] = \
        counter(0)
    expect_pass("ECC off charges nothing and passes", doc)

    expect_pass("consistent cache + snapshot document", good_cache_doc())

    doc = good_cache_doc()
    doc["groups"]["screening.cache"]["counters"]["hits"] = counter(29)
    expect_fail("cache lookups do not close against hits+misses", doc,
                "hits+misses")

    doc = good_cache_doc()
    doc["groups"]["screening.cache"]["counters"]["rejected"] = counter(1)
    expect_fail("cache hits do not close against validated+rejected", doc,
                "validated+rejected")

    doc = good_cache_doc()
    doc["groups"]["screening.cache"]["counters"]["screenerBypass"] = \
        counter(27)
    expect_fail("cache lookups do not close against bypass+fullScreens",
                doc, "bypass+fullScreens")

    doc = good_cache_doc()
    doc["groups"]["screening.cache"]["counters"]["evictions"] = counter(11)
    expect_fail("cache evictions exceed insertions", doc,
                "evictions exceed")

    doc = good_cache_doc()
    doc["groups"]["serve.loop"]["histograms"]["latencyHitUs"] = \
        hist(27, [27])
    expect_fail("hit-latency histogram disagrees with cacheHits", doc,
                "latencyHitUs")

    doc = good_cache_doc()
    doc["groups"]["serve.loop"]["counters"]["measuredRequests"] = \
        counter(39)
    expect_fail("classified responses exceed measuredRequests", doc,
                "measuredRequests")

    doc = good_cache_doc()
    doc["groups"]["serve.loop"]["scalars"]["servedEpoch"] = scalar(39, 1, 2)
    expect_fail("servedEpoch sample count disagrees with hit/miss split",
                doc, "servedEpoch sampled")

    doc = good_cache_doc()
    doc["groups"]["serve.loop"]["counters"]["cacheHits"] = counter(29)
    doc["groups"]["serve.loop"]["histograms"]["latencyHitUs"] = \
        hist(29, [29])
    doc["groups"]["serve.loop"]["scalars"]["servedEpoch"] = scalar(41, 1, 2)
    expect_fail("served more cache hits than the cache validated", doc,
                "validated only")

    doc = good_cache_doc()
    doc["groups"]["bench.serving.cache"]["scalars"]["hitP50Us"] = \
        scalar(1, 40, 40)
    expect_fail("cache-hit p50 exceeds miss p50", doc,
                "cache latency win missing")

    doc = good_cache_doc()
    doc["groups"]["runtime.snapshot"]["counters"]["swaps"] = counter(3)
    expect_fail("snapshot swaps exceed publishes", doc, "swaps exceed")

    doc = good_cache_doc()
    doc["groups"]["runtime.snapshot"]["counters"]["collected"] = counter(2)
    expect_fail("snapshot collections exceed retirements", doc,
                "collected exceed")

    doc = good_cache_doc()
    doc["groups"]["serve.loop"]["scalars"]["servedEpoch"] = scalar(40, 1, 3)
    expect_fail("served epoch beyond the published-epoch count", doc,
                "published epochs")

    doc = good_cache_doc()
    del doc["groups"]["screening.cache"]
    del doc["groups"]["runtime.snapshot"]
    doc["groups"]["serve.loop"]["counters"]["cacheHits"] = counter(0)
    doc["groups"]["serve.loop"]["counters"]["cacheMisses"] = counter(0)
    doc["groups"]["serve.loop"]["histograms"]["latencyHitUs"] = hist(0, [0])
    doc["groups"]["serve.loop"]["histograms"]["latencyMissUs"] = \
        hist(0, [0])
    doc["groups"]["serve.loop"]["scalars"]["servedEpoch"] = scalar(0, 0, 0)
    expect_pass("cache off (timing-only serving) passes", doc)

    expect_pass("tune document with a known kernel pin", good_tune_doc())

    doc = good_tune_doc()
    doc["configs"]["intel-f6m106-avx512"]["kernels"] = "sse2"
    expect_fail("tune document pinning the removed sse2 tier", doc,
                "unknown target 'sse2'")

    print("tools/test_check_metrics.py: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
