#!/usr/bin/env python3
"""Validate an ENMC metrics or tune JSON document.

Usage: tools/check_metrics.py [--expect-switch] metrics.json [more.json ...]

Files are dispatched on their "schema" field: "enmc.metrics" documents
get the counter-invariant checks below; "enmc.tune" documents (written
by tools/autotune, consumed via ENMC_TUNE_JSON=) are checked for
  - schema_version == 1 and a non-empty "configs" map keyed by
    microarch strings shaped like "<vendor>-f<family>m<model>-<target>";
  - per entry: a "host" map holding only the known TuneParams fields
    (non-negative integers, chunk/tile sizes positive), an optional
    "kernels" pin naming a known dispatch target, an optional "sim"
    design point with positive integer fields.

Checks, per file:
  - schema == "enmc.metrics" and schema_version == 1;
  - at least one stat group, each with counters/scalars/histograms maps;
  - histogram bookkeeping: total == sum(bins) + underflow + overflow,
    and len(bins) >= 1 with lo < hi;
  - scalar bookkeeping: count == 0 implies sum == 0; count > 0 implies
    min <= mean <= max;
  - ECC accounting, wherever a group carries the fault mirror counters:
    faultInjectedWords == faultCorrected + faultDetected + faultEscaped;
  - per-class ECC accounting, for each protection class mirrored into a
    group (faultNone*/faultWeak*/faultStrong*): {class}Injected ==
    {class}Corrected + {class}Detected + {class}Escaped;
  - ECC overhead accounting, wherever a group carries the controller's
    overhead counters: eccRedundancyReads > 0 or eccDecodeCycles > 0
    requires eccProtectedReads > 0 (with the overhead model off or no
    ECC-protected traffic, no redundancy bandwidth may be charged);
  - batcher accounting, wherever a group carries the dynamic-batching
    counters: batches == flushSize + flushDeadline + flushDrain, and the
    batchSize histogram records exactly one sample per dispatched batch;
  - cluster accounting, whenever a cluster.router group is present: the
    per-node dispatchedBatches counters (cluster.node.*) sum to the
    router's shardDispatches fan-out total, deadDispatches == 0 (a dead
    node must never receive traffic), and the fanOut histogram records
    exactly one sample per routed batch;
  - candidate-cache accounting, whenever a screening.cache group is
    present: lookups == hits + misses, hits == validated + rejected,
    fullScreens == misses + rejected, lookups == screenerBypass +
    fullScreens, and evictions <= insertions; when serve.loop rides
    along, its cacheHits/cacheMisses must match the hit/miss latency
    histogram totals, stay within measuredRequests, agree with the
    servedEpoch sample count, and never exceed the cache's validated
    hits; when the --check-cache bench group rides along, its hit p50
    must not exceed its miss p50 (hits skip the screener, so the
    latency win must be visible); whenever a runtime.snapshot group is
    present, publishes >=
    swaps, collected <= retired, and the loop's maximum served epoch
    cannot exceed the published-epoch count;
  - planner accounting, whenever a plan group is present (--backend=auto):
    plans == warmupPlans + explorePlans + steadyPlans, the per-backend
    dispatch.* counters sum to plans, deadDispatches == 0 (an unavailable
    backend must never be routed to), and plans == the batcher's
    dispatched-batch count when a serve.batcher group rides along;
    with --expect-switch the document must also record switchEvents >= 1
    (used by CI's traffic-shift scenario);
  - traceEvents is a list whose entries carry name/ph/pid/ts (complete
    "X" events also carry dur >= 0).

Exits non-zero with a per-file report on the first violated file.
"""

import json
import re
import sys


def fail(path, msg):
    print(f"{path}: FAIL: {msg}", file=sys.stderr)
    return 1


def check_group(path, name, group):
    errors = 0
    for section in ("counters", "scalars", "histograms"):
        if not isinstance(group.get(section), dict):
            errors += fail(path, f"group {name!r} missing map {section!r}")
    if errors:
        return errors

    for sname, s in group["scalars"].items():
        if s["count"] == 0:
            if s["sum"] != 0:
                errors += fail(
                    path, f"{name}.{sname}: count == 0 but sum == {s['sum']}")
        elif not (s["min"] <= s["mean"] <= s["max"]):
            errors += fail(
                path,
                f"{name}.{sname}: min/mean/max out of order: "
                f"{s['min']}/{s['mean']}/{s['max']}")

    for hname, h in group["histograms"].items():
        if not h["bins"]:
            errors += fail(path, f"{name}.{hname}: empty bins")
            continue
        if not h["lo"] < h["hi"]:
            errors += fail(path, f"{name}.{hname}: lo {h['lo']} >= hi {h['hi']}")
        accounted = sum(h["bins"]) + h["underflow"] + h["overflow"]
        if accounted != h["total"]:
            errors += fail(
                path,
                f"{name}.{hname}: total {h['total']} != bins+under+over "
                f"{accounted}")

    counters = group["counters"]
    if "faultInjectedWords" in counters:
        injected = counters["faultInjectedWords"]["value"]
        parts = sum(counters[k]["value"]
                    for k in ("faultCorrected", "faultDetected",
                              "faultEscaped"))
        if injected != parts:
            errors += fail(
                path,
                f"{name}: ECC accounting broken: injected {injected} != "
                f"corrected+detected+escaped {parts}")

    for cls in ("faultNone", "faultWeak", "faultStrong"):
        if f"{cls}Injected" not in counters:
            continue
        injected = counters[f"{cls}Injected"]["value"]
        parts = sum(counters[f"{cls}{k}"]["value"]
                    for k in ("Corrected", "Detected", "Escaped"))
        if injected != parts:
            errors += fail(
                path,
                f"{name}: per-class ECC accounting broken: {cls}Injected "
                f"{injected} != corrected+detected+escaped {parts}")

    if "eccRedundancyReads" in counters or "eccDecodeCycles" in counters:
        protected = counters.get("eccProtectedReads", {}).get("value", 0)
        redundancy = counters.get("eccRedundancyReads", {}).get("value", 0)
        decode = counters.get("eccDecodeCycles", {}).get("value", 0)
        if (redundancy > 0 or decode > 0) and protected == 0:
            errors += fail(
                path,
                f"{name}: ECC overhead accounting broken: charged "
                f"{redundancy} redundancy reads / {decode} decode cycles "
                f"with no ECC-protected reads")

    if "batches" in counters and "flushSize" in counters:
        batches = counters["batches"]["value"]
        reasons = sum(counters[k]["value"]
                      for k in ("flushSize", "flushDeadline", "flushDrain"))
        if batches != reasons:
            errors += fail(
                path,
                f"{name}: batch accounting broken: batches {batches} != "
                f"size+deadline+drain {reasons}")
        sizes = group["histograms"].get("batchSize")
        if sizes is not None and sizes["total"] != batches:
            errors += fail(
                path,
                f"{name}: batchSize histogram total {sizes['total']} != "
                f"batches counter {batches}")
    return errors


def check_cluster(path, groups):
    """Cross-group cluster-fabric invariants (router vs per-node tallies)."""
    router = groups.get("cluster.router")
    if router is None:
        return 0
    errors = 0
    counters = router.get("counters", {})

    dead = counters.get("deadDispatches", {}).get("value", 0)
    if dead != 0:
        errors += fail(
            path,
            f"cluster.router: {dead} dispatches were sent to a dead node")

    fan_out = counters.get("shardDispatches", {}).get("value")
    node_total = sum(
        g.get("counters", {}).get("dispatchedBatches", {}).get("value", 0)
        for gname, g in groups.items()
        if gname.startswith("cluster.node."))
    if fan_out is not None and node_total != fan_out:
        errors += fail(
            path,
            f"cluster accounting broken: per-node dispatchedBatches sum "
            f"{node_total} != router shardDispatches {fan_out}")

    routed = counters.get("routedBatches", {}).get("value")
    fanout_hist = router.get("histograms", {}).get("fanOut")
    if routed is not None and fanout_hist is not None \
            and fanout_hist["total"] != routed:
        errors += fail(
            path,
            f"cluster.router: fanOut histogram total {fanout_hist['total']}"
            f" != routedBatches counter {routed}")
    return errors


def check_cache(path, groups):
    """Cross-group candidate-cache / snapshot-slot invariants."""
    errors = 0
    cache = groups.get("screening.cache")
    if cache is not None:
        c = cache.get("counters", {})

        def cval(key):
            return c.get(key, {}).get("value", 0)

        if cval("lookups") != cval("hits") + cval("misses"):
            errors += fail(
                path,
                f"screening.cache: lookups {cval('lookups')} != "
                f"hits+misses {cval('hits') + cval('misses')}")
        if cval("hits") != cval("validated") + cval("rejected"):
            errors += fail(
                path,
                f"screening.cache: hits {cval('hits')} != "
                f"validated+rejected {cval('validated') + cval('rejected')}")
        if cval("fullScreens") != cval("misses") + cval("rejected"):
            errors += fail(
                path,
                f"screening.cache: fullScreens {cval('fullScreens')} != "
                f"misses+rejected {cval('misses') + cval('rejected')}")
        if cval("lookups") != cval("screenerBypass") + cval("fullScreens"):
            errors += fail(
                path,
                f"screening.cache: lookups {cval('lookups')} != "
                f"bypass+fullScreens "
                f"{cval('screenerBypass') + cval('fullScreens')}")
        if cval("evictions") > cval("insertions"):
            errors += fail(
                path,
                f"screening.cache: {cval('evictions')} evictions exceed "
                f"{cval('insertions')} insertions")

    loop = groups.get("serve.loop")
    if loop is not None and "cacheHits" in loop.get("counters", {}):
        lc = loop["counters"]
        hits = lc["cacheHits"]["value"]
        misses = lc.get("cacheMisses", {}).get("value", 0)
        for hname, count in (("latencyHitUs", hits),
                             ("latencyMissUs", misses)):
            hist = loop.get("histograms", {}).get(hname)
            if hist is not None and hist["total"] != count:
                errors += fail(
                    path,
                    f"serve.loop: {hname} histogram total {hist['total']} "
                    f"!= counter {count}")
        measured = lc.get("measuredRequests", {}).get("value", 0)
        if hits + misses > measured:
            errors += fail(
                path,
                f"serve.loop: classified responses {hits + misses} exceed "
                f"measuredRequests {measured}")
        epoch = loop.get("scalars", {}).get("servedEpoch")
        if epoch is not None and epoch["count"] != hits + misses:
            errors += fail(
                path,
                f"serve.loop: servedEpoch sampled {epoch['count']} times "
                f"but hits+misses == {hits + misses}")
        if cache is not None:
            validated = cache.get("counters", {}).get("validated",
                                                      {}).get("value", 0)
            if hits > validated:
                errors += fail(
                    path,
                    f"cache accounting broken: serve.loop served {hits} "
                    f"cache hits but the cache validated only {validated}")

    bench = groups.get("bench.serving.cache")
    if bench is not None:
        scalars = bench.get("scalars", {})
        hit = scalars.get("hitP50Us")
        miss = scalars.get("missP50Us")
        if hit is not None and miss is not None and hit["count"] > 0 \
                and miss["count"] > 0 and hit["mean"] > miss["mean"]:
            errors += fail(
                path,
                f"cache latency win missing: hit p50 {hit['mean']} us "
                f"exceeds miss p50 {miss['mean']} us")

    snap = groups.get("runtime.snapshot")
    if snap is not None:
        sc = snap.get("counters", {})
        publishes = sc.get("publishes", {}).get("value", 0)
        swaps = sc.get("swaps", {}).get("value", 0)
        if publishes < swaps:
            errors += fail(
                path,
                f"runtime.snapshot: {swaps} swaps exceed {publishes} "
                f"publishes")
        retired = sc.get("retired", {}).get("value", 0)
        collected = sc.get("collected", {}).get("value", 0)
        if collected > retired:
            errors += fail(
                path,
                f"runtime.snapshot: {collected} collected exceed "
                f"{retired} retired")
        if loop is not None:
            epoch = loop.get("scalars", {}).get("servedEpoch")
            if epoch is not None and epoch["count"] > 0 \
                    and epoch["max"] > publishes:
                errors += fail(
                    path,
                    f"snapshot accounting broken: served epoch "
                    f"{epoch['max']} exceeds {publishes} published epochs")
    return errors


def check_planner(path, groups, expect_switch=False):
    """Cross-group offload-planner invariants (plan vs serve tallies)."""
    plan = groups.get("plan")
    if plan is None:
        if expect_switch:
            return fail(path, "--expect-switch given but no 'plan' group")
        return 0
    errors = 0
    counters = plan.get("counters", {})

    def val(key):
        return counters.get(key, {}).get("value", 0)

    plans = val("plans")
    kinds = val("warmupPlans") + val("explorePlans") + val("steadyPlans")
    if plans != kinds:
        errors += fail(
            path,
            f"plan accounting broken: plans {plans} != "
            f"warmup+explore+steady {kinds}")

    dispatch_total = sum(c.get("value", 0) for cname, c in counters.items()
                         if cname.startswith("dispatch."))
    if dispatch_total != plans:
        errors += fail(
            path,
            f"plan accounting broken: per-backend dispatch sum "
            f"{dispatch_total} != plans {plans}")

    dead = val("deadDispatches")
    if dead != 0:
        errors += fail(
            path,
            f"plan: {dead} dispatches were routed to an unavailable backend")

    batcher = groups.get("serve.batcher")
    if batcher is not None:
        batches = batcher.get("counters", {}).get("batches",
                                                  {}).get("value")
        if batches is not None and plans != batches:
            errors += fail(
                path,
                f"plan/serve accounting broken: plans {plans} != "
                f"dispatched batches {batches}")

    if expect_switch and val("switchEvents") < 1:
        errors += fail(
            path,
            "expected at least one planner switch event but "
            "switchEvents == 0")
    return errors


def check_trace(path, events):
    errors = 0
    if not isinstance(events, list):
        return fail(path, "traceEvents is not a list")
    for i, e in enumerate(events):
        for key in ("name", "ph", "pid", "ts"):
            if key not in e and not (key == "ts" and e.get("ph") == "M"):
                errors += fail(path, f"traceEvents[{i}] missing {key!r}")
        if e.get("ph") == "X" and e.get("dur", -1.0) < 0:
            errors += fail(path, f"traceEvents[{i}]: X event without dur >= 0")
    return errors


TUNE_HOST_FIELDS = {
    "gemv_row_chunk": True,        # True = must be positive
    "gemv_parallel_min_work": False,
    "batch_query_tile": True,
    "batch_row_tile": True,
    "topk_scan_cutoff": False,
}
TUNE_SIM_FIELDS = {
    "ranks_per_channel": True,
    "int4_macs": True,
    "inst_fifo_depth": True,
    "prefetch_tiles": True,
    "ddr_cycles": False,
}
KERNEL_TARGETS = ("scalar", "avx2", "avx512")
MICROARCH_RE = re.compile(r"^[a-z0-9]+-f\d+m\d+-[a-z0-9]+$")


def check_tune_fields(path, label, block, fields):
    errors = 0
    for fname, positive in fields.items():
        if fname not in block:
            continue
        v = block[fname]
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or v != int(v) or v < 0:
            errors += fail(
                path, f"{label}.{fname}: not a non-negative integer: {v!r}")
        elif positive and v == 0:
            errors += fail(path, f"{label}.{fname}: must be positive")
    for fname in block:
        if fname not in fields:
            errors += fail(path, f"{label}.{fname}: unknown field")
    return errors


def check_tune(path, doc):
    errors = 0
    if doc.get("schema_version") != 1:
        errors += fail(path,
                       f"schema_version is {doc.get('schema_version')!r}")
    if not doc.get("tool"):
        errors += fail(path, "missing tool field")
    configs = doc.get("configs")
    if not isinstance(configs, dict) or not configs:
        return errors + fail(path, "no tune configs present")
    for key, entry in configs.items():
        if not MICROARCH_RE.match(key):
            errors += fail(
                path, f"config key {key!r} is not a microarch key "
                      f"(<vendor>-f<family>m<model>-<target>)")
        if not isinstance(entry, dict):
            errors += fail(path, f"configs[{key!r}] is not an object")
            continue
        host = entry.get("host")
        if not isinstance(host, dict):
            errors += fail(path, f"configs[{key!r}] missing 'host' map")
        else:
            errors += check_tune_fields(path, f"{key}.host", host,
                                        TUNE_HOST_FIELDS)
        kernels = entry.get("kernels")
        if kernels is not None and kernels not in KERNEL_TARGETS:
            errors += fail(
                path, f"{key}.kernels: unknown target {kernels!r}")
        sim = entry.get("sim")
        if sim is not None:
            if not isinstance(sim, dict):
                errors += fail(path, f"{key}.sim is not an object")
            else:
                errors += check_tune_fields(path, f"{key}.sim", sim,
                                            TUNE_SIM_FIELDS)
        for section in entry:
            if section not in ("host", "kernels", "sim", "measurements"):
                errors += fail(path, f"{key}.{section}: unknown section")
    if not errors:
        print(f"{path}: OK (enmc.tune, {len(configs)} microarch entries)")
    return errors


def check_file(path, expect_switch=False):
    with open(path) as f:
        doc = json.load(f)

    errors = 0
    if doc.get("schema") == "enmc.tune":
        return check_tune(path, doc)
    if doc.get("schema") != "enmc.metrics":
        errors += fail(path, f"schema is {doc.get('schema')!r}")
    if doc.get("schema_version") != 1:
        errors += fail(path, f"schema_version is {doc.get('schema_version')!r}")
    if not doc.get("tool"):
        errors += fail(path, "missing tool field")

    groups = doc.get("groups")
    if not isinstance(groups, dict) or not groups:
        errors += fail(path, "no stat groups exported")
    else:
        for name, group in groups.items():
            errors += check_group(path, name, group)
        errors += check_cluster(path, groups)
        errors += check_cache(path, groups)
        errors += check_planner(path, groups, expect_switch)

    errors += check_trace(path, doc.get("traceEvents", []))

    if not errors:
        n_spans = sum(1 for e in doc.get("traceEvents", [])
                      if e.get("ph") in ("X", "i"))
        print(f"{path}: OK ({len(groups)} groups, {n_spans} trace events)")
    return errors


def main(argv):
    expect_switch = "--expect-switch" in argv[1:]
    paths = [a for a in argv[1:] if a != "--expect-switch"]
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    errors = 0
    for path in paths:
        errors += check_file(path, expect_switch)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
