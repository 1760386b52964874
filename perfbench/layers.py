"""Per-layer metrics from the spans of one traced pass.

The traced driver (layerbench.cc) writes one span per call into a
layer: "figure" (FigureDef::fn), "render" (renderFigureText), "store"
(a batch through the result store), "hash" (a named trace's content
hash), "sweep" (a batch that reaches in-process execution), "job" (one
simulation, labelled with its machine) and "tgen" (one trace
generated). This module turns them into the per-layer metrics listed
in BENCHMARK.json. It has no I/O, so test_layers.py checks it on
synthetic spans.
"""

import json
import re
from collections import defaultdict

# Job classes, named by the src/ module they exercise. A machine label
# is "REF" or "OOOVA-<queue>/<regs>r/<early|late>", then "/sle" or
# "/sle+vle" for load elimination, then one component per memory
# hierarchy level: banked ("/mb8p1"), cache ("/c32k4w8m") or TLB
# ("/t64e4k"). A flat bus adds nothing (or "/x2" for several units).
SIM_CLASSES = ("ref", "core.ooo", "core.sle", "core.ideal", "mem")

_HIERARCHY = re.compile(r"^(mb|c|t)\d")


def class_matches(label):
    """Every class whose definition the machine label meets."""
    parts = label.split("/")
    is_ref = parts[0] == "REF"
    is_ooo = parts[0].startswith("OOOVA-")
    hierarchy = any(_HIERARCHY.match(p) for p in parts[1:])
    sle = any(p in ("sle", "sle+vle") for p in parts[1:])
    matches = []
    if label == "IDEAL":
        matches.append("core.ideal")
    if is_ref and not hierarchy:
        matches.append("ref")
    if is_ooo and not hierarchy and not sle:
        matches.append("core.ooo")
    if is_ooo and sle:
        matches.append("core.sle")
    if (is_ref or is_ooo) and hierarchy:
        matches.append("mem")
    return matches


def classify(label):
    """The one class of a machine label, or None when it has zero or
    several (both count as unclassified)."""
    matches = class_matches(label)
    return matches[0] if len(matches) == 1 else None


def covered_ns(lo, hi, intervals):
    """Length of the union of @intervals, clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times_ns(spans):
    """Span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["t0"], s["t1"]))
    return {
        s["id"]: (s["t1"] - s["t0"])
        - covered_ns(s["t0"], s["t1"], children[s["id"]])
        for s in spans
    }


def load_spans(text):
    return [json.loads(line) for line in text.splitlines() if line]


def _rate(num, den):
    return num / den if den else 0.0


def exact_counts(spans, summary):
    """The deterministic work of a pass: equal between any two passes
    of the same code at the same scale on the same workload."""
    counts = {
        "figures": summary["figures"],
        "results": summary["results"],
        "labels": summary["labels"],
        "store": summary["store"],
    }
    tgen = [s for s in spans if s["layer"] == "tgen"]
    counts["tgen"] = {
        "traces": len(tgen),
        "instr": sum(s["instr"] for s in tgen),
    }
    for cls in SIM_CLASSES:
        counts[cls] = {"jobs": 0, "instr": 0, "cycles": 0}
    for s in spans:
        if s["layer"] == "job" and s["label"]:
            cls = classify(s["label"]) or "unclassified"
            c = counts.setdefault(
                cls, {"jobs": 0, "instr": 0, "cycles": 0})
            c["jobs"] += 1
            c["instr"] += s["instr"]
            c["cycles"] += s["cycles"]
    return counts


def layer_metrics(spans, summary, untraced_wall_s):
    """Per-layer metric name -> value for one traced pass."""
    ns = 1e-9
    self_ns = self_times_ns(spans)
    by_layer = defaultdict(list)
    for s in spans:
        by_layer[s["layer"]].append(s)

    def dur_s(layer):
        return sum(s["t1"] - s["t0"] for s in by_layer[layer]) * ns

    def self_s(layer):
        return sum(self_ns[s["id"]] for s in by_layer[layer]) * ns

    m = {}
    tgen = by_layer["tgen"]
    m["tgen.traces"] = len(tgen)
    m["tgen.time_s"] = dur_s("tgen")
    m["tgen.minstr_per_s"] = _rate(
        sum(s["instr"] for s in tgen) / 1e6, m["tgen.time_s"])
    m["trace.hash_s"] = self_s("hash")

    jobs = defaultdict(lambda: {"jobs": 0, "ns": 0, "instr": 0,
                                "cycles": 0})
    for s in by_layer["job"]:
        if not s["label"]:
            continue  # prefetch dummy: no simulation
        j = jobs[classify(s["label"])]
        j["jobs"] += 1
        j["ns"] += s["t1"] - s["t0"]
        j["instr"] += s["instr"]
        j["cycles"] += s["cycles"]
    for cls in SIM_CLASSES:
        j = jobs[cls]
        time_s = j["ns"] * ns
        m[cls + ".jobs"] = j["jobs"]
        m[cls + ".time_s"] = time_s
        if cls == "core.ideal":
            continue
        m[cls + ".minstr_per_s"] = _rate(j["instr"] / 1e6, time_s)
        m[cls + ".sim_instr"] = j["instr"]
        m[cls + ".sim_cycles"] = j["cycles"]
        if cls.startswith("core."):
            m[cls + ".host_ns_per_sim_cycle"] = _rate(
                j["ns"], j["cycles"])

    # Pool busy time: every job, plus traces generated on the pool
    # (inside a serial batch on the main thread, or as a root span on
    # a worker thread) rather than under a "hash" span.
    sweep_ids = {s["id"] for s in by_layer["sweep"]}
    busy_ns = sum(s["t1"] - s["t0"] for s in by_layer["job"])
    busy_ns += sum(s["t1"] - s["t0"] for s in tgen
                   if s["parent"] in sweep_ids
                   or (s["tid"] != 0 and not s["parent"]))
    m["sweep.batches"] = len(by_layer["sweep"])
    m["sweep.batch_wall_s"] = dur_s("sweep")
    m["sweep.busy_s"] = busy_ns * ns
    m["sweep.parallel_eff"] = _rate(
        m["sweep.busy_s"], summary["threads"] * m["sweep.batch_wall_s"])

    st = summary["store"]
    lookups = st["hits"] + st["misses"]
    m["store.self_s"] = self_s("store")
    m["store.hits"] = st["hits"]
    m["store.misses"] = st["misses"]
    m["store.hit_ratio"] = _rate(st["hits"], lookups)
    m["store.bytes_read"] = st["bytes_read"]
    m["store.bytes_written"] = st["bytes_written"]
    m["store.us_per_job"] = _rate(m["store.self_s"] * 1e6, lookups)

    m["simresult.to_json_us"] = _rate(summary["to_json_s"] * 1e6,
                                      summary["results"])
    m["simresult.from_json_us"] = _rate(summary["from_json_s"] * 1e6,
                                        summary["results"])

    m["figure.count"] = summary["figures"]
    m["figure.self_s"] = self_s("figure")
    m["figure.render_s"] = dur_s("render")

    main_self_ns = sum(self_ns[s["id"]] for s in spans if s["tid"] == 0)
    m["traced.wall_s"] = summary["pass_s"]
    m["traced.overhead_s"] = summary["pass_s"] - untraced_wall_s
    m["traced.coverage"] = _rate(main_self_ns * ns, summary["pass_s"])
    m["unclassified.jobs"] = sum(
        n for label, n in summary["labels"].items()
        if classify(label) is None)
    return m
