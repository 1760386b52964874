#!/usr/bin/env bash
# Simulator-throughput tracking: measure simulated instructions per
# second and record it in BENCH_simspeed.json at the repo root.
#
# The source is the google-benchmark binary build/simspeed:
# single-simulation throughput per model (BM_OooSim/16 on hydro2d is
# the headline number perf PRs are judged by), the sweep-engine batch
# path every figure runs on (BM_SweepEngine/<threads>), and
# BM_SimResult{To,From}Json, SimResult records serialized/parsed per
# second, recorded under "serialize_results_per_sec" — the cost of
# every store hit. Each benchmark runs 5 repetitions, interleaved in
# random order so a slow stretch of the host spreads over all of
# them; the record keeps the median, min and max of items/s per
# benchmark.
#
# Usage:
#   scripts/bench_speed.sh [--build-dir DIR] [--out FILE]
#                          [--min-time SECONDS] [--set-baseline]
#                          [--check]
#
# Default mode re-measures and rewrites the "current" section of the
# output file, preserving the recorded "baseline" (when --out points
# somewhere fresh, e.g. a CI artifact, the record is seeded from the
# checked-in repo-root file so the baseline rides along).
# --set-baseline records the measurement as the baseline instead
# (done once, before a perf change lands). --check additionally
# compares the fresh measurement against the checked-in "current"
# section at the repo root and prints a GitHub-style ::warning:: per
# benchmark whose spread lies wholly below the reference spread (new
# max < reference min, after host-speed normalization) — a change
# inside the measured noise never warns. It never fails the build
# (timing on shared CI runners is noisy; the warning is a prompt to
# look, not a gate), and the measurement is still recorded to --out.
#
# Throughput is wall-clock dependent: only compare numbers measured
# on the same machine. The checked-in numbers document the host they
# were recorded on (see "nproc" and the label).
set -euo pipefail

BUILD_DIR=build
OUT=""
MIN_TIME=0.5
MODE=current
CHECK=0
REPETITIONS=5

while [ $# -gt 0 ]; do
    case "$1" in
    --build-dir)
        BUILD_DIR="$2"
        shift 2
        ;;
    --out)
        OUT="$2"
        shift 2
        ;;
    --min-time)
        MIN_TIME="$2"
        shift 2
        ;;
    --set-baseline)
        MODE=baseline
        shift
        ;;
    --check)
        CHECK=1
        shift
        ;;
    *)
        echo "bench_speed: unknown argument '$1'" >&2
        exit 2
        ;;
    esac
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
[ -n "$OUT" ] || OUT="$ROOT/BENCH_simspeed.json"

MICRO="$BUILD_DIR/simspeed"
if [ ! -x "$MICRO" ]; then
    echo "bench_speed: '$MICRO' not found: build the simspeed target" \
        "(it needs google-benchmark installed)" >&2
    exit 2
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$MICRO" --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions="$REPETITIONS" \
    --benchmark_enable_random_interleaving=true \
    --benchmark_format=json > "$TMP/micro.json" 2> /dev/null

# --dirty: a number measured from an uncommitted tree must not be
# attributed to a commit that cannot reproduce it.
LABEL="$(git -C "$ROOT" describe --always --dirty 2> /dev/null || echo unknown)"

python3 - "$TMP/micro.json" "$OUT" "$MODE" "$CHECK" "$LABEL" \
    "$ROOT/BENCH_simspeed.json" "$REPETITIONS" << 'EOF'
import json
import os
import statistics
import sys

micro_path, out, mode, check, label, ref_path, reps = sys.argv[1:8]

# ---- google-benchmark: name -> items/s of every repetition. Only the
# "iteration" entries are runs; the "aggregate" ones (mean, median,
# stddev, cv) are derived from them. The SimResult serialization
# benchmarks count records, not instructions.
runs = {}
with open(micro_path) as f:
    for b in json.load(f)["benchmarks"]:
        if b.get("run_type") == "iteration" and "items_per_second" in b:
            runs.setdefault(b["run_name"], []).append(
                b["items_per_second"])

micro = {}
serialize = {}
for name, xs in sorted(runs.items()):
    kind = serialize if name.startswith("BM_SimResult") else micro
    kind[name] = {"median": int(statistics.median(xs)),
                  "min": int(min(xs)), "max": int(max(xs))}

measurement = {
    "label": label,
    "nproc": os.cpu_count(),
    "repetitions": int(reps),
    "scale": 0.5,
    "microbench_instr_per_sec": micro,
    "serialize_results_per_sec": serialize,
}


def spread(entry):
    return entry["median"], entry["min"], entry["max"]


# Start from the record at --out; a fresh --out location inherits
# the checked-in record so its baseline (and anything else already
# tracked) is preserved alongside the new measurement.
record = {}
for path in (out, ref_path):
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
        break
record.setdefault("schema", 1)
record.setdefault(
    "note",
    "Items/sec per google-benchmark of build/simspeed (traces at "
    "scale 0.5): median, min and max of interleaved repetitions. "
    "Wall-clock dependent: compare only numbers from the same "
    "machine. Update with scripts/bench_speed.sh; see README "
    "'Performance'.",
)

if int(check):
    ref = {}
    if os.path.exists(ref_path):
        with open(ref_path) as f:
            ref = json.load(f).get("current", {})
    # The checked-in numbers come from a different machine than the
    # CI runner, so absolute throughput would warn (or stay silent)
    # based on host speed, not code. Normalize by the trace-generation
    # microbenchmark — a pure-CPU workload the simulator rework never
    # touches — so host-speed differences cancel to first order.
    old_canary = ref.get("microbench_instr_per_sec", {}).get(
        "BM_TraceGeneration")
    new_canary = micro.get("BM_TraceGeneration")
    host = (new_canary["median"] / old_canary["median"]
            if old_canary and new_canary else 1.0)
    if host != 1.0:
        print(f"host-speed normalization (BM_TraceGeneration): "
              f"{host:.2f}x")
    for kind in ("microbench_instr_per_sec",
                 "serialize_results_per_sec"):
        unit = ("results/s" if kind == "serialize_results_per_sec"
                else "instr/s")
        for name, old in ref.get(kind, {}).items():
            new = measurement[kind].get(name)
            if not new or name == "BM_TraceGeneration":
                continue
            old_med, old_min, old_max = (v * host for v in spread(old))
            new_med, new_min, new_max = spread(new)
            line = (f"{name}: median {old_med:.0f} -> {new_med} {unit} "
                    f"({new_med / old_med:.2f}x host-normalized; new "
                    f"{new_min}..{new_max}, reference "
                    f"{old_min:.0f}..{old_max:.0f})")
            # Warn only when the spreads do not overlap: every new
            # run is slower than every reference run.
            if new_max < old_min:
                print(f"::warning::simulator throughput regression: "
                      f"{line}, checked-in reference "
                      f"{ref.get('label', '?')}")
            else:
                print(line)

record["baseline" if mode == "baseline" else "current"] = measurement
with open(out, "w") as f:
    json.dump(record, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"bench_speed: wrote {mode} measurement ({label}) to {out}")
EOF
