#!/usr/bin/env python3
"""Paper-suite benchmark: one pass is `oova_bench all`, every registered
figure over one shared trace cache. See README.md in this directory.

    python3 perfbench/run.py --workload cold_serial --seed 1 \
        --seconds 30 --trace 0 [--scale 1.0]

Run from the root of a source checkout. The first run builds the
library, `oova_bench` and the traced driver into .bench_build/ (or
$CARGO_TARGET_DIR). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
The exit code is 0 only when the run is correct.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree clean
import layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NPROC = os.cpu_count() or 1
MIN_PASSES = 3     # timed untraced passes per run, whatever --seconds
WARM_FILLS = 3     # store fills per warm_store run (its setup)
RUN_BUDGET_S = 150  # start no pass that could end after this
GOLDEN_SCALE = 0.25  # the scale tests/golden/ was captured at
TIMING_FIGURES = {"simspeed"}  # print host timings; never compared

# name -> (sweep threads, store mode); README.md says why each exists.
WORKLOADS = {
    "cold_serial": (1, None),
    "warm_store": (NPROC, "warm"),
    "fill_store": (NPROC, "fill"),
}

STORE_LINE = re.compile(
    r"\[store\] .*hits=(\d+) misses=(\d+) stores=(\d+) bytesRead=(\d+) "
    r"bytesWritten=(\d+) evictions=(\d+) quarantined=(\d+)")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configure once, then an incremental build of both drivers."""
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", str(NPROC),
                    "--target", "oova_bench", "oova_layerbench"],
                   check=True, stdout=sys.stderr)


def source_fingerprint():
    """Hash of everything the build reads, keying the references."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "bench", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and p.suffix in
                        (".cc", ".hh", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_context(bdir, args, threads):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return (out.stdout.strip().splitlines() or [None])[0] \
            if out.returncode == 0 else None

    cache = (bdir / "CMakeCache.txt").read_text()

    def cache_var(name):
        m = re.search("^" + name + r":[A-Z]+=(.*)$", cache, re.M)
        return m.group(1) if m else ""

    compiler = cache_var("CMAKE_CXX_COMPILER")
    return {
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "scale": args.scale, "nproc": NPROC,
        "threads": threads,
        "git": ((ROOT / ".git").exists() and first_line(
            ["git", "describe", "--always", "--dirty"]))
        or "not a git checkout; sources " + source_fingerprint(),
        "build_type": cache_var("CMAKE_BUILD_TYPE"),
        "compiler": first_line([compiler, "--version"]) or compiler,
    }


class References:
    """Figure digests and exact work counts of the first run of this
    code at this scale, kept in the build directory. Every later run
    must match them: the same code prints the same figures and does
    the same work, whatever the workload, seed or thread count."""

    def __init__(self, bdir, scale):
        self.path = bdir / "perfbench" / (
            "ref-%s-scale%s.json" % (source_fingerprint(), scale))
        self.data = (json.loads(self.path.read_text())
                     if self.path.exists() else {})

    def check(self, key, value):
        """True if @value matches the reference (recording it first)."""
        if key not in self.data:
            self.data[key] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, sort_keys=True))
            tmp.replace(self.path)
        return self.data[key] == value


def spawn(cmd, stdout):
    """Run to completion; (wall s, cpu s, peak RSS MiB, exit, stderr)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.PIPE,
                         cwd=ROOT)
    err = p.stderr.read().decode(errors="replace")
    p.stderr.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
            p.returncode, err)


def split_figures(text, titles):
    """Figure name -> its text, cut at the "== <title> ==" banners."""
    banners = {"== %s ==" % t: n for n, t in titles.items()}
    out, name = {}, None
    for line in text.splitlines(keepends=True):
        if line.rstrip("\n") in banners:
            name = banners[line.rstrip("\n")]
            out[name] = ""
        if name is not None:
            out[name] += line
    return out


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Figures attempted and failed; any other failure of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def figure(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def problem(self, what):
        self.problems.append(what)


class Suite:
    def __init__(self, bdir, scale, refs, tally):
        self.bench = str(bdir / "oova" / "oova_bench")
        self.layerbench = str(bdir / "oova_layerbench")
        self.scale = scale
        self.refs = refs
        self.tally = tally
        self.work = bdir / "perfbench" / "run"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.store = self.work / "store"
        self.titles = None

    def probe(self):
        """Start the program and read its figure registry."""
        out = subprocess.run([self.bench, "--list"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        self.titles = dict(line.split(None, 1)
                           for line in out.stdout.strip().splitlines())

    def clear_state(self):
        """Set-up of cold_serial and fill_store: no store, no pass
        output left behind, and the program starts."""
        shutil.rmtree(self.store, ignore_errors=True)
        for f in self.work.glob("pass.*"):
            f.unlink()
        self.probe()

    def check_figures(self, text, exit_code, what, against):
        """Count every figure of one pass as attempted, failed where it
        is missing, its pass exited non-zero, or it differs from
        @against (a name -> expected text or digest function)."""
        figs = split_figures(text, self.titles)
        for name in self.titles:
            if name in TIMING_FIGURES:
                continue
            ok = exit_code == 0 and name in figs and against(
                name, figs[name])
            self.tally.figure(ok, "%s: figure %s" % (what, name))

    def check_goldens(self):
        """At the golden scale every gated figure matches tests/golden."""
        out = self.work / "pass.golden"
        with open(out, "w") as f:
            _, _, _, code, err = spawn(
                [self.bench, "all", "--threads", str(NPROC),
                 "--scale", str(GOLDEN_SCALE)], f)
        if code:
            log("golden pass exited %d: %s" % (code, err[-400:]))
        golden = ROOT / "tests" / "golden"

        def matches(name, text):
            g = golden / (name + ".txt")
            return g.exists() and g.read_text() == text

        self.check_figures(out.read_text(), code, "golden", matches)

    def untraced_pass(self, threads, store):
        """One `oova_bench all`; returns (wall, cpu, rss, store counts)."""
        cmd = [self.bench, "all", "--threads", str(threads), "--scale",
               str(self.scale)]
        if store:
            cmd += ["--store", str(self.store), "--store-stats"]
        out = self.work / "pass.txt"
        with open(out, "w") as f:
            wall, cpu, rss, code, err = spawn(cmd, f)
        if code:
            log("pass exited %d: %s" % (code, err[-400:]))
        counts = None
        if store:
            m = STORE_LINE.search(err)
            if m is None:
                self.tally.problem("pass printed no [store] line")
            counts = [int(x) for x in m.groups()] if m else None
            for _ in range(counts[6] if counts else 0):
                self.tally.figure(False, "quarantined store entry")
        self.check_figures(out.read_text(), code, "pass",
                           self.same_as_reference)
        return wall, cpu, rss, counts

    def same_as_reference(self, name, text):
        return self.refs.check("figure:" + name, digest(text))

    def traced_pass(self, threads, store):
        """One pass of the traced driver; (spans, summary)."""
        cmd = [self.layerbench, "--threads", str(threads), "--scale",
               str(self.scale), "--spans", str(self.work / "spans.jsonl"),
               "--summary", str(self.work / "summary.json")]
        if store:
            cmd += ["--store", str(self.store)]
        out = self.work / "pass.traced"
        with open(out, "w") as f:
            _, _, _, code, err = spawn(cmd, f)
        if code:
            log("traced pass exited %d: %s" % (code, err[-400:]))
            raise SystemExit(1)
        self.check_figures(out.read_text(), code, "traced pass",
                           self.same_as_reference)
        spans = layers.load_spans((self.work / "spans.jsonl").read_text())
        summary = json.loads((self.work / "summary.json").read_text())
        if summary["roundtrip_failures"]:
            self.tally.problem("%d SimResult JSON round trips failed"
                               % summary["roundtrip_failures"])
        for _ in range(summary["store"]["quarantined"]):
            self.tally.figure(False, "quarantined store entry")
        return spans, summary


def median(values):
    """Median; an exact count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run(args):
    threads, store_mode = WORKLOADS[args.workload]
    bdir = build_dir()
    build(bdir)
    tally = Tally()
    refs = References(bdir, args.scale)
    suite = Suite(bdir, args.scale, refs, tally)
    start = time.perf_counter()
    suite.probe()
    suite.check_goldens()

    # Set-up: warm_store fills the store from empty (several times,
    # for a steady median); the others clear state before each pass.
    setups = []

    def fill():
        suite.clear_state()
        counts = suite.untraced_pass(threads, True)[3]
        if not refs.check("store-counts:fill_store", counts):
            tally.problem("fill counts differ from the first run")

    if store_mode == "warm":
        for _ in range(WARM_FILLS if args.trace == 0 else 1):
            setups.append(timed(fill))

    def prepare():
        if store_mode != "warm":
            setups.append(timed(suite.clear_state))

    def passes(one, min_passes):
        """Run @one until --seconds have passed (at least
        @min_passes times, and never past the run budget)."""
        results, measure_start, last = [], time.perf_counter(), 0.0
        while True:
            now = time.perf_counter()
            if len(results) >= min_passes and (
                    now - measure_start >= args.seconds
                    or now - start + last > RUN_BUDGET_S):
                return results
            prepare()
            t0 = time.perf_counter()
            results.append(one())
            last = time.perf_counter() - t0

    if args.trace == 0:
        runs = passes(lambda: suite.untraced_pass(threads, store_mode),
                      MIN_PASSES)
        walls, cpus, rsss, counts = zip(*runs)
        if store_mode and not refs.check(
                "store-counts:" + args.workload, counts[0]):
            tally.problem("store counts differ from the first run")
        if any(c != counts[0] for c in counts):
            tally.problem("store counts differ between passes")
        log("%d passes, wall %s" % (len(walls),
                                     " ".join("%.3f" % w for w in walls)))
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (statistics.median(rsss), "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        context = host_context(bdir, args, threads)
    else:
        prepare()
        baseline = suite.untraced_pass(threads, store_mode)[0]
        traced = passes(lambda: suite.traced_pass(threads, store_mode), 1)
        per_pass = [layers.layer_metrics(spans, summary, baseline)
                    for spans, summary in traced]
        counts = [layers.exact_counts(spans, summary)
                  for spans, summary in traced]
        if not refs.check("work-counts:" + args.workload, counts[0]):
            tally.problem("exact work counts differ from the first run")
        if any(c != counts[0] for c in counts):
            tally.problem("exact work counts differ between passes")
        if per_pass[0]["unclassified.jobs"]:
            tally.problem("machine labels without exactly one class")
        for p in per_pass:
            if abs(p["traced.coverage"] - 1) > 0.05:
                log("warning: spans cover %.1f%% of the traced pass"
                    % (100 * p["traced.coverage"]))
        metrics = {name: (median([p[name] for p in per_pass]),
                          unit_of(name))
                   for name in per_pass[0]}
        context = host_context(bdir, args, threads)
        context["traced_overhead_s"] = metrics["traced.overhead_s"][0]
        context["work_counts"] = counts[0]
        log("%d traced passes, untraced baseline %.3f s"
            % (len(per_pass), baseline))

    shutil.rmtree(suite.work, ignore_errors=True)
    for p in tally.problems:
        log("FAILED: " + p)
    correct = not tally.problems
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def unit_of(name):
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("minstr_per_s", "Minstr/s"),
                         ("ns_per_sim_cycle", "ns/cycle"),
                         ("_us", "us"), ("us_per_job", "us"), ("_s", "s"),
                         ("hit_ratio", "ratio"), ("parallel_eff", "ratio"),
                         ("coverage", "ratio")):
        if name.endswith(suffix):
            return unit
    return "bytes" if ".bytes_" in name else "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: the suite is deterministic")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="trace scale; 1.0 is the paper scale")
    args = ap.parse_args()
    if not args.scale > 0:
        ap.error("--scale must be positive")
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src").is_dir():
        log("no source tree at %s: run from a full checkout" % ROOT)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
