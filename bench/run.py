"""The ttsupport benchmark.

    python3 bench/run.py --workload spaces --seed 42 --seconds 10 --trace 0
    python3 bench/run.py --all --seed 42 [--out bench/results/<name>.json]
    python3 bench/run.py --write-spec      # regenerate BENCHMARK.json

Run from the root of a source checkout; the library is imported from
``src/``.  Every measured process is a fresh interpreter driven by this
single client, one process at a time, with no threads.

A run of one workload:

* spawns SETUP_SPAWNS set-up processes (interpreter start, import, seeded
  input generation) and reports the median time to ``ready`` as ``setup_s``;
* runs timed passes, each in a fresh process: as many as fit ``--seconds``
  at the speed of the first (at least one).  A pass sends every item of the
  workload through the library in a closed loop, or for ``suite`` runs the
  CLI's ``main`` once; each pass draws its own inputs from the seed.
  ``wall_s`` is the mean pass time, ``item_p50_ms`` and ``item_tail_ms``
  percentiles of the latencies of all items of the run (for ``suite``, the
  one item is the pass), ``peak_rss_mb`` the largest max-RSS of a pass;
* checks every output: pinned digests at the pinned seed, cross-checks at
  every seed (see workloads.py), and for ``suite`` the exit code,
  ``all_passed`` and the pinned stdout hash.

With ``--trace 1`` the run makes one untraced and one traced pass, both in
the child process (for ``suite``, the CLI's ``main`` in-process), and reports
the per-layer metrics of the traced pass (see tracer.py) plus
``trace.overhead_s``, the traced minus the untraced pass time.

Every time is scaled to a reference machine speed by a calibration loop
sampled around and during the timed work (see calibrate.py); the measured
times and the scale are printed beside the metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run refuses to report (exit 2) when the
library cannot be imported or when ``ttsupport.smith.SELF_CHECK`` is off.
"""

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

import calibrate
from tracer import LAYER_METRICS, layer_unit

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
PINS = os.path.join(BENCH_DIR, "pins.json")

SETUP_SPAWNS = 9
RUN_DEADLINE_S = 170.0
# the suite always runs the CLI's default seed: across seeds its time ranges
# from 12 s to 54 s with which complex pairs reach criterion 9's
# orthogonality check, so only a fixed seed gives comparable runs
SUITE_SEED = 42
SUITE_SAMPLES = 10
SUITE_ARGS = ["--seed", str(SUITE_SEED), "--samples", str(SUITE_SAMPLES), "suite"]
SMOKE_SUITE_ARGS = ["--seed", str(SUITE_SEED), "--samples", "2", "suite"]

WORKLOADS = [
    (
        "suite",
        "tts suite at seed 42 with 10 samples: the command users run; the only workload "
        "that reaches cli, battery and derived Hom (hom_complex_h0)",
    ),
    (
        "spaces",
        "all 405 posets up to 6 points through poset/spectral/frames/axioms with no smith or "
        "homalg calls; shows assembly and frame-construction work",
    ),
    (
        "complexes",
        "battery complexes over all 7 ring classes (fixed Z/6 and Z/12 property-suite pairs, "
        "the rest seeded), built from JSON and queried many times: many tiny matrices in homalg/support/smith",
    ),
    (
        "matrices",
        "integer matrices of every shape up to 10x10, entries +-50, through smith alone: larger "
        "matrices, no reuse across items, transform entry blow-up",
    ),
]
WORKLOAD_NAMES = [name for name, _why in WORKLOADS]

# name, unit, bound: the share of the parent's median by which a metric may
# worsen.  Over two sets of ten runs at ten seeds each on the shared 2-core
# machine the benchmark was built on, the spread (interquartile range over
# median) was 0.029 to 0.082 for wall_s, up to 0.10 for the item
# percentiles, whose inputs the seed draws, up to 0.16 for setup_s and
# 0.08 for peak_rss_mb.
# The machine's own speed drifts by more than the calibration removes (see
# calibrate.py), so the bounds are wide, and set-up time, the noisiest,
# gets the widest.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.24),
    ("item_p50_ms", "ms", 0.24),
    ("item_tail_ms", "ms", 0.24),
    ("peak_rss_mb", "MB", 0.15),
]

def spec():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 16,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": layer_unit(n), "better": "lower"} for n in LAYER_METRICS],
    }


# ---------------------------------------------------------------------------
# processes


class Spawn:
    """One child process: time to its first output line, time to exit,
    exit code, stdout and max RSS (from wait4)."""

    def __init__(self, argv, deadline):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        fd = proc.stdout.fileno()
        chunks, ready, timed_out = [], None, False
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            readable, _w, _x = select.select([fd], [], [], remaining)
            if not readable:
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                break
            chunks.append(data)
            if ready is None and b"\n" in data:
                ready = time.perf_counter() - start
        _pid, status, usage = os.wait4(proc.pid, 0)
        self.total_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        self.ready_s = ready
        self.code = proc.returncode
        self.timed_out = timed_out
        self.stdout = b"".join(chunks).decode()
        self.maxrss_mb = usage.ru_maxrss / 1024.0

    def result(self):
        """The child's JSON result line, or None when it did not finish."""
        if self.code != 0 or self.timed_out:
            return None
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if len(lines) >= 2 else None


def _child(workload, seed, mode, deadline, smoke=False):
    argv = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if workload == "suite":
        argv += ["--cli-args", " ".join(SMOKE_SUITE_ARGS if smoke else SUITE_ARGS)]
    if smoke:
        argv.append("--smoke")
    return Spawn(argv, deadline)


# ---------------------------------------------------------------------------
# checks


def _load_pins():
    with open(PINS) as fh:
        return json.load(fh)


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(len(sorted_values), max(1, math.ceil(q * len(sorted_values)))) - 1]


def tail_quantile(n):
    """The highest of p50/p75/p90/p95/p99/p99.9 with at least ten of n items
    beyond it."""
    best = 0.5
    for q in (0.75, 0.9, 0.95, 0.99, 0.999):
        if n * (1 - q) >= 10:
            best = q
    return best


class Tally:
    """Attempted and failed items of a run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, count, bad):
        """Record count items, of which the ones in bad (item -> reasons) failed."""
        self.attempted += count
        self.failed += len(bad)
        for k, why in sorted(bad.items(), key=lambda kv: str(kv[0]))[:5]:
            self.reasons.append("item %s: %s" % (k, "; ".join(why)))

    def fail_all(self, count, why):
        self.attempted += count
        self.failed += count
        self.reasons.append(why)


def _check_suite(finished, out, tally, pins):
    """Exit code, all_passed and, when pins are given, the stdout hash."""
    why = []
    if not finished:
        why.append("tts suite exited non-zero or did not finish")
    try:
        passed = json.loads(out)["all_passed"] is True
    except (ValueError, KeyError, TypeError):
        passed = False
    if not passed:
        why.append("all_passed is not true")
    if pins and hashlib.sha256(out.encode()).hexdigest() != pins["suite"]["stdout_sha256"]:
        why.append("stdout differs from the pinned sha256")
    tally.add(1, {0: why} if why else {})


def _check_library(workload, seed, index, spawn, result, tally, pins, n_items):
    """Cross-check failures reported by pass number index, and its digests
    against the pins when the run's seed is the pinned one."""
    if result is None:
        tally.fail_all(n_items, "pass process failed (exit %s)" % spawn.code)
        return
    bad = {k: list(v) for k, v in result["failures"].items()}
    if result["run_failures"]:
        bad = {k: list(result["run_failures"]) for k in range(n_items)}
    pinned = pins.get(workload) if pins else None
    if pinned and pinned["seed"] == seed and index < len(pinned["passes"]):
        for k, (got, want) in enumerate(zip(result["digests"], pinned["passes"][index])):
            if got != want:
                bad.setdefault(str(k), []).append("digest %s differs from pinned %s" % (got, want))
    tally.add(len(result["latencies_ms"]), bad)


# ---------------------------------------------------------------------------
# runs


def pass_seed(seed, index):
    """Each pass of a run draws its own inputs, so the mean over passes
    covers several input sets as well as several stretches of machine time."""
    return "%d.%d" % (seed, index)


def _item_count(workload, smoke):
    sys.path.insert(0, BENCH_DIR)
    import workloads

    return len(workloads.make_items(workload, pass_seed(0, 0), smoke))


def run(workload, seed, seconds, trace, smoke=False):
    """One benchmark run; returns (report, human-readable lines).  With smoke,
    the inputs are tiny and the pins are not checked."""
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    pins = None if smoke else _load_pins()
    tally = Tally()
    lines = []
    n_items = 1 if workload == "suite" else _item_count(workload, smoke)

    def one_pass(index, mode="pass"):
        """Returns (wall seconds, latencies in ms, spawn, child result), the
        times scaled to the reference speed."""
        spawn = _child(workload, pass_seed(seed, index), mode, deadline, smoke)
        result = spawn.result()
        if workload == "suite":
            _check_suite(result is not None and result["exit"] == 0, (result or {}).get("stdout", ""), tally, pins)
            if result is None:
                return spawn.total_s, [spawn.total_s * 1000.0], spawn, None
            return result["wall_s"], [result["wall_s"] * 1000.0], spawn, result
        _check_library(workload, seed, index, spawn, result, tally, pins, n_items)
        if result is None:
            return spawn.total_s, [], spawn, None
        return result["wall_s"], result["latencies_ms"], spawn, result

    if trace:
        plain_wall, _lat, _spawn, _res = one_pass(0)
        traced_wall, _lat, _spawn, result = one_pass(0, "trace")
        result = result or {}
        layers = dict(result.get("layers", {}))
        layers["trace.overhead_s"] = traced_wall - plain_wall
        metrics = {n: {"value": layers.get(n, 0), "unit": layer_unit(n)} for n in LAYER_METRICS}
        lines.append(
            "traced pass %.3f s, untraced %.3f s (scaled); traced pass measured %.3f s; spans in %s"
            % (traced_wall, plain_wall, result.get("raw_wall_s", 0.0), result.get("spans_file"))
        )
    else:
        setups = []
        for _ in range(SETUP_SPAWNS):
            before = calibrate.sample(calibrate.EDGE_SAMPLES)
            spawn = _child(workload, pass_seed(seed, 0), "setup", deadline, smoke)
            after = calibrate.sample(calibrate.EDGE_SAMPLES)
            if spawn.code == 0 and spawn.ready_s is not None:
                setups.append(spawn.ready_s * calibrate.scale_of(before + after))
        # as many passes as fit --seconds at the first pass's speed, and the deadline
        passes = [one_pass(0)]
        wanted = max(1, round(seconds / passes[0][2].total_s))
        while len(passes) < wanted and time.perf_counter() + 2 * passes[-1][2].total_s < deadline:
            passes.append(one_pass(len(passes)))
        results = [p[3] for p in passes if p[3] is not None]
        measured = "measured %.4f s at scale %.3f (means)" % (
            statistics.fmean(r["raw_wall_s"] for r in results) if results else 0.0,
            statistics.fmean(r["scale"] for r in results) if results else 0.0,
        )
        latencies = sorted(x for p in passes for x in p[1]) or [0.0]
        q = tail_quantile(n_items)
        metrics = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "wall_s": statistics.fmean(p[0] for p in passes),
            "item_p50_ms": _percentile(latencies, 0.5),
            "item_tail_ms": _percentile(latencies, q),
            "peak_rss_mb": max(p[2].maxrss_mb for p in passes),
        }
        notes = {
            "setup_s": "median of %d set-up spawns" % len(setups),
            "wall_s": "mean of %d timed pass(es); %s" % (len(passes), measured),
            "item_p50_ms": "over %d items of %d pass(es)" % (len(latencies), len(passes)),
            "item_tail_ms": "p%g, the highest with 10 of the %d items of one pass beyond it" % (q * 100, n_items),
            "peak_rss_mb": "largest max-RSS of a pass process",
        }
        units = {n: u for n, u, _b in END_TO_END}
        for name, value in metrics.items():
            lines.append("%-14s %14.4f %-3s  %s" % (name, value, units[name], notes[name]))
        metrics = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append("%-14s %14.4f      %d of %d items failed" % ("fail_frac", frac, tally.failed, tally.attempted))
    lines.extend("FAILED %s" % r for r in tally.reasons)
    report = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return report, lines


# ---------------------------------------------------------------------------
# metadata


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def metadata(seed):
    from ttsupport import battery, smith

    return {
        "seed": seed,
        "suite_args": SUITE_ARGS,
        "self_check": smith.SELF_CHECK,
        "battery": {
            name: getattr(battery, name)
            for name in (
                "DEFAULT_SAMPLES",
                "POSET_BOUND",
                "ZSET_POSET_BOUND",
                "ENTRY_BOUND",
                "SNF_ENTRY_BOUND",
                "MODULI",
                "ORTHOGONALITY_PAIRS",
            )
        },
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the results to this JSON file")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and no pins, for the benchmark's tests")
    args = parser.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if not args.all and not args.workload:
        parser.error("give --workload or --all")
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        meta = metadata(args.seed)
    except ImportError as exc:
        sys.stderr.write("cannot import the library from %s: %s\n" % (src, exc))
        return 2
    import ttsupport

    if os.path.dirname(os.path.dirname(os.path.abspath(ttsupport.__file__))) != src:
        sys.stderr.write("ttsupport was imported from %s, not from %s\n" % (ttsupport.__file__, src))
        return 2
    if meta["self_check"] is not True:
        sys.stderr.write("ttsupport.smith.SELF_CHECK is %r; refusing to measure\n" % (meta["self_check"],))
        return 2

    jobs = [(w, t) for w in WORKLOAD_NAMES for t in (0, 1)] if args.all else [(args.workload, args.trace)]
    results = {}
    report = None
    for workload, trace in jobs:
        print("# workload=%s seed=%d seconds=%d trace=%d" % (workload, args.seed, args.seconds, trace))
        print("# meta " + json.dumps(meta, sort_keys=True))
        report, lines = run(workload, args.seed, args.seconds, trace, args.smoke)
        for line in lines:
            print(line)
        results.setdefault(workload, {})["traced" if trace else "untraced"] = report
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"meta": meta, "results": results}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(report) if not args.all else json.dumps(
        {
            "correct": all(r["correct"] for w in results.values() for r in w.values()),
            "attempted": sum(r["attempted"] for w in results.values() for r in w.values()),
            "failed": sum(r["failed"] for w in results.values() for r in w.values()),
            "metrics": {},
        }
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
