"""One benchmark process: imports the library, builds a workload's seeded
inputs, says ``ready`` on stdout, runs one timed pass over every item (a
closed loop: the next item starts when the previous one returns), runs the
cross-checks, and prints its result as one JSON line.

    python3 bench/child.py --workload complexes --seed 42 --mode pass

``--mode setup`` stops after ``ready``; ``--mode trace`` runs the pass with
every library function wrapped in spans (see tracer.py) and writes the spans
to bench/out/.  For the ``suite`` workload, setup is the import of the
command-line module and a pass runs the CLI's ``main`` in this process.

Times are reported scaled to the reference speed (see calibrate.py), with
the measured pass time as ``raw_wall_s`` and the factor as ``scale``.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPANS_DIR = os.path.join(BENCH_DIR, "out")


def _timings(cal, wall, latencies_s=()):
    scale = cal.scale
    return {
        "wall_s": wall * scale,
        "raw_wall_s": wall,
        "scale": scale,
        "latencies_ms": [x * scale * 1000.0 for x in latencies_s],
    }


def _library_pass(workload, seed, items, tracer):
    import workloads as w
    from calibrate import Calibrator

    clock = time.perf_counter
    latencies, answers, raws, errors = [], [], [], {}
    with Calibrator() as cal:
        start = clock()
        if workload == "spaces":
            posets = w.enumerate_all(items)
            inputs = w.space_inputs(posets, items)
        else:
            inputs = items
        for k, item in enumerate(inputs):
            if tracer is not None:
                tracer.item = k
            t, spent = clock(), cal.spent
            try:
                answer, raw = w.RUN[workload](item, seed)
            except Exception as exc:  # every failure is reported, none stops the pass
                answer = raw = None
                errors[k] = "%s: %s" % (type(exc).__name__, exc)
            latencies.append(clock() - t - (cal.spent - spent))
            answers.append(answer)
            raws.append(raw)
        wall = clock() - start - cal.spent
    if tracer is not None:
        tracer.item = -1

    # after the timed phase: digests and cross-checks
    failures = {k: [msg] for k, msg in errors.items()}
    for k, (item, answer, raw) in enumerate(zip(inputs, answers, raws)):
        if answer is None:
            continue
        bad = w.CHECK[workload](item, answer, raw)
        if bad:
            failures[k] = bad
    run_failures = w.check_enumeration(posets) if workload == "spaces" else []
    return dict(
        _timings(cal, wall, latencies),
        digests=[w.digest(a) if a is not None else None for a in answers],
        failures={str(k): v for k, v in sorted(failures.items())},
        run_failures=run_failures,
    )


def _suite_pass(argv):
    from calibrate import Calibrator
    from ttsupport import cli

    buf = io.StringIO()
    with Calibrator() as cal, contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start - cal.spent
    return dict(_timings(cal, wall), exit=code, stdout=buf.getvalue())


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, help="the seed of this pass's inputs")
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--cli-args", default="", help="suite only: the CLI arguments, space separated")
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    sys.path.insert(0, BENCH_DIR)
    if args.workload == "suite":
        from ttsupport import cli  # noqa: F401  (the import is the suite's setup)
    else:
        import workloads

    items = None if args.workload == "suite" else workloads.make_items(args.workload, args.seed, args.smoke)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
    if args.workload == "suite":
        result = _suite_pass(args.cli_args.split())
    else:
        result = _library_pass(args.workload, args.seed, items, tracer)
    if tracer is not None:
        from ttsupport import battery
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer.summary(), tracer.counters(), battery.CRITERIA)
        result["layers"]["trace.spans"] = len(tracer.spans)
        os.makedirs(SPANS_DIR, exist_ok=True)
        result["spans_file"] = os.path.join(SPANS_DIR, "spans-%s.tsv.gz" % args.workload)
        tracer.write(result["spans_file"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
