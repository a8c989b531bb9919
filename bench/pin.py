"""Regenerate bench/pins.json: the per-item answer digests of the first
passes of every library workload at the pinned seed, and the sha256 of the
suite's stdout.

    python3 bench/pin.py

Run it only when the library's answers are meant to change; the benchmark
counts every item whose digest differs from its pin as failed.
"""

import hashlib
import json
import os
import sys

import run

PINNED_SEED = 42
# about three times the passes a run at the pinned seed makes at the seed
# commit's speed (one for spaces, four for the others), so that a faster
# library is still checked against pins; passes beyond these are
# cross-checked only
PINNED_PASSES = {"spaces": 3, "complexes": 12, "matrices": 12}


def main():
    pins = {}
    deadline_s = 600.0
    for workload, passes in PINNED_PASSES.items():
        pins[workload] = {"seed": PINNED_SEED, "passes": []}
        for index in range(passes):
            spawn = run._child(workload, run.pass_seed(PINNED_SEED, index), "pass", run.time.perf_counter() + deadline_s)
            result = spawn.result()
            if result is None or result["failures"] or result["run_failures"]:
                sys.stderr.write("%s: pass %d failed, nothing pinned\n" % (workload, index))
                return 1
            pins[workload]["passes"].append(result["digests"])
    result = run._child("suite", PINNED_SEED, "pass", run.time.perf_counter() + deadline_s).result()
    if result is None or result["exit"] != 0 or json.loads(result["stdout"])["all_passed"] is not True:
        sys.stderr.write("suite: tts suite failed, nothing pinned\n")
        return 1
    pins["suite"] = {"args": run.SUITE_ARGS, "stdout_sha256": hashlib.sha256(result["stdout"].encode()).hexdigest()}
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
