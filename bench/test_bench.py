"""Tests of the benchmark itself, run at smoke size:

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, root=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=root,
        env=env,
        timeout=170,
    )
    return proc


def _report(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    return {
        w: _report("--workload", w, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")[1]
        for w in run.WORKLOAD_NAMES
    }


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_workload_prints_every_end_to_end_metric_with_its_unit(workload):
    lines, report = _report("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke")
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    assert sorted(report["metrics"]) == sorted(n for n, _u, _b in run.END_TO_END)
    for name, unit, _bound in run.END_TO_END:
        assert report["metrics"][name] == {"value": report["metrics"][name]["value"], "unit": unit}
        assert report["metrics"][name]["value"] > 0
        assert any(line.split()[0] == name and line.split()[2] == unit for line in lines[:-1])
    assert any(line.startswith("fail_frac") for line in lines[:-1])


def test_traced_runs_report_every_per_layer_metric(traced):
    for workload, report in traced.items():
        assert report["correct"], workload
        assert sorted(report["metrics"]) == sorted(run.LAYER_METRICS)
        for name, metric in report["metrics"].items():
            assert metric["unit"] == run.layer_unit(name)
        assert report["metrics"]["trace.spans"]["value"] > 0


def _calls(report, module):
    return report["metrics"]["%s.calls" % module]["value"]


def test_spaces_bypass_smith_and_homalg(traced):
    spaces = traced["spaces"]
    assert _calls(spaces, "smith") == 0 and _calls(spaces, "homalg") == 0
    assert _calls(spaces, "frames") > 0 and spaces["metrics"]["frames.assembly.calls"]["value"] > 0


def test_matrices_bypass_homalg_support_and_frames(traced):
    matrices = traced["matrices"]
    for module in ("homalg", "support", "frames"):
        assert _calls(matrices, module) == 0
    for op in ("snf", "solve_int", "kernel_basis", "lattice_basis", "quotient_invariants"):
        assert matrices["metrics"]["smith.%s.calls" % op]["value"] > 0


def test_suite_trace_reaches_cli_battery_and_derived_hom(traced):
    from ttsupport import battery
    from tracer import CRITERIA_COUNT

    assert len(battery.CRITERIA) == CRITERIA_COUNT
    suite = traced["suite"]["metrics"]
    assert suite["cli.calls"]["value"] == 1
    assert all(suite["battery.criterion_%02d_s" % k]["value"] > 0 for k in range(1, 13))
    assert suite["homalg.hom_complex_h0.calls"]["value"] > 0


def test_cohomology_reaches_smith_through_wrapped_homalg_bindings():
    code = """
import json
from ttsupport import homalg, smith, battery
from tracer import Tracer, layer_metrics
ring = homalg.IntegersLocalized()
free = homalg.PresentedModule.free(ring, 1)
cx = homalg.ChainComplex(ring, 0, [free, free], [[[2]]])
tracer = Tracer().install()
wrapped = all(
    hasattr(getattr(homalg, name), "__wrapped__") and getattr(homalg, name) is getattr(smith, name)
    for name in ("smith_normal_form", "kernel_basis", "lattice_basis", "quotient_invariants", "solve_int")
)
cx.cohomology(0)
print(json.dumps([wrapped, layer_metrics(tracer.summary(), tracer.counters(), battery.CRITERIA)]))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    wrapped, layers = json.loads(out.stdout)
    assert wrapped
    assert layers["homalg.cohomology.calls"] == 1
    assert layers["smith.snf.calls"] >= 1
    assert layers["smith.kernel_basis.calls"] >= 1


def _child_pass(workload, seed):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload, "--seed", str(seed),
         "--mode", "pass", "--smoke"],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["spaces", "complexes", "matrices"])
def test_same_seed_same_digests_other_seed_other_inputs(workload):
    first, second = _child_pass(workload, 11), _child_pass(workload, 11)
    assert first["digests"] == second["digests"] and None not in first["digests"]
    assert not first["failures"]
    assert workloads.make_items(workload, 11) == workloads.make_items(workload, 11)
    assert workloads.make_items(workload, 11) != workloads.make_items(workload, 12)


def test_cross_checks_catch_wrong_answers():
    item = workloads.make_items("matrices", 3, smoke=True)[0]
    answer, raw = workloads.run_matrix(item, 3)
    assert workloads.check_matrix(item, answer, raw) == []
    raw["d"] = [[2 * x for x in row] for row in raw["d"]]
    assert "U*A*V != D" in workloads.check_matrix(item, answer, raw)
    assert workloads.check_space(None, None, {"points": 2, "primes": 2, "nuclei": 3, "sigma_iso": True})
    assert workloads.check_enumeration({3: [None] * 4})


def test_calibration_samples_during_the_timed_work_and_counts_its_own_time():
    import time

    from calibrate import EDGE_SAMPLES, Calibrator

    with Calibrator() as cal:
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
    assert len(cal.samples) > 2 * EDGE_SAMPLES
    assert 0 < cal.spent < 0.6
    assert cal.scale > 0


def test_tail_quantile_leaves_ten_items_beyond():
    assert run.tail_quantile(1) == 0.5
    assert run.tail_quantile(171) == 0.9
    assert run.tail_quantile(405) == 0.95
    assert run._percentile(list(range(1, 101)), 0.9) == 90


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.spec()


@pytest.mark.parametrize("elsewhere", [False, True])
def test_refuses_without_the_library(tmp_path, elsewhere):
    """Only the checkout's own src/ counts: a ttsupport importable from
    elsewhere is refused too."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")) if elsewhere else None
    args = ("--workload", "matrices", "--seed", "1", "--seconds", "1", "--trace", "0")
    proc = _bench(*args, root=str(tmp_path), env=env)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout


def test_refuses_when_the_smith_self_check_is_off(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    smith_py = tmp_path / "src" / "ttsupport" / "smith.py"
    smith_py.write_text(smith_py.read_text().replace("SELF_CHECK = True", "SELF_CHECK = False"))
    proc = _bench("--workload", "matrices", "--seed", "1", "--seconds", "1", "--trace", "0", root=str(tmp_path))
    assert proc.returncode == 2
    assert "SELF_CHECK" in proc.stderr and '"correct"' not in proc.stdout
