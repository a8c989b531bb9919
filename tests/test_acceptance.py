"""Acceptance battery: every criterion at its stated scale and tolerance."""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from ttsupport import battery, frames
from ttsupport.smith import identity, zeros

SEED = battery.DEFAULT_SEED
SAMPLES = battery.DEFAULT_SAMPLES
SUITE_SEED_42_SHA256 = "c194bd79b7a909c1acc72c69aa2f0c1d52d56b942b23db8185e17d345f5beb8d"


@pytest.fixture(scope="module")
def pool():
    return battery._all_instances(SEED, SAMPLES)


@pytest.fixture(scope="module")
def spaces():
    return battery._space_pool(4)


def test_01_every_small_space_has_a_power_of_two_nucleus_count():
    # the timed region builds the space pool, i.e. every assembly and sigma
    start = time.time()
    row = battery.criterion_nucleus_count(spaces=battery._space_pool(4))
    assert row["passed"], row["detail"]
    assert "24 spaces" in row["detail"]
    assert time.time() - start < 60


def test_02_sigma_is_an_isomorphism_on_all_small_spaces():
    start = time.time()
    row = battery.criterion_sigma_iso(spaces=battery._space_pool(4))
    assert row["passed"], row["detail"]
    assert time.time() - start < 60


def test_03_the_five_weakly_scattered_conditions_agree(spaces):
    row = battery.criterion_weakly_scattered_equivalences(spaces=spaces)
    assert row["passed"], row["detail"]


def test_04_the_four_scattered_conditions_agree(spaces):
    row = battery.criterion_scattered_equivalences(spaces=spaces)
    assert row["passed"], row["detail"]


def test_05_z_sets_are_the_largest_thomason_sets_missing_their_point():
    row = battery.criterion_zset_maximality()
    assert row["passed"], row["detail"]


def test_06_support_vanishes_exactly_on_acyclic_complexes(pool):
    start = time.time()
    row = battery.criterion_vanishing(pool=pool)
    assert row["passed"], row["detail"]
    assert "1400 instances" in row["detail"]
    assert time.time() - start < 300


def test_07_small_and_residue_field_support_agree_over_the_integers(pool):
    row = battery.criterion_noetherian_agreement(pool=pool)
    assert row["passed"], row["detail"]
    assert "200 instances" in row["detail"]


def test_08_bottom_weakly_associated_primes_lie_in_the_support(pool):
    row = battery.criterion_weak_associated_inclusion(pool=pool)
    assert row["passed"], row["detail"]
    assert "1400 instances" in row["detail"]


def test_09_property_suite_and_orthogonality_over_z6_and_z12(pool):
    row = battery.criterion_property_suite(pool=pool, seed=SEED)
    assert row["passed"], row["detail"]
    assert "400 suites" in row["detail"]


def test_10_eta_exists_and_is_unique_for_all_generated_data():
    row = battery.criterion_eta_factorization(seed=SEED)
    assert row["passed"], row["detail"]


def test_11_normal_form_self_check_on_a_thousand_matrices():
    start = time.time()
    row = battery.criterion_snf_selfcheck(seed=SEED)
    assert row["passed"], row["detail"]
    assert "1000 matrices" in row["detail"]
    assert time.time() - start < 30


def test_12_suite_output_is_byte_identical_for_a_fixed_seed():
    def run():
        return subprocess.run(
            [sys.executable, "-m", "ttsupport.cli", "--seed", "42", "suite"],
            capture_output=True,
        )

    first, second = run(), run()
    assert first.stdout == second.stdout and first.stdout
    # the stdout that the seed-42 suite has printed since the battery's
    # instance stream and criteria were fixed
    assert hashlib.sha256(first.stdout).hexdigest() == SUITE_SEED_42_SHA256
    assert first.returncode == second.returncode == 0
    report = json.loads(first.stdout)
    assert report["all_passed"]


def test_the_battery_builds_each_input_once(monkeypatch):
    calls = {"assembly": 0, "instances": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(frames, "assembly")
    counted(battery, "instances")
    rows = battery.run_battery(samples=1)
    assert all(row["passed"] for row in rows)
    # one assembly per space with at most 4 points; one batch per ring class
    # for the pool and one more for criterion 12's reproducibility check
    assert calls == {"assembly": 24, "instances": 14}


# every row reports its failure through battery._row: a failing row names its
# first three bad cases


@pytest.fixture(scope="module")
def small_pool():
    return battery._all_instances(SEED, 2)


@pytest.fixture(scope="module")
def small_spaces():
    return battery._space_pool(3)


def test_a_failing_vanishing_row_names_the_first_three_instances(monkeypatch, small_pool):
    monkeypatch.setattr(battery, "detect_vanishing", lambda cx: not cx.is_acyclic())
    row = battery.criterion_vanishing(pool=small_pool)
    assert not row["passed"]
    assert row["detail"] == "failed on [('Z', 0), ('Z', 1), ('Z/4', 0)]"


def test_a_failing_agreement_row_checks_only_the_rings_with_a_generic_point(monkeypatch, small_pool):
    row = battery.criterion_noetherian_agreement(pool=small_pool)
    assert row["passed"] and row["detail"] == "2 instances"
    monkeypatch.setattr(battery, "foxby_support", lambda cx: None)
    row = battery.criterion_noetherian_agreement(pool=small_pool)
    assert not row["passed"]
    assert row["detail"] == "failed on [('Z', 0), ('Z', 1)]"


def test_a_failing_inclusion_row_names_the_instance(monkeypatch, small_pool):
    monkeypatch.setattr(battery, "_bottom_cohomology_primes", lambda cx: frozenset({"nowhere"}))
    row = battery.criterion_weak_associated_inclusion(pool=small_pool[:1])
    assert not row["passed"]
    assert row["detail"] == "failed on [('Z', 0), ('Z', 1)]"


def _flip_sigma(spaces, which):
    return [
        (space, psi, not iso if k in which else iso, asm)
        for k, (space, psi, iso, asm) in enumerate(spaces)
    ]


def test_one_wrong_verdict_fails_the_weakly_scattered_row_on_that_space(small_spaces):
    row = battery.criterion_weakly_scattered_equivalences(spaces=_flip_sigma(small_spaces, {2}))
    assert not row["passed"]
    order = repr(small_spaces[2][0].order)
    assert row["detail"] == "failed on %s" % [(order, (False, True, True, True, True))]


def test_a_failing_scattered_row_names_three_spaces(small_spaces):
    class NotBoolean:
        def is_boolean(self):
            return False

    class Assembly:
        frame = NotBoolean()

    # every space up to 3 points is scattered, so a frame of nuclei that is
    # not Boolean disagrees on each of them
    row = battery.criterion_scattered_equivalences(
        spaces=[(space, psi, iso, Assembly()) for space, psi, iso, _asm in small_spaces]
    )
    assert not row["passed"]
    assert row["detail"] == "failed on %s" % [
        (repr(space.order), (True, True, True, False)) for space, *_rest in small_spaces[:3]
    ]


def test_a_failing_sigma_row_lists_the_spaces(small_spaces):
    row = battery.criterion_sigma_iso(spaces=_flip_sigma(small_spaces, {1, 4}))
    assert not row["passed"]
    assert row["detail"] == "failed on %s" % [repr(small_spaces[k][0].order) for k in (1, 4)]


def test_a_failing_smith_row_lists_matrix_indices(monkeypatch):
    def zero_form(a):
        rows, cols = len(a), len(a[0])
        return zeros(rows, cols), identity(rows), identity(cols)

    monkeypatch.setattr(battery, "smith_normal_form", zero_form)
    row = battery.criterion_snf_selfcheck()
    assert not row["passed"]
    assert row["detail"] == "failed on [0, 1, 2]"


def test_a_batch_from_another_seed_fails_reproducibility_naming_its_ring(small_pool):
    pool = list(small_pool)
    ring, _batch = pool[2]
    pool[2] = (ring, battery.instances(ring, 2, SEED + 1))
    row = battery.criterion_generator_determinism(pool=pool, seed=SEED, samples=2)
    assert not row["passed"]
    assert row["detail"] == "failed on ['Z/6']"
    row = battery.criterion_generator_determinism(pool=small_pool, seed=SEED, samples=2)
    assert row["passed"] and row["detail"] == "instance streams identical for seed 42"
