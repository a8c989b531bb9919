"""Command-line interface: contracts, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
import time

import pytest

CHAIN2 = json.dumps({"elements": ["g", "c"], "leq": [["g", "c"]]})
Z6_COMPLEX = json.dumps(
    {
        "ring": {"type": "Z/n", "n": 6},
        "degrees": [0, 0],
        "modules": [[[]]],
        "differentials": [],
    }
)
THREE_CHAIN = json.dumps(
    {"elements": ["0", "a", "1"], "leq": [["0", "a"], ["a", "1"], ["0", "1"]]}
)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ttsupport.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_cb_rank_of_a_two_chain():
    code, out = _run("spectral", "cbrank", CHAIN2)
    assert code == 0
    assert json.loads(out) == {"rank": 2}


def test_thomason_sets_are_sorted_lists():
    code, out = _run("spectral", "thomason", CHAIN2)
    assert code == 0
    assert json.loads(out) == [[], ["c"], ["c", "g"]]


def test_small_support_of_the_ring_itself():
    code, out = _run("support", "small", Z6_COMPLEX)
    assert code == 0
    report = json.loads(out)
    assert report["primes"] == ["(2)", "(3)"]
    assert report["generic"] is False and report["cofinite"] is False


def test_assembly_lists_four_nuclei_for_the_two_chain():
    code, out = _run("frames", "assembly", CHAIN2)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 4 and len(report["nuclei"]) == 4
    for nucleus in report["nuclei"]:
        assert {"label", "table"} <= set(nucleus)


def test_frames_primes_reads_a_frame_order_directly():
    code, out = _run("frames", "primes", THREE_CHAIN)
    assert code == 0
    assert json.loads(out) == {"primes": ["0", "a"]}


def test_axioms_round_trip_through_canonical_datum():
    code, datum = _run("axioms", "canonical", CHAIN2)
    assert code == 0
    code, out = _run("axioms", "eta", datum.strip())
    assert code == 0
    report = json.loads(out)
    assert report["exists"] and report["unique"]


def test_malformed_input_gives_structured_error_and_exit_one():
    code, out = _run("support", "small", '{"nope": 1}')
    assert code == 1
    assert "error" in json.loads(out)
    code, out = _run("spectral", "cbrank", "{broken json")
    assert code == 1
    assert "error" in json.loads(out)


def test_json_nested_past_the_recursion_limit_exits_one(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out = _run("support", "small", str(path))
    assert code == 1
    assert json.loads(out) == {"error": "malformed JSON: nested too deeply to parse"}


def test_an_integer_past_the_conversion_digit_limit_exits_one(tmp_path):
    doc = Z6_COMPLEX.replace('"n": 6', '"n": %s' % ("7" * 5000))
    path = tmp_path / "long.json"
    path.write_text(doc)
    code, out = _run("support", "small", str(path))
    assert code == 1
    error = json.loads(out)["error"]
    assert error.startswith("malformed JSON:") and "4300 digits" in error


def test_a_file_that_is_not_utf8_exits_one(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe")
    code, out = _run("support", "small", str(path))
    assert code == 1
    assert json.loads(out) == {"error": "cannot read %s: not UTF-8 text (byte 0: invalid start byte)" % path}


@pytest.mark.parametrize(
    "change, key",
    [
        ({"ring": {"type": "Z/n"}}, "'n'"),
        ({"degrees": [0]}, "'degrees'"),
        ({"degrees": [0, 1], "modules": [[[]], [[]]], "differentials": [[["x"]]]}, "'differentials'"),
    ],
)
def test_hostile_complex_json_gives_one_error_document_and_exit_one(change, key):
    doc = dict(json.loads(Z6_COMPLEX), **change)
    proc = subprocess.run(
        [sys.executable, "-m", "ttsupport.cli", "support", "small", json.dumps(doc)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == "" and len(proc.stdout.splitlines()) == 1
    assert key in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize(
    "doc",
    [
        # a 2 x 2 matrix where 1 x 0 is needed
        {
            "ring": {"type": "Z/n", "n": 6},
            "degrees": [0, 1],
            "modules": [[], [[]]],
            "differentials": [[[5, 7], [1, 2]]],
        },
        # a 3 x 2 matrix where 2 x 0 is needed
        {
            "ring": {"type": "local_nilpotent", "p": 2, "generators": [["x", 2]]},
            "degrees": [0, 1],
            "modules": [
                {"dim": 0, "actions": {"x": []}},
                {"dim": 2, "actions": {"x": [[0, 0], [1, 0]]}},
            ],
            "differentials": [[[1, 1], [1, 1], [1, 1]]],
        },
    ],
)
def test_misshapen_differential_next_to_a_zero_module_exits_one(doc):
    code, out = _run("support", "small", json.dumps(doc))
    assert code == 1
    assert json.loads(out) == {"error": "differential shape mismatch at slot 0"}


def test_oversized_poset_gives_exit_two_naming_the_bound():
    big = json.dumps({"elements": list("abcdefg"), "leq": []})
    code, out = _run("spectral", "cbrank", big)
    assert code == 2
    report = json.loads(out)
    assert report["bound"] == "max-poset"


def test_tsv_format_renders_key_value_lines():
    code, out = _run("--format", "tsv", "support", "small", Z6_COMPLEX)
    assert code == 0
    lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
    assert lines["primes"] == '"(2)","(3)"'


def test_tsv_table_cells_are_rendered_like_every_other_cell():
    # one row per element: element, essential primes, minimal primes
    square = {"elements": ["0", "x", "y", "1"], "leq": [["0", "x"], ["0", "y"], ["x", "1"], ["y", "1"]]}
    code, out = _run("--format", "tsv", "frames", "essential", json.dumps(square))
    assert code == 0
    assert out.splitlines() == [
        '"0"\t"x","y"\t"x","y"',
        '"1"\t\t',
        '"x"\t"x"\t"x"',
        '"y"\t"y"\t"y"',
    ]


def test_suite_with_a_fixed_seed_is_byte_identical():
    first = _run("--seed", "42", "--samples", "2", "suite")
    second = _run("--seed", "42", "--samples", "2", "suite")
    assert first == second
    assert first[0] == 0
    report = json.loads(first[1])
    assert report["all_passed"] and len(report["rows"]) == 12


def test_suite_tsv_table_lists_every_criterion():
    code, out = _run("--format", "tsv", "--seed", "7", "--samples", "2", "suite")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id\tname\tpassed\tdetail"
    assert len(lines) == 13
    assert all(line.split("\t")[2] == "pass" for line in lines[1:])


@pytest.mark.parametrize("option", ["--max-poset", "--max-frame"])
@pytest.mark.parametrize("value", ["6", "16", "64"])
def test_suite_refuses_an_explicit_size_bound(option, value):
    code, report, elapsed = _timed_main([option, value, "--samples", "2", "suite"])
    assert code == 1 and set(report) == {"error"}
    assert option in report["error"]
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "op, poset",
    [
        ("of", {"elements": ["a", "b", "a,b"], "leq": [["a", "b"]]}),
        ("sigma", {"elements": ["a,b", "a", "b"], "leq": []}),
    ],
)
def test_point_names_whose_set_labels_collide_exit_one(op, poset):
    code, out = _run("frames", op, json.dumps(poset))
    assert code == 1
    assert json.loads(out) == {"error": "two sets share the label {a,b}"}


DATUM = {
    "space": {"elements": ["a"], "leq": []},
    "bousfield": {"elements": ["0", "1"], "leq": [["0", "1"]]},
    "gamma": [[[], "0"], [["a"], "1"]],
    "complements": [["0", "1"], ["1", "0"]],
}


@pytest.mark.parametrize(
    "args",
    [
        ("spectral", "thomason", {"elements": [["a"]], "leq": []}),
        ("spectral", "thomason", {"elements": ["a", "b"], "leq": [[["a"], "b"]]}),
        ("frames", "primes", {"elements": ["0", "1"], "leq": [["0", ["1"]]]}),
        ("axioms", "check", dict(DATUM, gamma=[[[1], "1"]])),
        ("axioms", "check", dict(DATUM, gamma=[[["a"], ["1"]]])),
        ("axioms", "check", dict(DATUM, complements=[[["x"], "0"]])),
        ("axioms", "check", dict(DATUM, gamma=5)),
        ("axioms", "check", dict(DATUM, complements=5)),
        ("axioms", "check", dict(DATUM, gamma=[[[], "0"], ["ab", "1"]])),
        # {a,b} is not a Thomason set here, but its label is that of {"a,b"}
        (
            "axioms",
            "check",
            {
                "space": {"elements": ["a", "b", "a,b"], "leq": [["a", "a,b"]]},
                "bousfield": DATUM["bousfield"],
                "gamma": [
                    [[], "0"],
                    [["a", "b"], "0"],
                    [["b"], "1"],
                    [["a,b", "b"], "1"],
                    [["a", "a,b"], "0"],
                    [["a", "a,b", "b"], "1"],
                ],
                "complements": DATUM["complements"],
            },
        ),
    ],
)
def test_hostile_poset_and_datum_json_exit_one(args):
    group, op, doc = args
    proc = subprocess.run(
        [sys.executable, "-m", "ttsupport.cli", group, op, json.dumps(doc)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == "" and "error" in json.loads(proc.stdout)


def test_well_formed_datum_is_checked():
    code, out = _run("axioms", "check", json.dumps(DATUM))
    assert code == 0
    assert json.loads(out) == {"complemented": True, "witnesses": []}


ANTICHAIN2 = json.dumps({"elements": ["a", "b"], "leq": []})


@pytest.mark.parametrize(
    "field, entry, name",
    [
        # a second complement for the element {a}
        ("complements", ["{a}", "{}"], "the element '{a}'"),
        # a second gamma value for the Thomason set {a}
        ("gamma", [["a"], "{b}"], "the Thomason set {a}"),
    ],
    ids=["complements", "gamma"],
)
@pytest.mark.parametrize("first", [True, False], ids=["leading", "trailing"])
def test_a_datum_listing_one_key_with_two_values_exits_one_naming_it(field, entry, name, first):
    code, datum = _run("axioms", "canonical", ANTICHAIN2)
    assert code == 0
    doc = json.loads(datum)
    doc[field] = [entry] + doc[field] if first else doc[field] + [entry]
    code, out = _run("axioms", "check", json.dumps(doc))
    assert code == 1
    assert "%s is listed twice" % name in json.loads(out)["error"]


def test_a_datum_repeating_an_entry_with_its_own_value_is_accepted():
    code, datum = _run("axioms", "canonical", ANTICHAIN2)
    assert code == 0
    doc = json.loads(datum)
    doc["gamma"].append(doc["gamma"][0])
    doc["complements"].append(doc["complements"][0])
    code, out = _run("axioms", "check", json.dumps(doc))
    assert code == 0
    assert json.loads(out) == {"complemented": True, "witnesses": []}


# the six-point antichain with gamma evaluation at the point a: gamma(V) is
# "1" exactly when a is in V
ANTICHAIN6_AT_A = json.dumps(
    {
        "space": {"elements": list("abcdef"), "leq": []},
        "bousfield": {"elements": ["0", "1"], "leq": [["0", "1"]]},
        "gamma": [
            [list(points), "1" if "a" in points else "0"]
            for k in range(7)
            for points in itertools.combinations("abcdef", k)
        ],
        "complements": [["0", "1"], ["1", "0"]],
    }
)


def test_eta_on_the_six_point_antichain_keeps_its_pinned_answer():
    code, out = _run("--samples", "2000", "axioms", "eta", ANTICHAIN6_AT_A)
    assert code == 0
    report = json.loads(out)
    assert report["exists"] and report["unique"] and len(report["map"]) == 64
    assert all((value == "1") == ("a" in label) for label, value in report["map"])
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ec274089ed5f51e4d2524f54a08133844532f6f08e59b224d1e5d3f78962b569"
    )


ANTICHAIN5 = json.dumps({"elements": list("abcde"), "leq": []})


@pytest.mark.parametrize("op", ["assembly", "sigma"])
def test_assembly_and_sigma_obey_max_frame(op):
    code, out = _run("frames", op, ANTICHAIN5)
    assert code == 2
    assert json.loads(out)["bound"] == "max-frame"
    code, out = _run("--max-frame", "32", "frames", op, ANTICHAIN5)
    assert code == 0
    report = json.loads(out)
    if op == "assembly":
        assert report["count"] == 32 and len(report["nuclei"]) == 32
    else:
        assert report == {"is_isomorphism": True, "nuclei": 32}


def _timed_main(argv):
    from ttsupport import cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue()), time.perf_counter() - start


CHAIN120 = json.dumps(
    {
        "elements": ["e%03d" % i for i in range(120)],
        "leq": [["e%03d" % i, "e%03d" % (i + 1)] for i in range(119)],
    }
)


def _datum(space, bousfield):
    return json.dumps({"space": space, "bousfield": bousfield, "gamma": [], "complements": []})


ANTICHAIN8_DATUM = _datum({"elements": ["p%d" % i for i in range(8)], "leq": []}, json.loads(CHAIN2))
BIG_BOUSFIELD_DATUM = _datum(json.loads(CHAIN2), json.loads(CHAIN120))


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["spectral", "cbrank", CHAIN120], "max-poset"),
        (["frames", "assembly", CHAIN120], "max-poset"),
        (["frames", "primes", CHAIN120], "max-frame"),
        (["axioms", "check", ANTICHAIN8_DATUM], "max-poset"),
        (["axioms", "eta", ANTICHAIN8_DATUM], "max-poset"),
        (["axioms", "supportive", ANTICHAIN8_DATUM], "max-poset"),
        (["axioms", "check", BIG_BOUSFIELD_DATUM], "max-frame"),
    ],
)
def test_size_bounds_are_checked_before_the_relation_is_closed(argv, bound):
    code, report, elapsed = _timed_main(argv)
    assert code == 2 and report["bound"] == bound
    assert elapsed < 1.0


def test_a_modulus_with_two_large_prime_factors_exits_two():
    # n = 1000000007 * 1000000009: both factors lie past the trial-division bound
    doc = json.loads(Z6_COMPLEX)
    doc["ring"]["n"] = 1000000007 * 1000000009
    code, report, elapsed = _timed_main(["support", "small", json.dumps(doc)])
    assert code == 2 and report["bound"] == "factor_trial"
    assert elapsed < 10.0


def _dense_integer_differential(seed, ring=None):
    """Z^12 -> Z^12 in degrees 0 and 1, entries in [-50, 50], the last row
    the sum of the first two: rank 11, so the cohomology is one free rank in
    each degree plus small torsion.  The same matrix over another ring when
    ring (its JSON) is given."""
    rng = random.Random(seed)
    d = [[rng.randint(-50, 50) for _ in range(12)] for _ in range(11)]
    d.append([x + y for x, y in zip(d[0], d[1])])
    return json.dumps(
        {
            "ring": ring or {"type": "Z"},
            "degrees": [0, 1],
            "modules": [[[]] * 12] * 2,
            "differentials": [d],
        }
    )


@pytest.mark.parametrize("op", ["small", "big", "foxby", "vanish", "ass"])
def test_a_dense_twelve_by_twelve_integer_differential_answers(op):
    # the Smith forms here are 12 x 12 with entries up to 50, and over Z/p^k
    # those of the free model's 24 x 12 and 12 x 24 differentials, p^k*I
    # stacked on the matrix: transforms that grow without bound would take
    # minutes.  Z/3 runs as the other factor of Z/12.
    reports = {}
    for n in (0, 3, 4, 8, 12):
        doc = _dense_integer_differential(1, {"type": "Z/n", "n": n} if n else None)
        code, reports[n], elapsed = _timed_main(["support", op, doc])
        assert code == 0 and "error" not in reports[n]
        assert elapsed < 10.0
    if op != "vanish":
        # Z/12 = Z/4 x Z/3, so the support over Z/12 is the union of the two
        assert set(reports[12]["primes"]) == set(reports[4]["primes"]) | set(reports[3]["primes"])
    else:
        assert reports[12]["vanishes"] == (reports[4]["vanishes"] and reports[3]["vanishes"])


@pytest.mark.parametrize("op", ["small", "big", "foxby", "vanish", "ass"])
def test_the_dense_twelve_by_twelve_differential_answers_over_squarefree_moduli(op):
    reports = {}
    for n in (2, 3, 6):
        doc = _dense_integer_differential(1, {"type": "Z/n", "n": n})
        code, reports[n], elapsed = _timed_main(["support", op, doc])
        assert code == 0 and "error" not in reports[n]
        assert elapsed < 10.0
    if op != "vanish":
        # Z/6 = Z/2 x Z/3, so the support over Z/6 is the union of the two
        assert set(reports[6]["primes"]) == set(reports[2]["primes"]) | set(reports[3]["primes"])
    else:
        assert reports[6]["vanishes"] == (reports[2]["vanishes"] and reports[3]["vanishes"])


def test_an_unfactorable_modulus_keeps_its_answers_and_refusals():
    # n = 1000003 * 1000033: both factors lie past the trial-division bound,
    # and 2 is a unit mod n, so Z/n --2--> Z/n is acyclic
    doc = json.dumps(
        {
            "ring": {"type": "Z/n", "n": 1000003 * 1000033},
            "degrees": [0, 1],
            "modules": [[[]], [[]]],
            "differentials": [[[2]]],
        }
    )
    code, report, _elapsed = _timed_main(["support", "ass", doc])
    assert code == 0 and report["primes"] == []
    code, report, _elapsed = _timed_main(["support", "small", doc])
    assert code == 2 and report["bound"] == "factor_trial"


def _z12_complex(modules, differentials):
    return json.dumps(
        {
            "ring": {"type": "Z/n", "n": 12},
            "degrees": [0, len(modules) - 1],
            "modules": modules,
            "differentials": differentials,
        }
    )


@pytest.mark.parametrize(
    "doc, error",
    [
        # Z/12/(6) --1--> Z/12: 6 is zero mod 3 but not mod 4
        (_z12_complex([[[6]], [[]]], [[[1]]]), "differential not well defined at slot 0"),
        # Z/12/(4) --1--> Z/12: 4 is zero mod 4 but not mod 3
        (_z12_complex([[[4]], [[]]], [[[1]]]), "differential not well defined at slot 0"),
        # Z/12 --1--> Z/12 --4--> Z/12: d^2 = 4 is zero mod 4 but not mod 3
        (_z12_complex([[[]], [[]], [[]]], [[[1]], [[4]]]), "d^2 != 0 between slots 0 and 2"),
        # d^2 = 3 != 0 in Z/12/(4) mod 4, and slot 2 ill-defined mod 3: the
        # localization at the smaller prime 2 is built first and refuses
        (
            _z12_complex([[[]], [[]], [[4]], [[]]], [[[1]], [[3]], [[1]]]),
            "d^2 != 0 between slots 0 and 2",
        ),
    ],
    ids=["ill-defined-mod-4", "ill-defined-mod-3", "square-mod-3", "faults-at-2-and-3"],
)
def test_a_z12_complex_with_a_fault_exits_one_naming_the_slot(doc, error):
    code, report, _elapsed = _timed_main(["support", "small", doc])
    assert code == 1 and report == {"error": error}


@pytest.mark.parametrize(
    "generators",
    [[["x", 2.7]], [["x", True]], [[5, 2]], [[["x"], 2]]],
    ids=["float", "bool", "int-name", "list-name"],
)
def test_local_nilpotent_generators_must_be_named_by_strings_with_integer_exponents(generators):
    doc = {
        "ring": {"type": "local_nilpotent", "p": 2, "generators": generators},
        "degrees": [0, 0],
        "modules": [{"dim": 0, "actions": {}}],
        "differentials": [],
    }
    code, report, _elapsed = _timed_main(["support", "small", json.dumps(doc)])
    assert code == 1
    assert report == {"error": "generator names must be strings and exponents integers"}


@pytest.mark.parametrize(
    "op, module",
    [
        ("small", {"dim": 1, "actions": {}}),
        ("vanish", {"dim": 1, "actions": {}}),
        ("big", {"dim": 2000, "actions": {}}),
    ],
    ids=["small", "vanish", "big-dim-2000"],
)
def test_a_local_nilpotent_ring_without_generators_exits_one(op, module):
    # no Koszul elements to tensor with, and no action to bound a module's dim
    doc = {
        "ring": {"type": "local_nilpotent", "p": 2, "generators": []},
        "degrees": [0, 0],
        "modules": [module],
        "differentials": [],
    }
    code, report, _elapsed = _timed_main(["support", op, json.dumps(doc)])
    assert code == 1
    assert report == {"error": "a local nilpotent ring needs at least one generator"}


def _z6_over(ring):
    """Z/6 in degree 0 over the ring {"type": "Z", **ring}."""
    return json.dumps(
        {"ring": dict(ring, type="Z"), "degrees": [0, 0], "modules": [[[6]]], "differentials": []}
    )


@pytest.mark.parametrize(
    "ring", [{"at_prime": 2, "inverted": [2]}, {"at_prime": 2, "inverted": "x"}]
)
def test_at_prime_next_to_a_nonempty_or_malformed_inverted_set_exits_one(ring):
    # Z_(2)[1/2] is Q, so answering the support of Z/6 over Z_(2) would be wrong
    code, report, _elapsed = _timed_main(["support", "small", _z6_over(ring)])
    assert code == 1 and set(report) == {"error"}


@pytest.mark.parametrize(
    "ring, primes",
    [
        ({"at_prime": 2, "inverted": []}, ["(2)"]),
        ({"at_prime": 2}, ["(2)"]),
        ({"inverted": [2]}, ["(3)"]),
        ({}, ["(2)", "(3)"]),
    ],
)
def test_at_prime_or_inverted_on_its_own_is_accepted(ring, primes):
    code, report, _elapsed = _timed_main(["support", "small", _z6_over(ring)])
    assert code == 0 and report["primes"] == primes


ALL_COMMANDS = [
    ["suite"],
    ["spectral", "cbrank", CHAIN2],
    ["frames", "of", CHAIN2],
    ["support", "small", Z6_COMPLEX],
    ["axioms", "eta", "{broken json"],
    ["axioms", "supportive", "{broken json"],
]


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_fewer_than_one_sample_exits_one_before_any_work(samples, argv):
    code, report, elapsed = _timed_main(["--samples", samples, *argv])
    assert code == 1 and report == {"error": "--samples must be at least 1"}
    assert elapsed < 1.0


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_more_samples_than_the_bound_exits_two_before_any_work(argv):
    from ttsupport.battery import SAMPLES_MAX

    code, report, elapsed = _timed_main(["--samples", str(SAMPLES_MAX + 1), *argv])
    assert code == 2 and report["bound"] == "samples" and report["value"] == SAMPLES_MAX
    assert elapsed < 1.0


def test_the_sample_bound_admits_the_default_and_the_bound_itself():
    from ttsupport.battery import DEFAULT_SAMPLES, SAMPLES_MAX

    assert SAMPLES_MAX >= DEFAULT_SAMPLES
    code, report, _elapsed = _timed_main(["--samples", str(SAMPLES_MAX), "spectral", "cbrank", CHAIN2])
    assert code == 0 and report == {"rank": 2}
