"""Generated hostile poset, datum and complex JSON through the CLI: every run
prints exactly one JSON document and exits 0, 1 or 2 without an exception.
Relabelling the points of a space changes no answer about it."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from ttsupport import cli

NAMES = st.sampled_from(["a", "b", "c", "a,b", "{a}", "|", ""])
JUNK = st.one_of(
    st.integers(-2, 2), st.none(), st.booleans(), st.lists(NAMES, max_size=2), st.just({})
)
ELEMENT = st.one_of(NAMES, NAMES, NAMES, JUNK)
PAIR = st.one_of(
    st.lists(ELEMENT, min_size=2, max_size=2),
    st.lists(ELEMENT, min_size=2, max_size=2),
    st.lists(ELEMENT, max_size=3),
    ELEMENT,
)
POSET = st.one_of(
    st.fixed_dictionaries(
        {"elements": st.lists(NAMES, max_size=4, unique=True), "leq": st.lists(PAIR, max_size=4)}
    ),
    st.fixed_dictionaries(
        {"elements": st.one_of(st.lists(ELEMENT, max_size=4), JUNK), "leq": st.lists(PAIR, max_size=3)}
    ),
    st.dictionaries(st.sampled_from(["elements", "leq", "x"]), JUNK, max_size=3),
    st.lists(JUNK, max_size=2),
)
POINT_SET = st.one_of(st.lists(NAMES, max_size=3, unique=True), ELEMENT)
DATUM = st.one_of(
    st.fixed_dictionaries(
        {
            "space": POSET,
            "bousfield": POSET,
            "gamma": st.one_of(st.lists(st.one_of(st.tuples(POINT_SET, ELEMENT).map(list), PAIR), max_size=4), JUNK),
            "complements": st.one_of(st.lists(PAIR, max_size=4), JUNK),
        }
    ),
    st.dictionaries(st.sampled_from(["space", "bousfield", "gamma", "complements"]), JUNK, max_size=4),
)
BOUNDS = st.sampled_from([[], ["--max-poset", "2"], ["--max-frame", "4"]])


def _one_json_document(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    return json.loads(text)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(
        [("spectral", op) for op in ("thomason", "dual", "skula", "zset", "cbrank", "scattered")]
        + [("frames", op) for op in ("of", "primes", "assembly", "sigma", "boolean", "essential")]
    ),
    BOUNDS,
    POSET,
)
def test_generated_poset_json_gives_one_document_and_a_known_exit(command, bounds, doc):
    _one_json_document(bounds + list(command) + [json.dumps(doc)])


@settings(max_examples=200, deadline=None)
@given(BOUNDS, DATUM)
def test_generated_datum_json_gives_one_document_and_a_known_exit(bounds, doc):
    _one_json_document(bounds + ["axioms", "check", json.dumps(doc)])


HUGE = st.sampled_from([2**64, -(3**40), 10**30 + 1, 1000000007 * 1000000009])
ENTRY = st.one_of(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), HUGE)
RING = st.one_of(
    st.just({"type": "Z"}),
    st.just({"type": "Z", "inverted": [2]}),
    st.just({"type": "Z", "at_prime": 3}),
    st.fixed_dictionaries({"type": st.just("Z/n"), "n": st.one_of(st.sampled_from([2, 4, 6, 12]), ENTRY)}),
    st.just({"type": "local_nilpotent", "p": 2, "generators": [["x", 2]]}),
    JUNK,
)


@st.composite
def complexes(draw):
    """Complex JSON of up to three small modules: zero differentials (always
    valid), drawn ones (often refused), and sometimes one key made junk."""
    ring = draw(RING)
    gens = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))

    def matrix(rows, cols, zero=False):
        return [[0 if zero else draw(ENTRY) for _ in range(cols)] for _ in range(rows)]

    if isinstance(ring, dict) and ring.get("type") == "local_nilpotent":
        modules = [{"dim": g, "actions": {"x": matrix(g, g, draw(st.booleans()))}} for g in gens]
    else:
        modules = [matrix(g, draw(st.integers(0, 2))) for g in gens]
    lo = draw(st.integers(-1, 1))
    doc = {
        "ring": ring,
        "degrees": [lo, lo + len(gens) - 1],
        "modules": modules,
        "differentials": [matrix(t, s, draw(st.booleans())) for s, t in zip(gens, gens[1:])],
    }
    junk_key = draw(st.sampled_from([None, None, None, "ring", "degrees", "modules", "differentials"]))
    if junk_key:
        doc[junk_key] = draw(JUNK)
    return doc


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["small", "big", "foxby", "vanish", "ass"]), complexes())
def test_generated_complex_json_gives_one_document_and_a_known_exit(op, doc):
    _one_json_document(["support", op, json.dumps(doc)])


POINT_NAMES = ["a", "b", "c", "d", "xy", "q1", "zz"]


def _sorted_sets(sets):
    return sorted((sorted(s) for s in sets), key=lambda s: (len(s), s))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6),
            st.permutations(POINT_NAMES).map(lambda names: names[:n]),
            st.permutations(POINT_NAMES).map(lambda names: names[:n]),
            st.permutations(range(n)),
        )
    )
)
def test_relabelling_points_changes_no_answer(case):
    pairs, names, renamed, order = case
    pairs = sorted({(i, j) for i, j in pairs if i < j})  # acyclic, so a poset
    space = {"elements": names, "leq": [[names[i], names[j]] for i, j in pairs]}
    relabelled = {
        "elements": [renamed[i] for i in order],
        "leq": [[renamed[i], renamed[j]] for i, j in reversed(pairs)],
    }
    back = dict(zip(renamed, names))

    def answers(op, doc):
        return _one_json_document(["spectral", op, json.dumps(doc)])

    assert answers("cbrank", relabelled) == answers("cbrank", space)
    thomason = answers("thomason", relabelled)
    assert _sorted_sets([back[p] for p in s] for s in thomason) == answers("thomason", space)
    zsets = answers("zset", relabelled)
    assert {back[p]: sorted(back[q] for q in z) for p, z in zsets.items()} == answers("zset", space)
    assert answers("scattered", relabelled) == answers("scattered", space)
    skula = answers("skula", relabelled)
    assert _sorted_sets([back[p] for p in s] for s in skula) == answers("skula", space)
    dual = answers("dual", relabelled)
    assert {
        "elements": sorted(back[p] for p in dual["elements"]),
        "leq": sorted([back[a], back[b]] for a, b in dual["leq"]),
    } == answers("dual", space)

    def frames(op, doc):
        return _one_json_document(["frames", op, json.dumps(doc)])

    count = frames("assembly", relabelled)["count"]
    assert count == frames("assembly", space)["count"]
    primes = [len(frames("primes", frames("of", doc))["primes"]) for doc in (relabelled, space)]
    assert primes == [len(names)] * 2
    assert frames("sigma", relabelled) == frames("sigma", space) == {
        "is_isomorphism": True,
        "nuclei": 2 ** len(names),
    }
