"""Generated hostile poset and datum JSON through the CLI: every run prints
exactly one JSON document and exits 0, 1 or 2 without an exception."""

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
    json.loads(text)


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
