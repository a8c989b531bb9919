"""Finite posets: construction, JSON, and isomorphism-class enumeration."""

import pytest

from ttsupport.errors import InputError
from ttsupport.poset import FinitePoset, enumerate_posets


CHAIN2 = FinitePoset.from_pairs(["g", "c"], [("g", "c")])


def test_from_pairs_takes_reflexive_transitive_closure():
    p = FinitePoset.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c") and p.leq("a", "a")
    assert not p.leq("c", "a")


def test_json_round_trip():
    again = FinitePoset.from_json(CHAIN2.to_json())
    assert again == CHAIN2


def test_malformed_json_is_rejected():
    with pytest.raises(InputError):
        FinitePoset.from_json({"elements": ["a"]})
    with pytest.raises(InputError):
        FinitePoset.from_json({"elements": ["a", "a"], "leq": []})


def test_down_and_up_sets():
    assert CHAIN2.down_set("c") == {"g", "c"}
    assert CHAIN2.up_set("g") == {"g", "c"}
    assert CHAIN2.is_down_set({"g"}) and not CHAIN2.is_down_set({"c"})


def test_opposite_is_involutive():
    v = FinitePoset.from_pairs(["g", "m1", "m2"], [("g", "m1"), ("g", "m2")])
    assert v.opposite().opposite() == v
    assert v.opposite().leq("m1", "g")


def test_enumeration_matches_known_counts():
    # numbers of posets on 1..5 unlabeled points
    for n, count in [(1, 1), (2, 2), (3, 5), (4, 16), (5, 63)]:
        assert len(enumerate_posets(n)) == count


def test_enumeration_at_the_bound():
    assert len(enumerate_posets(6)) == 318


def test_enumerated_posets_are_pairwise_non_isomorphic():
    posets = enumerate_posets(3)
    for i, p in enumerate(posets):
        for q in posets[i + 1 :]:
            assert not p.is_isomorphic_to(q)


def test_isomorphism_ignores_labels():
    a = FinitePoset.from_pairs(["0", "1"], [("0", "1")])
    assert a.is_isomorphic_to(CHAIN2)
    assert not a.is_isomorphic_to(FinitePoset.from_pairs(["0", "1"], []))


def test_non_string_labels_are_rejected():
    with pytest.raises(InputError):
        FinitePoset.from_pairs([0, 1], [(0, 1)])


def test_relations_that_are_not_partial_orders_are_refused():
    loops = {("a", "a"), ("b", "b"), ("c", "c")}
    cases = [
        ({("a", "a"), ("c", "c")}, "relation is not reflexive at 'b'"),
        (loops | {("a", "b"), ("b", "a")}, "antisymmetry fails on 'a', 'b'"),
        (loops | {("a", "b"), ("b", "c")}, "transitivity fails on 'a' <= 'b' <= 'c'"),
        (loops | {("a", "z")}, "relation mentions unknown element ('a', 'z')"),
    ]
    for relation, message in cases:
        with pytest.raises(InputError) as exc:
            FinitePoset(["a", "b", "c"], relation)
        assert str(exc.value) == message
    # the mask form is validated the same way
    with pytest.raises(InputError, match="transitivity fails on 'a' <= 'b' <= 'c'"):
        FinitePoset.from_masks(["a", "b", "c"], [0b011, 0b110, 0b100])
    with pytest.raises(InputError, match="past the elements"):
        FinitePoset.from_masks(["a"], [0b11])
