"""Finite posets: construction, JSON, and isomorphism-class enumeration."""

import hashlib
import random
from itertools import permutations

import pytest

from ttsupport import poset as poset_module
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


def test_union_families_are_sorted_by_size_then_by_sorted_labels():
    # labels in every order of up to 4 points, and a seeded relabelling of
    # every poset up to 6 points: the sort key is built from the masks, the
    # reference sorts the label sets
    rng = random.Random(7)
    cases = []
    for n in range(5):
        for labels in permutations("abcd"[:n]):
            full = (1 << n) - 1
            cases += [([1 << i for i in range(n)], labels), ([full ^ 1 << i for i in range(n)], labels)]
    for n in range(1, 7):
        for order in enumerate_posets(n):
            labels = ["q%d" % i for i in range(n)]
            rng.shuffle(labels)
            cases += [(order._down, labels), (order._up, labels)]
    for masks, labels in cases:
        unions, sets = poset_module.union_family(masks, labels)
        assert set(unions) == poset_module.unions_of(masks, 2 ** len(labels) + 1)
        assert list(sets) == sorted(
            [frozenset(labels[i] for i in poset_module.bits_of(m)) for m in unions],
            key=lambda s: (len(s), sorted(s)),
        )


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


# sha256 of repr() of the (elements, up-masks) sequence of enumerate_posets(n)
# and of its canonical keys, for n = 1..6; the benchmark's pinned answers for
# the spaces rest on both
ENUMERATION_DIGESTS = {
    1: (
        "5064cf6e3527928b78d12e516a14d6fcc576e506e7697d734cbd1a0e96d8256f",
        "d3b978f925d8b9c916c1a567f6bcf7405bef6061fa4bc59e691ea53fc3e432f0",
    ),
    2: (
        "d42d72d8d50d14ab3d08d4c83fbd43294d60b46a1537daefd1a3bb86104f171e",
        "8198d85ea9149e8aa98252872d2682fc01a4674f4365420fad4225b1f8e5ca1d",
    ),
    3: (
        "ec8787144e3837fe070100a88a210a3ab40c41bbf2f9178e2dbaba914b52d383",
        "2f43d71f968d7d099b86426da5feac94cf7bc8e491e35119a13c8e3d81a36645",
    ),
    4: (
        "5bb14b001fa14d9067d801f20070959f4aeaa8f3a57b066db69d4c7b36928f54",
        "bed02889ef1890f209ddda9cfe9ef248503a93f72ec1312da41980bad10a2437",
    ),
    5: (
        "e6c9e7333d09a31b775e6d6074687f1f716c100f5c9c1dcd0c1bdf21445b25c6",
        "97921ba28e2dddcbd93c2d3f2bcfa0d322abc2390081d02a16bd97eb8aa5f4bf",
    ),
    6: (
        "4ebaabf8413add632b982b41224f7345569ef855dae739bbdf684947aafeaff4",
        "bdf0bc7aeaf70a5e1f44184e6b4b2141c6d32f240ee50dd9710be51edec997df",
    ),
}


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_enumeration_and_canonical_keys_match_their_pinned_digests():
    for n, (orders, keys) in ENUMERATION_DIGESTS.items():
        posets = enumerate_posets(n)
        assert _sha([(p.elements, p._up) for p in posets]) == orders
        assert _sha([p.canonical_key() for p in posets]) == keys


def test_a_cold_enumeration_builds_one_poset_per_class_and_resumes(monkeypatch):
    built = []
    original = FinitePoset._set_order

    def counting(self, elements, up):
        built.append(len(elements))
        return original(self, elements, up)

    monkeypatch.setattr(poset_module, "_ENUM_CACHE", {})
    monkeypatch.setattr(FinitePoset, "_set_order", counting)
    assert len(enumerate_posets(4)) == 16
    assert len(built) == 1 + 2 + 5 + 16
    # the six-point layer starts from the cached four-point one
    assert len(enumerate_posets(6)) == 318
    assert len(built) == 405 and built.count(6) == 318
