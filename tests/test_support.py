"""Small, big, and residue-field support, and the compatibility suite."""

import random
import time

import pytest

from ttsupport import battery, homalg, support
from ttsupport.errors import InputError
from ttsupport.homalg import (
    ChainComplex,
    IntegersLocalized,
    LnaModule,
    LocalNilpotentAlgebra,
    ModularIntegers,
    PresentedModule,
    module_complex,
    zero_complex,
)
from ttsupport.support import (
    SupportDescriptor,
    base_change_check,
    big_support,
    candidate_primes,
    crt_element,
    descriptor_from_set,
    detect_vanishing,
    foxby_support,
    localize_support_check,
    main1_property_suite,
    orthogonality_check,
    small_support,
    spec,
    torsion_functor,
    weakly_associated,
)

Z = IntegersLocalized()
Z6 = ModularIntegers(6)
Z12 = ModularIntegers(12)
LNA = LocalNilpotentAlgebra(2, (("x", 2), ("y", 3)))


def _cyclic(ring, d, deg=0):
    return module_complex(PresentedModule.cyclic(ring, d), deg)


# -- descriptors ---------------------------------------------------------------


def test_descriptor_normalization_rules():
    with pytest.raises(InputError):
        SupportDescriptor(cofinite=True, explicit=frozenset({2}))
    with pytest.raises(InputError):
        SupportDescriptor(exceptions=frozenset({2}))
    d = SupportDescriptor(generic=True, cofinite=True, exceptions=frozenset({5}))
    assert d.contains(0) and d.contains(3) and not d.contains(5)


def test_spectrum_shapes_of_the_base_rings():
    assert spec(Z6).closed_points == ("(2)", "(3)")
    assert spec(LNA).closed_points == ("m",)
    local = spec(IntegersLocalized(at_prime=2))
    assert local.has_generic and local.closed_points == ("(2)",)
    assert spec(Z).space is None and spec(Z).has_generic


# -- small support --------------------------------------------------------------


def test_small_support_of_torsion_modules():
    assert small_support(_cyclic(Z6, 0)).closed_set() == {2, 3}
    assert small_support(_cyclic(Z6, 2)).closed_set() == {2}
    assert small_support(_cyclic(Z, 6)).closed_set() == {2, 3}


def test_small_support_of_a_free_module_over_the_integers_is_everything():
    d = small_support(module_complex(PresentedModule.free(Z, 1), 0))
    assert d.generic and d.cofinite and not d.exceptions


def test_small_support_over_the_local_nilpotent_algebra():
    assert small_support(module_complex(LnaModule.free(LNA, 1), 0)).closed_set() == {"m"}
    assert small_support(zero_complex(LNA)).is_empty


def test_empty_support_detects_acyclicity():
    assert detect_vanishing(zero_complex(Z))
    assert detect_vanishing(_cyclic(Z, 1))
    assert not detect_vanishing(_cyclic(Z, 4))


def test_longer_test_sequences_agree_with_single_generators():
    for cx in (_cyclic(Z, 12), _cyclic(Z12, 4), module_complex(LnaModule.free(LNA, 1), 0)):
        assert small_support(cx, sequence_length=1) == small_support(cx, sequence_length=2)


def test_primes_outside_the_candidate_set_stay_outside_the_support():
    cx = _cyclic(Z, 12)
    cands = set(candidate_primes(cx))
    desc = small_support(cx)
    # three primes beyond anything dividing the presentation
    for q in (101, 103, 107):
        assert q not in cands
        assert not desc.contains(q)


# -- big and residue-field support ----------------------------------------------


def test_small_inside_big_with_equality_on_free_complexes():
    cx = _cyclic(Z, 12)
    assert small_support(cx).closed_set() <= big_support(cx).closed_set()
    perfect = ChainComplex(
        Z, 0, [PresentedModule.free(Z, 1), PresentedModule.free(Z, 1)], [[[4]]]
    )
    assert small_support(perfect) == big_support(perfect)


def test_residue_field_support_agrees_over_the_integers():
    for cx in (_cyclic(Z, 6), module_complex(PresentedModule.free(Z, 1), 0), _cyclic(Z, 1)):
        assert foxby_support(cx) == small_support(cx)


def test_residue_field_support_over_quotients_and_local_algebras():
    assert foxby_support(_cyclic(Z6, 2)).closed_set() == {2}
    assert foxby_support(module_complex(LnaModule.free(LNA, 1), 0)).closed_set() == {"m"}
    assert foxby_support(zero_complex(LNA)).is_empty


# -- weakly associated primes ----------------------------------------------------


def test_weakly_associated_primes_of_modules():
    assert weakly_associated(PresentedModule.cyclic(Z, 6)) == {2, 3}
    assert weakly_associated(PresentedModule.free(Z, 1)) == {0}
    assert weakly_associated(LnaModule.free(LNA, 1)) == {"m"}


def test_minimal_weakly_associated_primes_sit_inside_the_support():
    samples = [_cyclic(Z, 12), _cyclic(Z6, 2), _cyclic(Z, 0)]
    for cx in samples:
        desc = small_support(cx)
        union = set()
        for i in cx.degrees():
            union |= weakly_associated(cx.module(i))
        minimal = {0} if 0 in union else union
        assert all(desc.contains(p) for p in minimal)


def test_support_of_a_direct_sum_is_the_union():
    a, b = _cyclic(Z6, 2), _cyclic(Z6, 3, deg=1)
    total = small_support(a.direct_sum(b)).closed_set()
    assert total == small_support(a).closed_set() | small_support(b).closed_set()


# -- compatibility checks ---------------------------------------------------------


def test_inverting_primes_cuts_the_support():
    ok, before, after = localize_support_check(_cyclic(Z, 12), {2})
    assert ok
    assert before.contains(2) and not after.contains(2)
    assert after.contains(3)


def test_base_change_preserves_closed_supports():
    ok, upstairs, downstairs = base_change_check(_cyclic(Z6, 2), "Z")
    assert ok and upstairs == downstairs == {2}
    ok, _u, _d = base_change_check(_cyclic(Z6, 2), 12)
    assert ok


def test_crt_element_cuts_out_the_requested_primes():
    x = crt_element(Z6, {2})
    assert x % 2 == 0 and x % 3 == 1
    gamma = torsion_functor(module_complex(PresentedModule.free(Z6, 1), 0), {2})
    assert small_support(gamma).closed_set() == {2}


def test_property_suite_passes_on_a_mixed_instance():
    cx = _cyclic(Z12, 4).direct_sum(_cyclic(Z12, 3, deg=1))
    other = _cyclic(Z12, 2)
    results = main1_property_suite(cx, {2}, other=other, scalar=3)
    assert all(results.values()), results


def test_orthogonal_complexes_have_no_maps():
    applicable, ok, res = orthogonality_check(_cyclic(Z6, 2), _cyclic(Z6, 3), {2})
    assert applicable and ok and res.certified


def test_property_suite_rejects_integer_complexes():
    with pytest.raises(InputError):
        main1_property_suite(_cyclic(Z, 2), {2})


def test_descriptor_from_set_round_trip():
    d = descriptor_from_set({2, 7})
    assert d.closed_set() == {2, 7} and not d.generic


# -- metamorphic checks over every ring class -------------------------------------


@pytest.mark.parametrize("ring", battery.ring_classes(), ids=lambda r: r.label())
def test_supports_ignore_shifts_and_zero_summands(ring):
    for cx in battery.instances(ring, 4, battery.DEFAULT_SEED):
        for support in (small_support, big_support, foxby_support):
            expected = support(cx)
            assert all(support(cx.shift(s)) == expected for s in (-1, 2)), support
        assert small_support(cx.direct_sum(zero_complex(ring))) == small_support(cx)


@pytest.mark.parametrize("ring", battery.ring_classes(), ids=lambda r: r.label())
def test_support_of_a_direct_sum_is_the_union_over_every_ring_class(ring):
    batch = battery.instances(ring, 20, battery.DEFAULT_SEED)
    for c, d in zip(batch[:10], batch[10:]):
        total = c.direct_sum(d)
        primes = set(candidate_primes(c)) | set(candidate_primes(d)) | set(candidate_primes(total))
        for support in (small_support, big_support):
            s_c, s_d, s_total = support(c), support(d), support(total)
            assert s_total.generic == (s_c.generic or s_d.generic), support
            for q in primes:
                assert s_total.contains(q) == (s_c.contains(q) or s_d.contains(q)), (support, q)


# Seeded battery complexes over Z/n whose residue totalizations once took
# 17 s, 83 s and over 150 s in foxby_support
FOXBY_REPRODUCERS = [
    {
        "ring": {"type": "Z/n", "n": 6},
        "degrees": [-2, 0],
        "modules": [[[]], [[], [], [], []], [[], [], []]],
        "differentials": [[[10], [10], [0], [0]], [[-10, 10, 0, 0], [0, 0, 9, 3], [0, 0, 8, 8]]],
    },
    {
        "ring": {"type": "Z/n", "n": 9},
        "degrees": [-1, 1],
        "modules": [[[], [], [], []], [[], [], [], [], [], []], [[], []]],
        "differentials": [
            [[1, 10, 0, 0], [-4, -3, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -10, -9], [0, 0, 10, 4]],
            [[1, 0, -1, -10, 0, 0], [0, 1, 4, 3, 0, 0]],
        ],
    },
    {
        "ring": {"type": "Z/n", "n": 12},
        "degrees": [-2, 0],
        "modules": [[[], [], [], []], [[], [], [], [], [], []], [[], []]],
        "differentials": [
            [[-7, 6, 0, 0], [7, 7, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 8, 4], [0, 0, 4, 10]],
            [[1, 0, 7, -6, 0, 0], [0, 1, -7, -7, 0, 0]],
        ],
    },
]


@pytest.mark.parametrize("doc", FOXBY_REPRODUCERS, ids=["z6", "z9", "z12"])
def test_foxby_support_over_z_mod_n_is_quick_and_equals_small_support(doc):
    cx = ChainComplex.from_json(doc)
    start = time.perf_counter()
    foxby = foxby_support(cx)
    assert time.perf_counter() - start < 1.0
    assert foxby == small_support(cx)


# -- what each complex computes once -----------------------------------------------


@pytest.mark.parametrize("ring", battery.ring_classes(), ids=lambda r: r.label())
def test_a_second_query_on_the_same_complex_takes_no_smith_form(ring, smith_forms):
    def answers(cx):
        supports = [small_support(cx), big_support(cx), foxby_support(cx)]
        return supports + [cx.cohomology(i) for i in cx.degrees()]

    for cx in battery.instances(ring, 6, battery.DEFAULT_SEED):
        first = answers(cx)
        del smith_forms[:]
        again = answers(cx)
        assert detect_vanishing(cx) == first[0].is_empty
        assert all(a is b for a, b in zip(again, first)) and smith_forms == []


@pytest.mark.parametrize("ring", battery.ring_classes(), ids=lambda r: r.label())
def test_a_longer_test_sequence_is_answered_apart_and_agrees(ring):
    for cx in battery.instances(ring, 6, battery.DEFAULT_SEED):
        default = small_support(cx)
        assert small_support(cx, sequence_length=2) == default
        assert small_support(cx) is default


# Smith forms taken by the seed-42 batch below, counted when the free model
# began to read its bases and lifts off each module's one relation form; 349
# before that, when cohomology over Z, its localizations and Z/p^k began to
# be read off the Smith diagonals of the free model built once per complex;
# 602 before that, when the residue
# test began to take F_p ranks of that free model; 1,069 before that, when
# complexes over Z/n with two or more primes began to be computed through
# their localizations Z/p^k alone; 1,221 before that, when modules over Z/n
# with n squarefree began to take F_p ranks instead; 1,668 before that, when
# the residue test began to run on Z/n complexes directly and the Koszul step
# at a nilpotent to return C itself; 2,203 before that, and 3,870 before each
# module's relation form and each complex's cohomology, localizations and
# supports were computed once
BATCH_SMITH_FORMS = 224
# Of those, the forms computed: the others are read back from the forms that
# smith_normal_form keeps, mostly a localization's over Z of its parent's
# differentials; 224 before the free model stopped solving its lifts
BATCH_SMITH_COMPUTED = 155


# Reductions mod p, each a certified F_p rank, taken by the same batch,
# counted when each complex over a prime field began to keep its ranks
# rank_p[d_i | R_(i+1)], which both H^i and H^(i+1) read, and cones began to
# be certified by their chain-map blocks; 588 before that
BATCH_FP_RANKS = 511


def _answer_the_seeded_batch():
    for ring in battery.ring_classes():
        for cx in battery.instances(ring, 10, battery.DEFAULT_SEED):
            cx.cohomology_all()
            small_support(cx), big_support(cx), foxby_support(cx), detect_vanishing(cx)


def test_the_supports_of_a_seeded_batch_take_a_bounded_number_of_smith_forms(
    smith_forms, computed_smith_forms
):
    _answer_the_seeded_batch()
    assert len(smith_forms) <= BATCH_SMITH_FORMS
    assert len(computed_smith_forms) <= BATCH_SMITH_COMPUTED


def test_the_supports_of_a_seeded_batch_take_a_bounded_number_of_fp_ranks(fp_ranks):
    _answer_the_seeded_batch()
    assert len(fp_ranks) <= BATCH_FP_RANKS


def test_small_support_on_a_dense_integer_differential_computes_one_smith_form(
    computed_smith_forms,
):
    # Z^20 -> Z^20, entries in [-50, 50], the last row the sum of the first
    # two: rank 19.  Every localization at a candidate prime has the same
    # differential, so its free model's delta is the parent's
    rng = random.Random(1)
    d = [[rng.randint(-50, 50) for _ in range(20)] for _ in range(19)]
    d.append([x + y for x, y in zip(d[0], d[1])])
    doc = {"ring": {"type": "Z"}, "degrees": [0, 1], "modules": [[[]] * 20] * 2}
    cx = ChainComplex.from_json({**doc, "differentials": [d]})
    start = time.perf_counter()
    assert small_support(cx) == SupportDescriptor(generic=True, cofinite=True)
    assert time.perf_counter() - start < 1.0
    assert len(computed_smith_forms) == 1


@pytest.mark.parametrize("ring", battery.ring_classes(), ids=lambda r: r.label())
def test_foxby_support_equals_small_support_on_the_battery_pool(ring):
    # every ring here is Noetherian
    for cx in battery.instances(ring, battery.DEFAULT_SAMPLES, battery.DEFAULT_SEED):
        assert foxby_support(cx) == small_support(cx)


@pytest.mark.parametrize("ring", [Z6, Z12], ids=lambda r: r.label())
def test_foxby_support_over_z_mod_n_restricts_nothing_to_the_integers(ring, monkeypatch):
    restricted = []
    monkeypatch.setattr(homalg, "restrict_to_integers", restricted.append)
    monkeypatch.setattr(support, "restrict_to_integers", restricted.append)
    for cx in battery.instances(ring, 10, battery.DEFAULT_SEED):
        foxby_support(cx)
    assert restricted == []


@pytest.mark.parametrize("ring", [Z6, Z12], ids=lambda r: r.label())
def test_foxby_support_over_z_mod_n_models_its_localizations_alone(ring, monkeypatch):
    # the parts of Z/n at the primes q != p vanish after ⊗^L F_p, so the
    # free model is built over Z/p^k alone
    rings = []
    build = homalg._free_model

    def counting(cx):
        rings.append(cx.ring)
        return build(cx)

    pool = battery.instances(ring, 10, battery.DEFAULT_SEED)
    small = [small_support(cx) for cx in pool]
    monkeypatch.setattr(homalg, "_free_model", counting)
    assert [foxby_support(cx) for cx in pool] == small
    assert rings and {r.n for r in rings} == {ring.residue_modulus(p) for p in (2, 3)}
