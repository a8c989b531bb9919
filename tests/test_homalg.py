"""Rings, presented modules, complexes, and the homological operations."""

import hashlib
import inspect
import json
import random
import re
import time

import pytest

from ttsupport import battery, homalg, smith, support
from ttsupport.errors import InputError, ResourceLimitError
from ttsupport.homalg import (
    ChainComplex,
    IntegersLocalized,
    LnaModule,
    LocalNilpotentAlgebra,
    ModularIntegers,
    PresentedModule,
    canonical_module,
    cone,
    derived_tensor_residue,
    hom_complex_h0,
    identity_blocks,
    koszul_stable,
    localize,
    localize_by_element,
    module_complex,
    restrict_modulus,
    restrict_to_integers,
    ring_from_json,
    zero_complex,
)
from ttsupport.support import (
    candidate_primes,
    foxby_support,
    localization_functor,
    localize_support_check,
    small_support,
    torsion_functor,
)
from ttsupport.values import Immutable

Z = IntegersLocalized()
Z4 = ModularIntegers(4)
Z6 = ModularIntegers(6)
Z12 = ModularIntegers(12)
LNA = LocalNilpotentAlgebra(2, (("x", 2), ("y", 3)))


def _free_complex(ring, mats, min_deg=0):
    mods = [PresentedModule.free(ring, len(mats[0][0]))]
    for m in mats:
        mods.append(PresentedModule.free(ring, len(m)))
    return ChainComplex(ring, min_deg, mods, mats)


# -- rings -------------------------------------------------------------------


def test_ring_json_round_trip():
    for ring in (Z, Z6, LNA, IntegersLocalized(at_prime=3), IntegersLocalized(inverted={2})):
        assert ring_from_json(ring.to_json()) == ring


def test_an_empty_inverted_list_next_to_at_prime_is_the_local_ring():
    ring = IntegersLocalized(at_prime=2, inverted=[])
    assert ring == IntegersLocalized(at_prime=2) and hash(ring) == hash(IntegersLocalized(at_prime=2))


def test_z_mod_n_factors_once_and_keeps_one_ring_per_prime(monkeypatch):
    calls = []
    take = homalg.factorize
    monkeypatch.setattr(homalg, "factorize", lambda n: calls.append(n) or take(n))
    ring = ModularIntegers(12)
    assert ring.localized_at(2) is ring.localized_at(2) == ModularIntegers(4)
    assert ring.prime_divisors() == (2, 3) and ring.residue_modulus(3) == 3
    assert ring.coprime_part(2) == 3 and ring.crt_primes == (2, 3)
    assert calls == [12]


def test_z_mod_n_refuses_every_question_that_needs_an_unfactorable_modulus():
    # both prime factors lie past smith.FACTOR_TRIAL_MAX
    ring = ModularIntegers(1000000007 * 1000000009)
    assert ring.crt_primes is None and ring.field_prime is None
    for ask in (
        ring.prime_divisors,
        lambda: ring.residue_modulus(2),
        lambda: ring.coprime_part(2),
        lambda: ring.localized_at(2),
    ):
        with pytest.raises(ResourceLimitError) as info:
            ask()
        assert info.value.bound_name == "factor_trial"


def test_unit_detection():
    assert IntegersLocalized(inverted={2}).is_unit(4)
    assert not IntegersLocalized(inverted={2}).is_unit(6)
    assert Z6.is_unit(5) and not Z6.is_unit(2)
    assert LNA.element_is_unit(1) and not LNA.element_is_unit("x")


def test_invalid_rings_are_rejected():
    with pytest.raises(InputError):
        ModularIntegers(1)
    with pytest.raises(InputError):
        LocalNilpotentAlgebra(4, (("x", 2),))
    with pytest.raises(InputError):
        IntegersLocalized(inverted={4})


# -- modules -----------------------------------------------------------------


def test_canonical_form_of_presented_modules():
    m = PresentedModule(Z, 2, [[2, 0], [0, 3]])
    c = m.canonical()
    assert c.rank == 0 and sorted(c.factors) == [6] or sorted(c.factors) == [2, 3]
    free = PresentedModule.free(Z, 3).canonical()
    assert free.rank == 3 and free.factors == ()


def test_modulus_folds_into_the_presentation():
    m = PresentedModule.free(Z6, 1)
    c = m.canonical()
    assert c.factors == (6,) and c.rank == 0


def test_unit_primes_are_stripped_from_invariant_factors():
    half = IntegersLocalized(inverted={2})
    m = PresentedModule.cyclic(half, 12)
    assert m.canonical().factors == (3,)


def test_lna_modules_validate_commuting_nilpotent_actions():
    free = LnaModule.free(LNA, 1)
    assert free.dim == LNA.dim
    bad = [[0] * LNA.dim for _ in range(LNA.dim)]
    bad[0][0] = 1  # does not commute with the generator actions
    with pytest.raises(InputError):
        LnaModule(LNA, LNA.dim, {"x": bad, "y": free.actions["y"]})


def test_lna_elements_are_a_constant_a_generator_name_or_a_vector_over_the_monomials():
    # the monomial basis is lexicographic, so the constant term comes first
    assert LNA.element_is_unit([1, 0, 0, 0, 0, 0]) and LNA.element_is_unit([3, 1, 0, 1, 0, 1])
    assert not LNA.element_is_unit([0, 1, 1, 1, 1, 1]) and not LNA.element_is_unit([2, 0, 0, 0, 0, 0])
    with pytest.raises(InputError, match="^unknown generator 'z'$"):
        LNA.element_is_unit("z")
    with pytest.raises(InputError, match="^element vector has the wrong length$"):
        LNA.element_is_unit([1, 0])


# One row per clause of _validate, on complexes over F_2[x,y]/(x^2,y^3): the
# line that holds the clause, and a complex that a copy without it accepts
# and the real check refuses, with the refusal.  k -> R sends 1 to the unit,
# which x kills in k but not in R; R --y--> R --y--> R has d^2 = y^2
LNA_K = LnaModule(LNA, 1, {"x": [[0]], "y": [[0]]})
LNA_R = LnaModule.free(LNA, 1)
VALIDATE_CLAUSES = {
    "well defined": (
        "raise InputError(tgt._MAP_ERROR % k)",
        [LNA_K, LNA_R],
        [[[1]] + [[0]] * 5],
        "differential is not module-linear at slot 0",
    ),
    "d^2 = 0": (
        'raise InputError("d^2 != 0',
        [LNA_R] * 3,
        [LNA.multiplication_matrix("y")] * 2,
        "d^2 != 0 between slots 0 and 2",
    ),
}


@pytest.mark.parametrize("clause", list(VALIDATE_CLAUSES))
def test_each_clause_of_complex_validation_refuses_what_the_copy_without_it_accepts(
    clause, weakened, monkeypatch
):
    line, modules, differentials, refusal = VALIDATE_CLAUSES[clause]
    with pytest.raises(InputError, match="^%s$" % re.escape(refusal)):
        ChainComplex(LNA, 0, modules, differentials)
    monkeypatch.setattr(homalg, "_validate", weakened(homalg._validate, line))
    assert ChainComplex(LNA, 0, modules, differentials).modules == tuple(modules)


def _shift(dim):
    """The nilpotent Jordan block of size dim: its dim-th power is the first
    that vanishes."""
    return [[1 if r == c + 1 else 0 for c in range(dim)] for r in range(dim)]


@pytest.mark.parametrize("e", [2, 3, 5])
def test_lna_modules_refuse_exactly_the_actions_whose_e_th_power_is_nonzero(e):
    ring = LocalNilpotentAlgebra(3, (("x", e),))
    # the Jordan block of size e has a^(e-1) != 0 and a^e = 0
    assert LnaModule(ring, e, {"x": _shift(e)}).dim == e
    # one size up, a^e != 0
    with pytest.raises(InputError, match="^action violates the nilpotency exponent of x$"):
        LnaModule(ring, e + 1, {"x": _shift(e + 1)})


def test_a_huge_nilpotency_exponent_is_checked_within_a_second():
    # a nilpotent 1 x 1 action is zero, so a^1 decides, not a^(10^9)
    ring = LocalNilpotentAlgebra(2, (("x", 10**9),))
    start = time.perf_counter()
    assert LnaModule(ring, 1, {"x": [[0]]}).dim == 1
    with pytest.raises(InputError, match="^action violates the nilpotency exponent of x$"):
        LnaModule(ring, 1, {"x": [[1]]})
    assert time.perf_counter() - start < 1.0


# -- complexes and cohomology -------------------------------------------------


def test_differential_square_zero_is_enforced():
    with pytest.raises(InputError):
        _free_complex(Z, [[[1]], [[1]]])


Z6_ZERO = PresentedModule(Z6, 0, [])
Z6_Z3 = PresentedModule(Z6, 1, [[3]])  # Z/3 as a Z/6-module


def _z6_two_slot_complex(d0):
    """0 -> (Z/6)^2 -> Z/6 -> Z/3 in degrees 0..3, with d1 = [[1]]."""
    mods = [Z6_ZERO, PresentedModule.free(Z6, 2), PresentedModule.free(Z6, 1), Z6_Z3]
    return ChainComplex(Z6, 0, mods, [[], d0, [[1]]])


def test_ill_defined_differential_is_caught_past_the_first_column():
    # source relations (0,3) and (2,0): the first maps into 3Z, the second
    # to 2, which is not a relation of Z/3
    src = PresentedModule(Z6, 2, [[0, 2], [3, 0]])
    with pytest.raises(InputError, match="^differential not well defined at slot 1$"):
        ChainComplex(Z6, 0, [Z6_ZERO, src, Z6_Z3], [[], [[1, 1]]])
    ChainComplex(Z6, 0, [Z6_ZERO, src, Z6_Z3], [[], [[3, 1]]])


def test_nonzero_square_is_caught_past_the_first_column():
    # d1 d0 = [[3, 1]]: the first column is zero in Z/3, the second is not
    with pytest.raises(InputError, match="^d\\^2 != 0 between slots 1 and 3$"):
        _z6_two_slot_complex([[3, 1]])
    _z6_two_slot_complex([[3, 3]])


def test_integer_cohomology_takes_three_smith_forms(smith_forms):
    # Z --(3,-3)--> Z^2 --(2 2)--> Z: H^1 = ker / im = Z(1,-1) / 3Z(1,-1)
    cx = _free_complex(Z, [[[3], [-3]], [[2, 2]]])
    del smith_forms[:]
    h = cx.cohomology(1)
    assert (h.factors, h.rank) == ((3,), 0)
    # the kernel, the kernel lattice with the image coordinates, and K/L
    assert len(smith_forms) <= 3


def test_validation_takes_one_relation_form_per_target_module(smith_forms, monkeypatch):
    tested = []
    kills = PresentedModule._kills

    def counting_columns(module, vecs):
        tested.extend(module.ring.n for v in vecs if any(v))
        return kills(module, vecs)

    monkeypatch.setattr(PresentedModule, "_kills", counting_columns)
    # fresh modules, so no relation form is cached before the count starts
    mods = [PresentedModule(Z6, 0, []), PresentedModule.free(Z6, 2), PresentedModule.free(Z6, 1)]
    mods.append(PresentedModule(Z6, 1, [[3]]))
    ChainComplex(Z6, 0, mods, [[], [[3, 3]], [[1]]])
    # Z/6 = Z/2 x Z/3 is validated in its two localizations and nowhere
    # else: in each, slots 1 and 2 are checked for well-definedness and
    # (1, 3) for d^2 = 0, five nonzero columns in all
    assert sorted(tested) == [2] * 5 + [3] * 5
    # against at most one relation form per nonzero target module and
    # prime, its rank mod p, kept on its localization (a column that
    # vanishes mod p needs none); no Smith form is taken, and the Z/6
    # modules hold no form at all
    formed = {(k, p) for k, m in enumerate(mods) for p in (2, 3) if m.localized(p)._cache}
    assert formed <= {(k, p) for k in (2, 3) for p in (2, 3)}
    assert all(m._cache.keys() == {("localized", 2), ("localized", 3)} for m in mods)
    assert smith_forms == []


@pytest.mark.parametrize(
    "obj, field",
    [
        (PresentedModule.cyclic(Z, 2), "rel"),
        (PresentedModule.cyclic(Z, 2), "ngens"),
        (LnaModule.free(LNA, 1), "actions"),
        (_free_complex(Z, [[[2]]]), "differentials"),
        (_free_complex(Z, [[[2]]]), "min_deg"),
    ],
    ids=["rel", "ngens", "actions", "differentials", "min_deg"],
)
def test_modules_and_complexes_refuse_reassignment(obj, field):
    assert isinstance(obj, Immutable)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError, match="immutable"):
        delattr(obj, field)


def test_handed_out_matrices_cannot_change_cached_answers():
    cx = ChainComplex(Z, 0, [PresentedModule.free(Z, 1), PresentedModule.cyclic(Z, 6)], [[[2]]])
    h1 = cx.cohomology(1)
    assert h1.factors == (2,)
    with pytest.raises(TypeError):
        cx.differential(0)[0][0] = 1
    with pytest.raises(TypeError):
        cx.module(1).rel[0][0] = 1
    doc = cx.to_json()
    doc["differentials"][0][0][0] = 1
    doc["modules"][1][0][0] = 1
    lna = LnaModule.free(LNA, 1)
    with pytest.raises(TypeError):
        lna.actions["x"] = lna.actions["y"]
    lna.to_json()["actions"]["x"][1][0] = 0
    assert cx.differential(0) == ((2,),) and cx.module(1).rel == ((6,),)
    assert lna.to_json() == LnaModule.free(LNA, 1).to_json()
    assert cx.cohomology(1) is h1 and h1.factors == (2,)
    k = koszul_stable(2, cx)
    first = k.cohomology_all()
    with pytest.raises(AttributeError):
        k.h.clear()
    with pytest.raises(TypeError):
        k.h[1] = canonical_module(Z, [], 0)
    assert not k.is_acyclic() and k.cohomology_all() == first
    assert repr(k) == "SymbolicComplex(Z, %r)" % first


def test_cohomology_of_multiplication_by_two_on_the_integers():
    cx = _free_complex(Z, [[[2]]])
    assert cx.cohomology(0).is_zero
    h1 = cx.cohomology(1)
    assert h1.factors == (2,) and h1.rank == 0


def test_koszul_style_complex_over_the_integers():
    # Z -> Z^2 -> Z with maps (2,4) and (-4,2); gcd 2 survives in H^1, H^2
    cx = ChainComplex(
        Z,
        0,
        [PresentedModule.free(Z, 1), PresentedModule.free(Z, 2), PresentedModule.free(Z, 1)],
        [[[2], [4]], [[-4, 2]]],
    )
    assert cx.cohomology(0).is_zero
    assert cx.cohomology(1).factors == (2,)
    assert cx.cohomology(2).factors == (2,)
    # coprime coefficients give an exact complex away from the ends
    exact = ChainComplex(
        Z,
        0,
        [PresentedModule.free(Z, 1), PresentedModule.free(Z, 2), PresentedModule.free(Z, 1)],
        [[[2], [3]], [[-3, 2]]],
    )
    assert exact.cohomology(1).is_zero and exact.cohomology(2).is_zero


def test_cohomology_respects_direct_sums():
    a = _free_complex(Z, [[[2]]])
    b = module_complex(PresentedModule.cyclic(Z, 3), 1)
    both = a.direct_sum(b)
    h1 = both.cohomology(1)
    assert sorted(h1.factors) in ([6], [2, 3])


def test_a_zero_summand_leaves_the_other_module_itself():
    for m, zero in (
        (PresentedModule.cyclic(Z6, 2), Z6.zero_module()),
        (LnaModule.free(LNA, 1), LNA.zero_module()),
    ):
        assert m.direct_sum(zero) is m and zero.direct_sum(m) is m


def test_cone_over_the_identity_is_acyclic():
    for cx in (
        _free_complex(Z, [[[2]]]),
        _free_complex(Z6, [[[2]]]),
        module_complex(LnaModule.free(LNA, 1), 0),
    ):
        assert cone(identity_blocks(cx), cx, cx).is_acyclic()


# -- cones certified by their chain-map blocks ---------------------------------


Z_SQUARED = module_complex(PresentedModule.free(Z, 2), 0)


@pytest.mark.parametrize(
    "blocks, message",
    [
        ({0: [[1]]}, "chain map block at degree 0 must be 2 x 2"),
        ({0: [[1, 0, 0], [0, 1, 0]]}, "chain map block at degree 0 must be 2 x 2"),
        ({0: [[1, 0], [0, 1], [0, 0]]}, "chain map block at degree 0 must be 2 x 2"),
        ({0: []}, "chain map block at degree 0 must be 2 x 2"),
        ({1: [[1]]}, "chain map block at degree 1 must be 0 x 0"),
        ({5: [[1, 0], [0, 1]]}, "chain map block at degree 5 is outside the cone"),
        ({-1: []}, "chain map block at degree -1 is outside the cone"),
        (
            {0: [[1, 0], [0, 0.5]]},
            "each row of chain map block at degree 0 must be a list of integers",
        ),
    ],
    ids=[
        "too-small",
        "too-wide",
        "too-tall",
        "empty",
        "into-zero",
        "past-the-top",
        "below",
        "non-integer",
    ],
)
def test_cone_refuses_a_misshaped_chain_map_block_naming_its_degree(blocks, message):
    with pytest.raises(InputError, match="^%s$" % message):
        cone(blocks, Z_SQUARED, Z_SQUARED)


def test_cone_reads_an_empty_block_as_zero_next_to_a_module_without_generators():
    cx = module_complex(PresentedModule.cyclic(Z, 2), 0)
    empty = zero_complex(Z, 0)
    assert cone({0: []}, cx, empty).cohomology(0).factors == (2,)
    assert cone({0: [[]]}, empty, cx).cohomology(1).factors == (2,)


def _skipping_the_prime_two(monkeypatch):
    check = homalg._is_chain_map
    monkeypatch.setattr(
        homalg,
        "_is_chain_map",
        lambda blocks, src, tgt, lo, hi: src.ring.n == 2 or check(blocks, src, tgt, lo, hi),
    )


# One row per clause of the cone's certificate: the copy without the clause,
# and the smallest cone that copy accepts and the certificate refuses, with
# the message of the literal validation that refuses it
CONE_CLAUSES = {
    "f carries relations into relations": (
        lambda mp: mp.setattr(homalg, "_carries_relations", lambda *args: True),
        # Z/2 -> Z in degree 0, f = 1: 1 is not a relation of Z
        lambda: (
            {0: [[1]]},
            module_complex(PresentedModule.cyclic(Z, 2), 0),
            module_complex(PresentedModule.free(Z, 1), 0),
        ),
        "differential not well defined at slot 0",
    ),
    "f d - d f vanishes": (
        lambda mp: mp.setattr(homalg, "_commutes", lambda *args: True),
        # f = (1, 0) on Z --2--> Z in degrees 0 and 1: f_1 d - d f_0 = -2
        lambda: ({0: [[1]], 1: [[0]]}, _free_complex(Z, [[[2]]]), _free_complex(Z, [[[2]]])),
        "d^2 != 0 between slots 0 and 2",
    ),
    "both checks at every p | n": (
        _skipping_the_prime_two,
        # f = (1, 0) on Z/6 --3--> Z/6: f_1 d - d f_0 = -3, zero at 3 only
        lambda: ({0: [[1]], 1: [[0]]}, _free_complex(Z6, [[[3]]]), _free_complex(Z6, [[[3]]])),
        "d^2 != 0 between slots 0 and 2",
    ),
}


@pytest.mark.parametrize("clause", list(CONE_CLAUSES))
def test_each_clause_of_the_cone_certificate_refuses_what_the_copy_without_it_accepts(
    clause, monkeypatch
):
    weaken, instance, message = CONE_CLAUSES[clause]
    with pytest.raises(InputError, match="^%s$" % re.escape(message)):
        cone(*instance())
    weaken(monkeypatch)
    accepted = cone(*instance())
    with pytest.raises(InputError, match="^%s$" % re.escape(message)):
        _literal_rebuild(accepted)


def test_a_z_mod_6_map_that_is_a_chain_map_at_three_alone_has_a_cone_there_alone():
    blocks, src, tgt = CONE_CLAUSES["both checks at every p | n"][1]()
    at_three = cone(blocks, localize(src, 3), localize(tgt, 3))
    assert _literal_rebuild(at_three).differentials == at_three.differentials
    with pytest.raises(InputError, match="^d\\^2 != 0 between slots 0 and 2$"):
        cone(blocks, localize(src, 2), localize(tgt, 2))


def _literal_rebuild(cx):
    """cx rebuilt through the public constructors, which validate every
    module and the whole differential literally."""
    if isinstance(cx.ring, LocalNilpotentAlgebra):
        mods = [LnaModule(m.ring, m.dim, dict(m.actions)) for m in cx.modules]
    else:
        mods = [PresentedModule(m.ring, m.ngens, m.rel) for m in cx.modules]
    return ChainComplex(cx.ring, cx.min_deg, mods, cx.differentials)


def _assert_the_literal_validation_passes(complexes):
    """Each complex, assembled from valid parts without validation, passes
    the literal validation and keeps the localizations the literal route
    builds."""
    assert complexes
    # the literal route assembles localizations too: check the ones given
    for cx in list(complexes):
        rebuilt = _literal_rebuild(cx)
        assert rebuilt.differentials == cx.differentials
        for p in cx.ring.crt_primes or ():
            mine, theirs = localize(cx, p), localize(rebuilt, p)
            assert mine.ring == theirs.ring and mine.differentials == theirs.differentials
            assert [m.rel for m in mine.modules] == [m.rel for m in theirs.modules]


def _recording_assembled(monkeypatch, cls):
    """A list of every cls instance assembled while the test runs."""
    built = []
    assemble = cls._assembled.__func__

    def recording(cls, **fields):
        built.append(assemble(cls, **fields))
        return built[-1]

    monkeypatch.setattr(cls, "_assembled", classmethod(recording))
    return built


@pytest.fixture
def assembled(monkeypatch):
    """Every complex assembled while the test runs: shifts, direct sums,
    certified cones, localizations and ring changes."""
    return _recording_assembled(monkeypatch, ChainComplex)


def test_every_cone_of_the_property_suite_passes_the_literal_validation(assembled):
    pool = [
        (ring, battery.instances(ring, battery.DEFAULT_SAMPLES, battery.DEFAULT_SEED))
        for ring in (Z6, Z12)
    ]
    assert battery.criterion_property_suite(pool)["passed"]
    _assert_the_literal_validation_passes(assembled)


def test_every_koszul_and_battery_piece_cone_passes_the_literal_validation(assembled):
    for ring in battery.ring_classes():
        pool = battery.instances(ring, battery.DEFAULT_SAMPLES, battery.DEFAULT_SEED)
        if isinstance(ring, ModularIntegers):
            for cx in pool:
                small_support(cx)
                for p in ring.prime_divisors():
                    koszul_stable(p, cx)
    _assert_the_literal_validation_passes(assembled)


def test_every_pool_sum_shift_localization_and_ring_change_passes_the_literal_validation(
    assembled,
):
    for ring in battery.ring_classes():
        pool = battery.instances(ring, battery.DEFAULT_SAMPLES, battery.DEFAULT_SEED)
        for k, cx in enumerate(pool):
            cx.shift(1)
            for p in candidate_primes(cx):
                localize(cx, p)
            if isinstance(ring, ModularIntegers):
                for x in (1, *ring.prime_divisors()):
                    localize_by_element(cx, x)
                restrict_to_integers(cx)
                restrict_modulus(cx, 6 * ring.n)
            elif ring == Z and k < 10:
                localize_support_check(cx, {2, 3})
    _assert_the_literal_validation_passes(assembled)


def test_over_ring_refuses_the_move_that_a_copy_without_its_precondition_makes_invalid():
    # Z/4 --2--> Z/4 --2--> Z/4 moved to Z with kill 0 drops the relations
    # 4·I, under which d^2 = 4 vanished
    cx = _free_complex(Z4, [[[2]], [[2]]])
    with pytest.raises(AssertionError, match="^over_ring would drop relations$"):
        homalg.over_ring(cx, Z)
    # the copy without the precondition: over_ring compiled as python -O
    # compiles it, with its assert stripped
    source = inspect.getsource(homalg.over_ring)
    namespace = dict(vars(homalg))
    exec(compile(source, homalg.__file__, "exec", optimize=1), namespace)
    accepted = namespace["over_ring"](cx, Z)
    with pytest.raises(InputError, match="^d\\^2 != 0 between slots 0 and 2$"):
        _literal_rebuild(accepted)


def test_shift_moves_cohomology():
    cx = module_complex(PresentedModule.cyclic(Z, 5), 0)
    assert cx.shift(2).cohomology(-2).factors == (5,)


def test_complex_json_round_trip():
    cx = _free_complex(Z6, [[[2]]], min_deg=-1)
    again = ChainComplex.from_json(cx.to_json())
    assert again.min_deg == cx.min_deg
    assert all(
        again.cohomology(i).factors == cx.cohomology(i).factors for i in cx.degrees()
    )


@pytest.mark.parametrize(
    "ring, modules, differentials",
    [
        ({"type": "local_nilpotent", "generators": [["x", 2]]}, [[[]]], []),
        ({"type": "local_nilpotent", "p": 2, "generators": [["x", "two"]]}, [[[]]], []),
        ({"type": "Z", "inverted": [[2]]}, [[[]]], []),
        ({"type": "Z/n", "n": 6}, [[[True]]], []),
        (
            LNA.to_json(),
            [LnaModule.free(LNA, 1).to_json()] * 2,
            [[[1] * 7] * 6],  # 6 x 7 where 6 x 6 is needed
        ),
    ],
)
def test_complex_json_rejects_malformed_fields(ring, modules, differentials):
    obj = {"ring": ring, "degrees": [0, len(modules) - 1], "modules": modules}
    with pytest.raises(InputError):
        ChainComplex.from_json(dict(obj, differentials=differentials))


@pytest.mark.parametrize(
    "ring, rel, differentials, message",
    [
        # d0 = 1 from Z/2 is well defined at 2 alone, d1 d0 = 3 vanishes at 3
        # alone: the fault at the smaller prime is named
        (Z6, [[2]], [[[1]], [[3]]], "d^2 != 0 between slots 0 and 2"),
        # a map fault at slot 0 comes before a shape fault at slot 1
        (Z, [[2]], [[[1]], [[1, 1]]], "differential not well defined at slot 0"),
    ],
    ids=["smaller-prime-first", "slot-order"],
)
def test_a_complex_with_two_faults_is_refused_with_the_first(ring, rel, differentials, message):
    free = PresentedModule.free(ring, 1)
    mods = [PresentedModule(ring, 1, rel), free, free]
    with pytest.raises(InputError, match="^%s$" % re.escape(message)):
        ChainComplex(ring, 0, mods, differentials)


Z2_ONE = PresentedModule.free(Z, 1)
LNA_X = LocalNilpotentAlgebra(2, (("x", 2),))


@pytest.mark.parametrize(
    "build",
    [
        lambda: PresentedModule(Z6, 1, [[2.7]]),
        lambda: ChainComplex(Z, 0, [Z2_ONE, Z2_ONE], [[[1.9]]]),
        lambda: ChainComplex(Z, 0, [Z2_ONE, Z2_ONE], [[[True]]]),
        lambda: LnaModule(LNA_X, 1, {"x": [[2.7]]}),
        lambda: LnaModule(LNA_X, 1, {"x": [[True]]}),
    ],
    ids=["module-2.7", "differential-1.9", "differential-True", "action-2.7", "action-True"],
)
def test_constructors_refuse_entries_that_are_not_integers(build):
    with pytest.raises(InputError, match="must be a list of integers"):
        build()


class _Row(list):
    pass


@pytest.mark.parametrize(
    "rel, message",
    [
        ("12", "complex key 'modules' must be a list of rows of integers"),
        ([[1], "2"], "each row of complex key 'modules' must be a list of integers"),
        ([[1], (2, None)], "each row of complex key 'modules' must be a list of integers"),
        ([(1,), [2.0]], "each row of complex key 'modules' must be a list of integers"),
    ],
    ids=["string", "string-row", "none-entry", "float-entry"],
)
def test_presentations_are_refused_with_the_message_that_names_the_fault(rel, message):
    with pytest.raises(InputError) as info:
        PresentedModule(Z, 2, rel)
    assert str(info.value) == message


def test_presentations_from_lists_tuples_and_list_subclasses_are_row_tuples():
    for rel in ([[1], [2]], ((1,), (2,)), [_Row([1]), (2,)], _Row([[1], [2]])):
        assert PresentedModule(Z, 2, rel).rel == ((1,), (2,))


def test_empty_differential_stands_for_zero_only_next_to_a_zero_module():
    zero = PresentedModule(Z6, 0, [])
    one = PresentedModule.free(Z6, 1)
    assert ChainComplex(Z6, 0, [zero, one], [[]]).differentials == (((),),)
    assert ChainComplex(Z6, 0, [one, zero], [[]]).differentials == ((),)
    with pytest.raises(InputError, match="^differential shape mismatch at slot 0$"):
        ChainComplex(Z6, 0, [one, one], [[]])
    with pytest.raises(InputError, match="^differential shape mismatch at slot 0$"):
        ChainComplex(Z6, 0, [zero, one], [[[1]]])


def test_lna_cohomology_is_dimension_counting():
    x = LNA.multiplication_matrix("x")
    cx = ChainComplex(LNA, 0, [LnaModule.free(LNA, 1), LnaModule.free(LNA, 1)], [x])
    h0, h1 = cx.cohomology(0), cx.cohomology(1)
    # multiplication by x on F2[x,y]/(x^2,y^3) has 3-dimensional image
    assert h0.dim == 3 and h1.dim == 3


# The seed-42 battery complexes over F2[x,y]/(x^2,y^3) and their Koszul
# complexes: cohomology dimensions and the induced actions, which depend on
# the choice and order of the coset representatives
LNA_BATCH_SHA256 = "cab837ab540e8de2c1bd711efbd644682c52d8842cd303948f0f87dd8428c32a"
# the LNA modules that batch assembles instead of validating
LNA_BATCH_ASSEMBLED = 1213


def test_lna_cohomology_of_the_battery_batch_is_pinned():
    rows = []
    for cx in battery.instances(LNA, 200, battery.DEFAULT_SEED):
        row = {"cohomology": {i: h.to_json() for i, h in cx.cohomology_all().items()}}
        for x in LNA.koszul_elements("m"):
            row[x] = {i: h.to_json() for i, h in koszul_stable(x, cx).cohomology_all().items()}
        rows.append(row)
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == LNA_BATCH_SHA256


def test_every_assembled_lna_module_of_the_batch_passes_the_validating_constructor(monkeypatch):
    # free modules, cohomology with its induced actions and direct sums are
    # assembled on their proofs; the constructor checks nilpotency and
    # commutation literally
    built = _recording_assembled(monkeypatch, LnaModule)
    for cx in battery.instances(LNA, 200, battery.DEFAULT_SEED):
        cx.cohomology_all()
        for x in LNA.koszul_elements("m"):
            koszul_stable(x, cx).cohomology_all()
    assert len(built) == LNA_BATCH_ASSEMBLED
    for module in built:
        again = LnaModule(module.ring, module.dim, dict(module.actions))
        assert again.dim == module.dim and dict(again.actions) == dict(module.actions)


# -- stable Koszul ------------------------------------------------------------


def test_stable_koszul_on_the_integers_gives_the_divisible_quotient():
    k = koszul_stable(2, module_complex(PresentedModule.free(Z, 1), 0))
    assert k.cohomology(0).is_zero
    h1 = k.cohomology(1)
    assert h1.divisible == ((2, 1),) and h1.rank == 0 and h1.factors == ()


def test_stable_koszul_computes_torsion_of_bounded_below_complexes():
    # Gamma_2 of Z/12 is Z/4
    g = koszul_stable(2, module_complex(PresentedModule.free(Z12, 1), 0))
    assert g.cohomology(0).factors == (4,)
    assert all(g.cohomology(i).is_zero for i in g.degrees() if i != 0)


def test_stable_koszul_with_a_unit_is_acyclic():
    assert koszul_stable(5, module_complex(PresentedModule.free(Z6, 1), 0)).is_acyclic()
    assert koszul_stable(1, module_complex(LnaModule.free(LNA, 1), 0)).is_acyclic()


def test_stable_koszul_on_nilpotents_keeps_everything():
    k = koszul_stable("x", module_complex(LnaModule.free(LNA, 1), 0))
    assert not k.is_acyclic()
    # a one-degree complex keeps the zero degree the cone adds above it
    for x, cx in (
        (2, module_complex(PresentedModule.free(Z4, 1), 3)),
        ("x", module_complex(LnaModule.free(LNA, 1), 3)),
    ):
        k = koszul_stable(x, cx)
        assert list(k.cohomology_all()) == [3, 4] and k.cohomology(4).is_zero
        assert k.cohomology(3).canonical() == cx.cohomology(3).canonical()


def _cohomology_around(cx, degrees):
    return [cx.cohomology(i) for i in range(min(degrees) - 1, max(degrees) + 2)]


def test_stable_koszul_at_zero_or_a_unit_keeps_or_kills_everything():
    # R[1/0] = 0 keeps the complex, R[1/x] = R for a unit x kills it, as the
    # Z/n route does for a nilpotent or a unit x
    z_half = IntegersLocalized(inverted={2})
    cases = [
        (Z, battery.instances(Z, 10, battery.DEFAULT_SEED), [0], [1, -1], []),
        (z_half, [module_complex(PresentedModule.free(z_half, 1), 0)], [0], [2, 4], [3]),
        (Z4, battery.instances(Z4, 10, battery.DEFAULT_SEED), [0, 2], [1, 3], []),
        (Z12, battery.instances(Z12, 10, battery.DEFAULT_SEED), [0, 6], [5, -1], []),
    ]
    for ring, pool, keep, kill, live in cases:
        pool = [cx for cx in pool if not cx.is_acyclic()]
        assert pool, "no complex with cohomology over %s" % ring.label()
        for cx in pool:
            degrees = list(cx.degrees())
            for x in keep:
                assert _cohomology_around(koszul_stable(x, cx), degrees) == _cohomology_around(
                    cx, degrees
                )
            for x in kill:
                assert koszul_stable(x, cx).is_acyclic()
            for x in live:
                assert not koszul_stable(x, cx).is_acyclic()


def test_stable_koszul_at_a_unit_lists_the_cone_degrees_all_zero():
    # with no live prime the long exact sequence gives zero in every degree
    # min ... max + 1, the degrees the Z/n route's cone of the identity lists
    z_half = IntegersLocalized(inverted={2})
    for ring, units in ((Z, [1, -1]), (z_half, [2, 4]), (Z6, [5])):
        for cx in battery.instances(ring, 30, battery.DEFAULT_SEED):
            for x in units:
                k = koszul_stable(x, cx)
                assert list(k.degrees()) == list(range(cx.min_deg, cx.max_deg + 2))
                assert k.is_acyclic()


def test_the_koszul_step_at_a_nilpotent_returns_a_complex_over_two_degrees_itself():
    # C[1/x] = 0 for nilpotent x, and the cone of C -> 0 is C
    local = localize(_free_complex(Z12, [[[2], [6]]]), 2)
    assert local.ring == Z4 and koszul_stable(2, local) is local
    lna = ChainComplex(LNA, 0, [LnaModule.free(LNA, 1)] * 2, [LNA.multiplication_matrix("x")])
    assert koszul_stable("y", lna) is lna


def test_stable_koszul_is_symmetric_in_the_elements():
    cx = _free_complex(Z12, [[[6]]])
    a = koszul_stable(3, koszul_stable(2, cx))
    b = koszul_stable(2, koszul_stable(3, cx))
    for i in set(a.degrees()) | set(b.degrees()):
        assert a.cohomology(i).factors == b.cohomology(i).factors


def test_localize_by_element_keeps_the_coprime_part():
    ell = localize_by_element(module_complex(PresentedModule.free(Z6, 1), 0), 2)
    assert ell.cohomology(0).factors == (3,)
    assert localize_by_element(module_complex(PresentedModule.free(Z4, 1), 0), 2).is_acyclic()


def test_localize_at_a_prime():
    cx = module_complex(PresentedModule.cyclic(Z, 6), 0)
    at2 = localize(cx, 2)
    assert at2.cohomology(0).factors == (2,)
    at5 = localize(cx, 5)
    assert at5.is_acyclic()


# -- residue fields and derived Hom -------------------------------------------


def test_residue_dimensions_of_a_torsion_module():
    cx = module_complex(PresentedModule.cyclic(Z, 6), 0)
    assert derived_tensor_residue(cx, 2).dims == ((-1, 1), (0, 1))
    assert not derived_tensor_residue(cx, 5).is_nonzero
    assert not derived_tensor_residue(cx, 0).is_nonzero
    # at an inverted prime the zeros cover the same degrees as the free model's
    inverted = module_complex(PresentedModule.cyclic(IntegersLocalized(inverted={2}), 6), 0)
    assert derived_tensor_residue(inverted, 2).dims == ((-1, 0), (0, 0))


# complexes over Z whose free model solves one lift each: e_0 with
# 2 * 2 = 4 * e_0 for Z/2 --2--> Z/4, and h_0 with 2 * 2 = 4 * h_0 for
# Z --2--> Z --2--> Z/4
FORGEABLE_LIFTS = [
    ([[[2]], [[4]]], [[[2]]]),
    ([[[]], [[]], [[4]]], [[[2]], [[2]]]),
]


# the complexes whose free model the seven seed-42 pools build
POOL_FREE_MODELS = 1600


def test_residue_refuses_a_forged_lift(monkeypatch):
    honest = PresentedModule._coordinates

    def forged(module, vecs):
        return [[x + 1 for x in y] for y in honest(module, vecs)]

    for modules, differentials in FORGEABLE_LIFTS:
        cx = ChainComplex(Z, 0, [PresentedModule(Z, 1, rel) for rel in modules], differentials)
        assert derived_tensor_residue(cx, 2).is_nonzero
        with monkeypatch.context() as patch:
            patch.setattr(PresentedModule, "_coordinates", forged)
            with pytest.raises(AssertionError, match="lift identity fails|δ\\^2 != 0"):
                derived_tensor_residue(ChainComplex.from_json(cx.to_json()), 2)


def test_the_free_model_without_its_lift_identity_accepts_a_forged_lift(monkeypatch, weakened):
    honest = PresentedModule._coordinates

    def forged(module, vecs):
        return [[x + 1 for x in y] for y in honest(module, vecs)]

    monkeypatch.setattr(homalg, "_free_model", weakened(homalg._free_model, 'assert exact, "lift'))
    monkeypatch.setattr(PresentedModule, "_coordinates", forged)
    for modules, differentials in FORGEABLE_LIFTS:
        cx = ChainComplex(Z, 0, [PresentedModule(Z, 1, rel) for rel in modules], differentials)
        wrong = derived_tensor_residue(cx, 2).dims
        with monkeypatch.context() as patch:
            patch.setattr(PresentedModule, "_coordinates", honest)
            right = derived_tensor_residue(ChainComplex.from_json(cx.to_json()), 2).dims
        deltas = homalg._free_model(cx)[1]
        assert wrong != right
        assert any(any(map(any, smith.mat_mul(b, a))) for a, b in zip(deltas, deltas[1:]))


def test_every_free_model_of_the_pools_has_delta_squared_zero(monkeypatch):
    # _free_model proves δ^2 = 0 from its two lift identities; the literal
    # product, on every model that the pools' cohomology and Foxby supports
    # build.  No pool complex has d^2 != 0 over Z, so the lifts h of d^2 are
    # all zero there; the second forgeable-lift complex has d^2 = 4, a
    # relation of its Z/4
    modelled = {}
    build = homalg._free_model

    def recording(cx):
        modelled[id(cx)] = cx
        return build(cx)

    monkeypatch.setattr(homalg, "_free_model", recording)
    for ring in battery.ring_classes():
        for cx in battery.instances(ring, battery.DEFAULT_SAMPLES, battery.DEFAULT_SEED):
            cx.cohomology_all()
            foxby_support(cx)
    assert len(modelled) == POOL_FREE_MODELS
    for modules, differentials in FORGEABLE_LIFTS:
        derived_tensor_residue(
            ChainComplex(Z, 0, [PresentedModule(Z, 1, rel) for rel in modules], differentials), 2
        )
    assert len(modelled) == POOL_FREE_MODELS + len(FORGEABLE_LIFTS)
    for cx in modelled.values():
        deltas = build(cx)[1]
        for lower, upper in zip(deltas, deltas[1:]):
            assert not any(map(any, smith.mat_mul(upper, lower)))


def test_residue_at_the_generic_point_counts_free_ranks():
    cx = module_complex(PresentedModule.free(Z, 2), 0)
    assert derived_tensor_residue(cx, 0).dims == ((0, 2),)


def _universal_coefficient_dims(cx, p):
    """Over a PID a bounded complex is quasi-isomorphic to the sum of its
    shifted cohomology, so dim H^i(C ⊗^L F_p) = rank H^i + t_p(H^i) +
    t_p(H^(i+1)), where t_p counts the invariant factors divisible by p."""

    def t_p(h):
        return sum(1 for d in h.factors if d % p == 0)

    h = {i: cx.cohomology(i) for i in range(cx.min_deg - 1, cx.max_deg + 2)}
    return tuple(
        (i, h[i].rank + t_p(h[i]) + t_p(h[i + 1]))
        for i in range(cx.min_deg - 1, cx.max_deg + 1)
    )


@pytest.mark.parametrize(
    "ring",
    [r for r in battery.ring_classes() if not isinstance(r, LocalNilpotentAlgebra)],
    ids=lambda r: r.label(),
)
def test_residue_dimensions_follow_the_universal_coefficient_formula(ring):
    for cx in battery.instances(ring, 25, battery.DEFAULT_SEED):
        if isinstance(ring, ModularIntegers):
            modular, cx = cx, restrict_to_integers(cx)
        for p in (2, 3):
            assert derived_tensor_residue(cx, p).dims == _universal_coefficient_dims(cx, p)
            if isinstance(ring, ModularIntegers):
                assert derived_tensor_residue(modular, p).dims == derived_tensor_residue(cx, p).dims


def _cone_residue_dims(cx, p):
    """dims of H(C ⊗^L F_p) from the cone of p: C -> C, whose degree j is
    the totalization's degree j - 1: the route derived_tensor_residue took
    before the free model, kept as a reference.  Over a Z/n split by CRT it
    runs on the localization at p, as the residue test does.  The cone's
    cohomology is checked against the lattice route on the way."""
    if cx.ring.crt_primes and not cx.ring.is_unit_prime(p):
        cx = localize(cx, p)
    total = cone(identity_blocks(cx, p), cx, cx)
    _assert_the_lattice_cohomology(total)
    dims = []
    for j in total.degrees():
        h = total.cohomology(j)
        # H(C ⊗^L F_p) is an F_p-vector space: p kills it
        assert h.rank == 0 and all(d == p for d in h.factors)
        dims.append((j - 1, len(h.factors)))
    return tuple(dims)


@pytest.mark.parametrize(
    "ring, count",
    [
        (r, battery.DEFAULT_SAMPLES)
        for r in battery.ring_classes()
        if not isinstance(r, LocalNilpotentAlgebra)
    ]
    + [
        (IntegersLocalized(at_prime=2), 50),
        (IntegersLocalized(at_prime=5), 50),
        (IntegersLocalized(inverted={3}), 50),
    ],
    ids=lambda x: x.label() if not isinstance(x, int) else str(x),
)
def test_the_free_model_agrees_with_the_cone_of_p(ring, count):
    pool = battery.instances(ring, count, battery.DEFAULT_SEED)
    rng = random.Random(battery.DEFAULT_SEED)
    pool += [_with_a_module_that_kills_d_squared(cx, rng) for cx in pool[:50] if cx.differentials]
    for cx in pool:
        _assert_the_lattice_cohomology(cx)
        for p in (2, 3, 5, 7):
            assert derived_tensor_residue(cx, p).dims == _cone_residue_dims(cx, p)


@pytest.mark.parametrize(
    "ring, count",
    [
        (Z, battery.DEFAULT_SAMPLES),
        (IntegersLocalized(at_prime=2), 50),
        (IntegersLocalized(at_prime=5), 50),
        (IntegersLocalized(inverted={3}), 50),
    ],
    ids=lambda x: x.label() if not isinstance(x, int) else str(x),
)
def test_each_localization_reads_its_parents_smith_forms_and_agrees_with_the_lattice_route(
    ring, count
):
    # a localization over Z has its parent's differentials and free model,
    # so the Smith forms of its deltas are those the parent's cohomology took
    for cx in battery.instances(ring, count, battery.DEFAULT_SEED):
        cx.cohomology_all()
        for q in candidate_primes(cx):
            _assert_the_lattice_cohomology(localize(cx, q))


def _d_squared_modulo_relations(ring, rng):
    """Z^a --d0--> Z^b/R1 --d1--> Z^c/R2 over ring, d1·d0 != 0 over Z.  R1
    is random (it holds d0·R0, as Z^a has no relations but the modulus) and
    R2 holds d1·d0 and d1·R1 beside one random column, so d1 is well
    defined and d^2 vanishes only modulo R2: the free model's h_0 solves
    d1·d0 = R2·h_0 and is nonzero."""

    def entries(rows, cols):
        return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]

    while True:
        a, b, c = (rng.randint(1, 3) for _ in range(3))
        d0, d1 = entries(b, a), entries(c, b)
        square = smith.mat_mul(d1, d0)
        if any(map(any, square)):
            break
    r1 = entries(rng.randint(0, 2), b)  # columns
    r2 = smith.transpose(square) + [smith.mat_vec(d1, v) for v in r1] + entries(1, c)
    modules = [
        PresentedModule.free(ring, a),
        PresentedModule(ring, b, smith.transpose(r1)),
        PresentedModule(ring, c, smith.transpose(r2)),
    ]
    return ChainComplex(ring, 0, modules, [d0, d1])


@pytest.mark.parametrize(
    "ring",
    [Z, IntegersLocalized(at_prime=3), Z4, ModularIntegers(9)],
    ids=lambda r: r.label(),
)
def test_complexes_whose_d_squared_vanishes_only_modulo_the_relations(ring, weakened):
    # the battery's pieces all have d^2 = 0 over Z, so their lifts h are zero;
    # here every h_0 is nonzero, and the copy of the free model without the
    # h block leaves d1·d0 in the corner of δ_1·δ_0
    rng = random.Random(battery.DEFAULT_SEED)
    family = [_d_squared_modulo_relations(ring, rng) for _ in range(30)]
    without_h = weakened(
        homalg._free_model,
        "blocks += [(0, 0, cx.differentials[k]), (g[k + 1], 0, minus_h.get(k, []))]",
        "blocks += [(0, 0, cx.differentials[k])]",
    )
    for cx in family:
        _assert_the_lattice_cohomology(cx)
        deltas = homalg._free_model(cx)[1]
        assert all(not any(map(any, smith.mat_mul(b, a))) for a, b in zip(deltas, deltas[1:]))
        cut = without_h(ChainComplex.from_json(cx.to_json()))[1]
        assert any(map(any, smith.mat_mul(cut[2], cut[1])))


def _with_a_module_that_kills_d_squared(cx, rng):
    """cx with one more module on top, reached by a random 2 x g matrix D:
    R^2 modulo D applied to the last differential's columns and to the last
    module's relations.  So D is well defined and D·d vanishes only modulo
    the new relations, where the battery's complexes have d^2 = 0 over Z:
    the free model solves a nonzero lift h_k."""
    last, d = cx.modules[-1], cx.differentials[-1]
    top = [[rng.randint(-3, 3) for _ in range(last.ngens)] for _ in range(2)]
    cols = [[row[j] for row in d] for j in range(cx.modules[-2].ngens)]
    images = [smith.mat_vec(top, c) for c in cols + last.relation_columns()[: last.nrels]]
    rel = [[v[i] for v in images] for i in range(2)]
    return ChainComplex(
        cx.ring, cx.min_deg, [*cx.modules, PresentedModule(cx.ring, 2, rel)], [*cx.differentials, top]
    )


# -- Z/n through its localizations and F_p ranks, against the lattice route ---


def _lattice_canonical(module):
    """canonical() by the lattice route: Z^g over the relation lattice."""
    g = module.ngens
    factors, rank = smith.quotient_invariants(smith.identity(g), module.relation_columns())
    return canonical_module(module.ring, factors, rank)


def _lattice_cohomology(cx, i):
    """H^i by the lattice route: the kernel of [d_out | -R_next] cut to the
    generators of degree i, over the image of d_in and the relations."""
    here, r_next = cx.module(i), cx.module(i + 1).relation_columns()
    g = here.ngens
    if not g:
        return canonical_module(cx.ring, (), 0)
    big = [list(row) + [-c[r] for c in r_next] for r, row in enumerate(cx.differential(i))]
    k_gens = [v[:g] for v in smith.kernel_basis(big, ncols=g + len(r_next))]
    l_gens = smith.transpose(cx.differential(i - 1)) + here.relation_columns()
    factors, rank = smith.quotient_invariants(k_gens, l_gens)
    return canonical_module(cx.ring, factors, rank)


def _assert_the_lattice_cohomology(cx):
    """cx.cohomology(i), read off the free model's Smith diagonals over the
    integer flavours without field_prime, is the lattice route's in degrees
    min_deg - 1 .. max_deg + 1."""
    for i in range(cx.min_deg - 1, cx.max_deg + 2):
        assert cx.cohomology(i) == _lattice_cohomology(cx, i)


def _in_relation_lattice(module, v):
    a = smith.transpose(module.relation_columns())
    return smith.solve_int(a, [v]) is not None


def _assert_the_lattice_route_agrees(cx, h, canon):
    """h and canon, the cohomology of cx and the canonical forms of its
    modules, are those of the lattice route, and so is each module's zero
    test on its generators, two of its relations and each generator times
    n/p^k for every p^k || n (zero at p, not always elsewhere)."""
    assert h == {i: _lattice_cohomology(cx, i) for i in cx.degrees()}
    assert canon == [_lattice_canonical(m) for m in cx.modules]
    n = cx.ring.modulus
    cofactors = [n // p**k for p, k in smith.factorize(n).items()]
    for m in cx.modules:
        gens = smith.identity(m.ngens)
        tests = gens + m.relation_columns()[:2] + [[c * x for x in v] for c in cofactors for v in gens]
        for v in tests:
            assert m._kills([v]) == _in_relation_lattice(m, v)


@pytest.mark.parametrize(
    "n, at",
    [(2, None), (3, None), (6, None), (6, 3), (12, 3)],
    ids=["Z/2", "Z/3", "Z/6", "Z/6-at-3", "Z/12-at-3"],
)
def test_squarefree_moduli_take_no_smith_form_and_agree_with_the_lattice_route(
    n, at, smith_forms
):
    base = battery.instances(ModularIntegers(n), 40, battery.DEFAULT_SEED)
    del smith_forms[:]
    pool = []
    for cx in base:
        # built afresh through the constructor, so that validation runs
        # while the count is on; a Z/n complex validates its localizations
        if at:
            cx = homalg.over_ring(cx, cx.ring.localized_at(at))
        cx = ChainComplex.from_json(cx.to_json())
        pool.append(cx)
        for p in cx.ring.prime_divisors():
            pool += [koszul_stable(p, cx), cone(identity_blocks(cx, p), cx, cx)]
    answers = [(cx.cohomology_all(), [m.canonical() for m in cx.modules]) for cx in pool]
    assert smith_forms == []
    for cx, (h, canon) in zip(pool, answers):
        _assert_the_lattice_route_agrees(cx, h, canon)


@pytest.mark.parametrize("ring", [Z6, Z12], ids=lambda r: r.label())
def test_z_mod_n_through_its_localizations_agrees_with_the_lattice_route(ring):
    # Z/n computes its cohomology, canonical forms and zero tests from its
    # localizations Z/p^k (CRT); the lattice route computes them over Z/n
    # itself, with n*I among the relations
    pool = list(battery.instances(ring, battery.DEFAULT_SAMPLES, battery.DEFAULT_SEED))
    for cx in pool[:40]:
        for p in ring.prime_divisors():
            pool += [
                koszul_stable(p, cx),
                cone(identity_blocks(cx, p), cx, cx),
                localize_by_element(cx, p),
            ]
    assert all(cx.ring == ring for cx in pool)
    for cx in pool:
        _assert_the_lattice_route_agrees(
            cx, cx.cohomology_all(), [m.canonical() for m in cx.modules]
        )


def _two_rank_dimension(cx, i, p):
    """dim H^i over F_p as cohomology took it before each complex kept its
    map ranks: dim Z - dim B from two ranks of its own, Z the preimage of
    R_next under d_i and B the span of R_here and im d_(i-1)."""
    here, nxt = cx.module(i), cx.module(i + 1)
    if not here.ngens:
        return 0
    rank = smith.rank_p
    cycles = here.ngens - rank(smith.hstack(cx.differential(i), nxt.rel), p) + rank(nxt.rel, p)
    return cycles - rank(smith.hstack(here.rel, cx.differential(i - 1)), p)


@pytest.mark.parametrize("ring", [Z6, Z12], ids=lambda r: r.label())
def test_cohomology_over_a_prime_field_is_the_two_rank_formulas(ring):
    for cx in battery.instances(ring, battery.DEFAULT_SAMPLES, battery.DEFAULT_SEED):
        for p in (2, 3):
            local = localize(cx, p)
            if local.ring.field_prime:
                for i in range(cx.min_deg - 1, cx.max_deg + 2):
                    dim = _two_rank_dimension(local, i, p)
                    assert local.cohomology(i) == canonical_module(local.ring, (p,) * dim, 0)


def test_derived_hom_of_the_periodic_resolution():
    s = module_complex(PresentedModule.cyclic(Z4, 2), 0)
    res = hom_complex_h0(s, s, window=(-1, 2))
    assert res.certified
    groups = dict(res.groups)
    assert groups[-1].is_zero
    for k in (0, 1, 2):
        assert groups[k].factors == (2,)


def test_derived_hom_vanishes_for_coprime_torsion():
    s = module_complex(PresentedModule.cyclic(Z6, 2), 0)
    t = module_complex(PresentedModule.cyclic(Z6, 3), 0)
    res = hom_complex_h0(s, t, window=(-2, 2))
    assert res.certified and res.all_vanish


def test_derived_hom_sees_shifts():
    s = module_complex(PresentedModule.cyclic(Z4, 2), 0)
    t = s.shift(-1)  # target moved up by one degree
    res = hom_complex_h0(s, t, window=(0, 1))
    groups = dict(res.groups)
    assert not groups[1].is_zero


@pytest.mark.parametrize(
    "bound, note",
    [(0, "resolution rank too large"), (1, "hom module too large"), (2, "hom module too large")],
)
def test_derived_hom_refuses_past_the_generator_bound(bound, note):
    s = module_complex(PresentedModule.cyclic(Z4, 2))
    t = module_complex(PresentedModule.free(Z4, 3))
    res = hom_complex_h0(s, t, window=(-1, 1), gens_bound=bound)
    assert not res.certified and note in res.note and "hom_gens" in res.note
    # H^0 is (Z/2)^3, so an uncertified answer must not claim vanishing
    assert not res.all_vanish


def test_derived_hom_answers_at_the_generator_bound():
    s = module_complex(PresentedModule.cyclic(Z4, 2))
    t = module_complex(PresentedModule.free(Z4, 3))
    res = hom_complex_h0(s, t, window=(-1, 1), gens_bound=3)
    assert res.certified
    assert [(k, g.factors, g.rank) for k, g in res.groups] == [
        (-1, (), 0),
        (0, (2, 2, 2), 0),
        (1, (), 0),
    ]


# pinned on the seed-42 battery: Hom groups between consecutive instances
# over each Z/n, and from the torsion part at p to the localization away from
# p as in the orthogonality check of battery criterion 9.  Re-pinned when the
# blocks at the primes p | n were first recombined into invariant-factor form:
# over Z/6, pair 5 (s, t) in degree 0 went from (2, 2, 3, 3, 3) to (3, 6, 6)
HOM_BATCH_SHA256 = "f95ec651d3f8c56018f7cbf0f5c4b4da57540166ad4fd21b30b1eb6e6843eeeb"


def _hom_batch_pairs():
    out = []
    for n in battery.MODULI:
        ring = ModularIntegers(n)
        batch = battery.instances(ring, 12, battery.DEFAULT_SEED)
        for s, t in zip(batch, batch[1:]):
            out.append((s, t))
            out.extend(
                (torsion_functor(s, {p}), localization_functor(t, {p}))
                for p in ring.prime_divisors()
            )
    return out


@pytest.fixture(scope="module")
def hom_batch():
    return [hom_complex_h0(first, second, window=(-2, 2)) for first, second in _hom_batch_pairs()]


def _modules_all_zero(cx):
    return all(m.canonical().is_zero for m in cx.modules)


@pytest.fixture(scope="module")
def hom_batch_blocks():
    """The batch's prime blocks (source, target) localized at each p | n,
    split into those with a side whose modules are all zero and the rest."""
    zero_side, full = [], []
    for s, t in _hom_batch_pairs():
        for p in s.ring.prime_divisors():
            block = localize(s, p), localize(t, p)
            (zero_side if any(map(_modules_all_zero, block)) else full).append(block)
    return zero_side, full


def test_the_zero_side_blocks_of_the_battery_batch_are_zero_on_the_full_route(hom_batch_blocks):
    zero_side, full = hom_batch_blocks
    assert (len(zero_side), len(full)) == (103, 95)
    for s, t in zero_side:
        groups = homalg._hom_block(s, t, -2, 2, homalg.HOM_GENS_MAX)
        assert list(groups) == [-2, -1, 0, 1, 2]
        assert all(g.is_zero for g in groups.values())


def test_every_hom_complex_of_the_battery_batch_passes_the_literal_validation(
    hom_batch_blocks, monkeypatch
):
    built = _recording_assembled(monkeypatch, ChainComplex)
    for s, t in hom_batch_blocks[1]:
        homalg._hom_block(s, t, -2, 2, homalg.HOM_GENS_MAX)
    assert len(built) == 95 and {cx.min_deg for cx in built} == {-3}
    _assert_the_literal_validation_passes(built)


def _counted_resolutions(monkeypatch):
    """The arguments of every free resolution built while the test runs."""
    calls = []
    resolve = homalg._free_resolution
    monkeypatch.setattr(homalg, "_free_resolution", lambda *a: calls.append(a) or resolve(*a))
    return calls


def test_criterion_nine_resolves_only_the_blocks_without_a_zero_side(monkeypatch):
    # 12 orthogonality pairs over Z/6 and Z/12, each split at 2 and 3: 24
    # blocks, of which 14 have a side that localizes to zero
    calls = _counted_resolutions(monkeypatch)
    pairs = 0
    for ring in (Z6, Z12):
        batch = battery.instances(ring, battery.DEFAULT_SAMPLES, battery.DEFAULT_SEED)
        for k in range(battery.ORTHOGONALITY_PAIRS):
            applicable, ok, _res = support.orthogonality_check(batch[k], batch[k + 1], {2})
            assert applicable and ok
            pairs += 1
    assert (pairs, len(calls)) == (12, 10)


def _acyclic_over_f2():
    f2 = ModularIntegers(2)
    mods = [PresentedModule.free(f2, 1), PresentedModule.free(f2, 2), PresentedModule.free(f2, 1)]
    return ChainComplex(f2, 0, mods, [[[1], [1]], [[1, -1]]])


def test_a_resolution_whose_square_does_not_vanish_is_refused_by_the_hom_block(
    monkeypatch, weakened
):
    # mutant row: one entry of d_P^0 off by one makes d_P^1 d_P^0 odd
    resolve = homalg._free_resolution

    def forged(*args):
        res = resolve(*args)
        rank, d = res[0]
        res[0] = (rank, [[v + (r == 0) for v in row] for r, row in enumerate(d)])
        return res

    monkeypatch.setattr(homalg, "_free_resolution", forged)
    s = _acyclic_over_f2()
    t = module_complex(PresentedModule.free(s.ring, 1))
    with pytest.raises(AssertionError, match=r"d_P\^2 != 0"):
        homalg._hom_block(s, t, -1, 1, homalg.HOM_GENS_MAX)
    built = _recording_assembled(monkeypatch, ChainComplex)
    without_square = weakened(homalg._hom_block, '"d_P^2 != 0"')
    assert list(without_square(s, t, -1, 1, homalg.HOM_GENS_MAX)) == [-1, 0, 1]
    [hom_cx] = built
    with pytest.raises(InputError, match=r"d\^2 != 0"):
        homalg._validate(hom_cx.modules, hom_cx.differentials)


def test_the_hom_block_of_an_acyclic_source_that_is_not_zero_takes_the_full_route(monkeypatch):
    calls = _counted_resolutions(monkeypatch)
    s = _acyclic_over_f2()
    t = module_complex(PresentedModule.free(s.ring, 1))
    assert s.is_acyclic() and not _modules_all_zero(s)
    res = hom_complex_h0(s, t, window=(-1, 1))
    assert res.all_vanish and len(calls) == 1


@pytest.mark.parametrize("zero_side", ["target", "source"])
def test_a_zero_side_is_certified_zero_past_the_generator_bound(zero_side, monkeypatch):
    # the target (or source) localizes to zero at 2 and at 3, so no block is
    # resolved and the bound 0 is never met
    monkeypatch.setattr(homalg, "_free_resolution", None)
    zero = module_complex(PresentedModule.cyclic(Z6, 1))
    other = module_complex(PresentedModule.free(Z6, 2))
    s, t = (other, zero) if zero_side == "target" else (zero, other)
    res = hom_complex_h0(s, t, window=(-1, 1), gens_bound=0)
    assert res.certified and res.note == "" and res.all_vanish
    assert [k for k, _g in res.groups] == [-1, 0, 1]


def test_derived_hom_of_the_battery_batch_is_pinned(hom_batch):
    rows = [
        [[[k, list(g.factors), g.rank] for k, g in res.groups], res.certified]
        for res in hom_batch
    ]
    assert len(rows) == 132
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == HOM_BATCH_SHA256


def test_derived_hom_groups_of_the_battery_batch_are_in_invariant_factor_form(hom_batch):
    for res in hom_batch:
        for _k, g in res.groups:
            assert all(b % a == 0 for a, b in zip(g.factors, g.factors[1:])), g


def test_derived_hom_h0_of_a_cyclic_module_is_its_canonical_form():
    # Hom(Z/12, Z/12) = Z/12, the same answer cohomology gives, not Z/3 + Z/4
    m = module_complex(PresentedModule.cyclic(Z12, 12))
    res = hom_complex_h0(m, m)
    assert res.certified
    assert res.groups == ((0, m.cohomology(0)),)
    assert res.groups[0][1].factors == (12,)


def test_derived_hom_refuses_a_modulus_it_cannot_factor():
    # both prime factors lie past smith.FACTOR_TRIAL_MAX; this is no window problem
    s = module_complex(PresentedModule.free(ModularIntegers(1000000007 * 1000000009), 1), 0)
    with pytest.raises(ResourceLimitError) as info:
        hom_complex_h0(s, s)
    assert info.value.bound_name == "factor_trial"


def test_zero_complex_is_acyclic():
    assert zero_complex(Z).is_acyclic()
    assert zero_complex(LNA).is_acyclic()


def test_localizing_z_mod_n_at_a_non_integer_prime_is_an_input_error():
    cx = _free_complex(Z6, [[[2]]])
    with pytest.raises(InputError, match="'m' does not divide the modulus"):
        localize(cx, "m")
    with pytest.raises(InputError, match="5 does not divide the modulus"):
        localize(cx, 5)


@pytest.mark.parametrize("min_deg", [1.9, True, "0", None])
def test_complex_refuses_a_non_integer_lowest_degree(min_deg):
    with pytest.raises(InputError, match="lowest degree"):
        ChainComplex(Z, min_deg, [PresentedModule.free(Z, 1)], [])


@pytest.mark.parametrize("ngens", [-1, 1.0, True, "1"])
def test_presented_module_refuses_a_bad_generator_count(ngens):
    with pytest.raises(InputError, match="generator count"):
        PresentedModule(Z, ngens, [])


@pytest.mark.parametrize(
    "generators",
    [(("x", 2.7),), (("x", True),), (("x", "2"),), ((5, 2),), ((None, 2),)],
)
def test_local_nilpotent_algebra_refuses_non_integer_exponents_and_non_string_names(generators):
    with pytest.raises(InputError, match="names must be strings and exponents integers"):
        LocalNilpotentAlgebra(2, generators)
