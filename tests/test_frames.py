"""Finite frames, nuclei, the assembly, and the Skula comparison map."""

import gc
import time
from functools import reduce
from itertools import combinations, product
from operator import and_

import pytest

from ttsupport import axioms, homalg, support
from ttsupport import frames as frames_module
from ttsupport import poset as poset_module
from ttsupport import spectral as spectral_module
from ttsupport.axioms import canonical_datum, construct_eta
from ttsupport.errors import InputError, ResourceLimitError
from ttsupport.frames import (
    FiniteFrame,
    FrameHom,
    Nucleus,
    assembly,
    closed_nucleus,
    frame_homs,
    frame_of,
    localizing_frame,
    nucleus_join,
    open_nucleus,
    sigma,
    spc,
    thomason_frame,
    universal_factorization,
    validate_nucleus,
)
from ttsupport.homalg import (
    IntegersLocalized,
    LnaModule,
    LocalNilpotentAlgebra,
    ModularIntegers,
    PresentedModule,
    derived_tensor_residue,
    hom_complex_h0,
    koszul_stable,
    module_complex,
)
from ttsupport.poset import FinitePoset, enumerate_posets
from ttsupport.spectral import SpectralSpace
from ttsupport.support import SupportDescriptor, spec
from ttsupport.values import Immutable


def _space(elements, pairs):
    return SpectralSpace(FinitePoset.from_pairs(elements, pairs))


CHAIN2 = _space(["g", "c"], [("g", "c")])
A2 = _space(["a", "b"], [])
VPOSET = _space(["g", "m1", "m2"], [("g", "m1"), ("g", "m2")])

CHAIN3 = FiniteFrame(
    FinitePoset.from_pairs(["0", "a", "1"], [("0", "a"), ("a", "1")])
)
BOOL4 = FiniteFrame(
    FinitePoset.from_pairs(["0", "x", "y", "1"], [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")])
)


def test_open_set_frames_of_small_spaces():
    frame, _ = frame_of(CHAIN2)
    assert frame.is_isomorphic_to(CHAIN3)
    frame, _ = frame_of(A2)
    assert frame.is_isomorphic_to(BOOL4)
    frame, _ = frame_of(VPOSET)
    assert len(frame) == 5


def test_the_frame_of_a_four_point_antichain_is_recognised_as_itself_quickly():
    frame, _ = frame_of(_space(["a", "b", "c", "d"], []))
    assert len(frame) == 16
    start = time.perf_counter()
    assert frame.is_isomorphic_to(frame)
    assert time.perf_counter() - start < 1.0


def test_frames_of_the_same_size_with_other_join_irreducibles_are_told_apart():
    # down-sets of a < b, a < c and of a < c, b < c: five elements each
    vee = FinitePoset.from_pairs(["a", "b", "c"], [("a", "b"), ("a", "c")])
    wedge = FinitePoset.from_pairs(["a", "b", "c"], [("a", "c"), ("b", "c")])
    up, _ = FiniteFrame.from_sets(vee.down_sets())
    down, _ = FiniteFrame.from_sets(wedge.down_sets())
    assert len(up) == len(down) == 5
    assert not up.is_isomorphic_to(down) and not down.is_isomorphic_to(up)
    assert up.is_isomorphic_to(FiniteFrame.from_sets(vee.down_sets())[0])


def test_non_lattices_and_non_distributive_orders_are_rejected():
    with pytest.raises(InputError):
        FiniteFrame(FinitePoset.from_pairs(["a", "b"], []))
    diamond = FinitePoset.from_pairs(
        ["0", "x", "y", "z", "1"],
        [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
    )
    with pytest.raises(InputError):
        FiniteFrame(diamond)


def _lattice_operations(order):
    """Meet and join tables read off the order, or None when some pair has
    no greatest lower or least upper bound."""
    els = order.elements

    def extremum(bounds, leq):
        best = [b for b in bounds if all(leq(c, b) for c in bounds)]
        return best[0] if best else None

    meet, join = {}, {}
    for x in els:
        for y in els:
            lower = order.down_set(x) & order.down_set(y)
            upper = order.up_set(x) & order.up_set(y)
            meet[(x, y)] = extremum(lower, order.leq)
            join[(x, y)] = extremum(upper, lambda a, b: order.leq(b, a))
            if meet[(x, y)] is None or join[(x, y)] is None:
                return None
    return meet, join


def _literally_distributive(elements, meet, join):
    return all(
        meet(x, join(y, z)) == join(meet(x, y), meet(x, z))
        for x in elements
        for y in elements
        for z in elements
    )


def test_birkhoff_distributivity_agrees_with_the_literal_law_on_small_lattices():
    lattices = distributive = 0
    for n in range(1, 7):
        for order in enumerate_posets(n):
            ops = _lattice_operations(order)
            if ops is None:
                with pytest.raises(InputError):
                    FiniteFrame(order)
                continue
            meet, join = ops
            lattices += 1
            if _literally_distributive(
                order.elements, lambda x, y: meet[(x, y)], lambda x, y: join[(x, y)]
            ):
                distributive += 1
                FiniteFrame(order)
            else:
                with pytest.raises(InputError, match="not distributive"):
                    FiniteFrame(order)
    assert (lattices, distributive) == (25, 13)


def _literal_refusal(order):
    """Reference for the constructor: None for a distributive lattice, else
    the refusal text, found by checking boundedness, then every pair in
    element order for a greatest lower and a least upper bound, then the
    distributive law."""
    els = order.elements
    if not (
        any(all(order.leq(b, x) for x in els) for b in els)
        and any(all(order.leq(x, t) for x in els) for t in els)
    ):
        return "lattice is not bounded"
    for x in els:
        for y in els:
            lower = [z for z in els if order.leq(z, x) and order.leq(z, y)]
            upper = [z for z in els if order.leq(x, z) and order.leq(y, z)]
            if not any(all(order.leq(z, m) for z in lower) for m in lower) or not any(
                all(order.leq(j, z) for z in upper) for j in upper
            ):
                return "not a lattice: meet/join fails on (%r, %r)" % (x, y)
    meet, join = _lattice_operations(order)
    if _literally_distributive(els, lambda x, y: meet[(x, y)], lambda x, y: join[(x, y)]):
        return None
    return "lattice is not distributive"


def test_refused_orders_get_the_literal_refusal_text():
    refused = 0
    for n in range(1, 7):
        for order in enumerate_posets(n):
            # the enumerated element order and its reverse meet failing
            # pairs in different orders
            for els in (order.elements, order.elements[::-1]):
                relabelled = FinitePoset(els, order.relation)
                expected = _literal_refusal(relabelled)
                if expected is None:
                    FiniteFrame(relabelled)
                    continue
                with pytest.raises(InputError) as exc:
                    FiniteFrame(relabelled)
                assert str(exc.value) == expected
                refused += 1
    assert refused == 2 * (405 - 13)


# One row per clause of FiniteFrame's acceptance: the line that holds the
# clause and what a copy without the clause has there, and an order that the
# copy accepts and the constructor refuses with the literal refusal.  The
# bounds and the count of the down-sets of J follow from the two
# (_reflects_covers's docstring)
FRAME_CLAUSES = {
    # J = {a, b}, and c, d and 1 all have mask {a, b}; every cover step
    # from a mask lands on 1, above all
    "distinct masks": (
        "len(element) == len(els)",
        "True",
        FinitePoset.from_pairs(
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"),
             ("c", "1"), ("d", "1")],
        ),
    ),
    # J = {a, b, c, d} with b < c < d; x and y both sit on {a, b}, and y
    # also on c: x -> {a, b} and y -> {a, b, c} are down-sets of J and the
    # eight elements biject onto all eight of them, but x is not below y
    "the cover walk": (
        "and _reflects_covers(",
        "and True",
        FinitePoset.from_pairs(
            ["0", "a", "b", "c", "x", "y", "d", "1"],
            [("0", "a"), ("0", "b"), ("b", "c"), ("a", "x"), ("b", "x"), ("a", "y"),
             ("c", "y"), ("c", "d"), ("x", "1"), ("y", "1"), ("d", "1")],
        ),
    ),
}


@pytest.mark.parametrize("clause", list(FRAME_CLAUSES))
def test_each_clause_of_frame_acceptance_refuses_what_the_copy_without_it_accepts(
    clause, weakened, monkeypatch
):
    line, stand_in, order = FRAME_CLAUSES[clause]
    with pytest.raises(InputError) as exc:
        FiniteFrame(order)
    assert str(exc.value) == _literal_refusal(order) == "not a lattice: meet/join fails on ('a', 'b')"
    monkeypatch.setattr(FiniteFrame, "__init__", weakened(FiniteFrame.__init__, line, stand_in))
    assert FiniteFrame(order).elements == order.elements


def _literal_primes(order, meet):
    """The elements p other than the top for which x ∧ y <= p forces
    x <= p or y <= p, with meet the order's meet table."""
    els = order.elements
    return [
        p
        for p in els
        if order.up_set(p) != {p}
        and all(
            order.leq(x, p) or order.leq(y, p)
            for x in els
            for y in els
            if order.leq(meet[(x, y)], p)
        )
    ]


def _check_against_literal_definitions(frame):
    order = frame.order
    els = frame.elements
    meet, join = _lattice_operations(order)

    def greatest(candidates):
        top = [z for z in candidates if all(order.leq(c, z) for c in candidates)]
        assert len(top) == 1
        return top[0]

    for x in els:
        for y in els:
            assert frame.leq(x, y) == order.leq(x, y)
            assert frame.meet(x, y) == meet[(x, y)]
            assert frame.join(x, y) == join[(x, y)]
            assert frame.heyting(x, y) == greatest(
                [z for z in els if order.leq(meet[(z, x)], y)]
            )
    assert frame.primes() == sorted(_literal_primes(order, meet))
    irreducible = [
        x
        for x in els
        if x != frame.bottom and all(join[(y, z)] != x for y in els for z in els if y != x != z)
    ]
    assert frame.join_irreducibles() == irreducible
    for x in els:
        complements = [y for y in els if meet[(x, y)] == frame.bottom and join[(x, y)] == frame.top]
        assert frame.complement(x) == (complements[0] if complements else None)
        assert frame.meet_many([x, frame.top]) == x and frame.join_many([x]) == x


def test_frame_operations_agree_with_the_literal_definitions():
    checked = 0
    for n in range(1, 7):
        for order in enumerate_posets(n):
            if _literal_refusal(order) is None:
                _check_against_literal_definitions(FiniteFrame(order))
                checked += 1
    for space in _small_spaces(4):
        _check_against_literal_definitions(frame_of(space)[0])
        checked += 1
    assert checked == 13 + 24


def test_frames_and_assemblies_of_small_spaces_satisfy_the_literal_law():
    for space in _small_spaces(4):
        frame, _ = frame_of(space)
        nframe = assembly(frame).frame
        for f in (frame, nframe):
            assert len(f) <= 16
            assert _literally_distributive(f.elements, f.meet, f.join)


def test_primes_are_the_meet_irreducibles():
    assert CHAIN3.primes() == ["0", "a"]
    assert BOOL4.primes() == ["x", "y"]
    two = FiniteFrame(FinitePoset.from_pairs(["0", "1"], [("0", "1")]))
    assert two.primes() == ["0"]


def test_primes_and_minimal_primes_agree_with_the_literal_definitions():
    # the three frames of every space up to 4 points and their assemblies;
    # the minimal primes compare the literal primes pairwise
    frames = 0
    for space in _small_spaces(4):
        built = [build(space)[0] for build in (frame_of, thomason_frame, localizing_frame)]
        for frame in built + [assembly(f).frame for f in built]:
            order = frame.order
            primes = _literal_primes(order, _lattice_operations(order)[0])
            assert frame.primes() == sorted(primes)
            for x in frame.elements:
                above = [p for p in primes if order.leq(x, p)]
                assert frame.min_primes(x) == sorted(
                    p for p in above if not any(q != p and order.leq(q, p) for q in above)
                )
            frames += 1
    assert frames == 6 * 24


def test_primes_of_the_frames_of_a_space_are_the_elements_with_one_upper_cover():
    # an upper cover of x is a minimal element of the strict up-set of x
    for space in _small_spaces(6):
        for build in (frame_of, thomason_frame, localizing_frame):
            frame, _ = build(space)
            down, up = frame.order._down, frame.order._up
            expected = []
            for i, x in enumerate(frame.elements):
                above = up[i] & ~(1 << i)
                covers = [j for j in range(len(up)) if above >> j & 1 and down[j] & above == 1 << j]
                if len(covers) == 1:
                    expected.append(x)
            expected.sort()
            first = frame.primes()
            assert first == expected
            assert len(first) == len(space.points)
            first.append(frame.top)
            first.reverse()
            assert frame.primes() == expected


def test_heyting_implication_and_complements():
    assert CHAIN3.heyting("a", "0") == "0"
    assert CHAIN3.heyting("1", "a") == "a"
    assert BOOL4.complement("x") == "y"
    assert CHAIN3.complement("a") is None
    assert BOOL4.is_boolean() and not CHAIN3.is_boolean()


def test_point_space_round_trip():
    for space in (CHAIN2, A2, VPOSET):
        frame, _ = frame_of(space)
        pts, lam, is_spatial = spc(frame)
        assert is_spatial
        assert pts.order.is_isomorphic_to(space.order)
        assert lam.is_isomorphism()


def test_nucleus_validation_names_the_failure():
    table = {"0": "0", "a": "a", "1": "1"}
    ok, report = validate_nucleus(CHAIN3, table)
    assert ok
    ok, _report = validate_nucleus(CHAIN3, {"0": "0", "a": "0", "1": "1"})
    assert not ok
    ok, _report = validate_nucleus(CHAIN3, {"0": "1", "a": "1", "1": "1"})
    assert ok


def test_nucleus_values_outside_the_frame_are_reported():
    table = {"0": "zz", "a": "1", "1": "1"}
    ok, report = validate_nucleus(CHAIN3, table)
    assert not ok
    assert report == ["value 'zz' at '0' is not a frame element"]
    with pytest.raises(InputError, match="'zz'"):
        Nucleus(CHAIN3, table)


def _literal_validate_nucleus(frame, table):
    """Reference for validate_nucleus: the four nucleus axioms checked
    literally on the frame's own order and meets."""
    report = []
    if set(table) != set(frame.elements):
        return False, ["table must be defined on exactly the frame"]
    for x in frame.elements:
        if not frame.leq(x, table[x]):
            report.append("not inflationary at %r" % x)
        if table[table[x]] != table[x]:
            report.append("not idempotent at %r" % x)
        for y in frame.elements:
            if frame.leq(x, y) and not frame.leq(table[x], table[y]):
                report.append("not monotone on (%r, %r)" % (x, y))
            if table[frame.meet(x, y)] != frame.meet(table[x], table[y]):
                report.append("does not preserve the meet of (%r, %r)" % (x, y))
    return not report, report


def _enumerated_frames():
    """The frames among the posets up to 5 points, with their element orders
    as enumerated, not sorted, so that the order of reports is tested."""
    small = []
    for n in range(1, 6):
        for order in enumerate_posets(n):
            try:
                small.append(FiniteFrame(order))
            except InputError:
                pass
    return small


def test_nucleus_validation_agrees_with_the_literal_axioms_on_every_self_map():
    small = _enumerated_frames()
    maps = nuclei = 0
    for frame in small:
        els = frame.elements
        for values in product(els, repeat=len(els)):
            table = dict(zip(els, values))
            expected = _literal_validate_nucleus(frame, table)
            assert validate_nucleus(frame, table) == expected
            maps += 1
            nuclei += expected[0]
    assert len(small) == 8 and maps == 1 + 4 + 27 + 2 * 4**4 + 3 * 5**5
    assert nuclei == sum(len(assembly(frame).nuclei) for frame in small)


def test_nucleus_validation_agrees_with_the_literal_axioms_next_to_every_nucleus():
    # every nucleus of the 4-point pool, and next to it one table per element
    # with that element's value moved to the next element in element order
    tables = failing = 0
    for space in _small_spaces(4):
        frame, _ = frame_of(space)
        els = frame.elements
        following = dict(zip(els, els[1:] + els[:1]))
        for nu in assembly(frame).nuclei.values():
            variants = [nu.table] + [{**nu.table, x: following[nu.table[x]]} for x in els]
            for table in variants:
                expected = _literal_validate_nucleus(frame, table)
                assert validate_nucleus(frame, table) == expected
                tables += 1
                failing += not expected[0]
    # 306 nuclei and 2,416 moved tables, of which 51 are nuclei again
    assert tables == 2722 and failing == 2365


def _literal_hom_refusal(source, target, mapping):
    """Reference for FrameHom on a map keeping bottom and top: the law broken
    by the first pair (x, y), in element order, whose meet or join the map
    does not keep, with meets looked at first; None for a frame hom."""
    for x in source.elements:
        for y in source.elements:
            if mapping[source.meet(x, y)] != target.meet(mapping[x], mapping[y]):
                return "hom does not preserve meets"
            if mapping[source.join(x, y)] != target.join(mapping[x], mapping[y]):
                return "hom does not preserve joins"
    return None


def test_frame_homs_agree_with_the_literal_pair_check_on_every_map():
    small = _enumerated_frames()
    maps = 0
    refusals = set()
    for source in small:
        inner = [x for x in source.elements if x not in (source.bottom, source.top)]
        for target in small:
            if source.bottom == source.top and target.bottom != target.top:
                continue  # no map keeps both bottom and top
            homs = 0
            for values in product(target.elements, repeat=len(inner)):
                mapping = dict(zip(inner, values))
                mapping[source.bottom], mapping[source.top] = target.bottom, target.top
                expected = _literal_hom_refusal(source, target, mapping)
                try:
                    FrameHom(source, target, mapping)
                except InputError as exc:
                    assert str(exc) == expected
                    refusals.add(expected)
                else:
                    assert expected is None
                    homs += 1
                maps += 1
            assert homs == len(frame_homs(source, target))
    assert maps == 1897 and len(refusals) == 2


def test_assembly_order_is_the_literal_pointwise_order():
    # every assembly of the pool up to 5 points: the order is read off the
    # fixed-point sets, the reference compares the nuclei at every element
    pairs = 0
    for space in _small_spaces(5):
        frame, _ = frame_of(space)
        asm = assembly(frame, max_size=2 ** len(space.points))
        for a, nu in asm.nuclei.items():
            for b, mu in asm.nuclei.items():
                pointwise = all(frame.leq(nu(x), mu(x)) for x in frame.elements)
                assert asm.frame.leq(a, b) == pointwise
                pairs += 1
    assert pairs == 68964


def test_assembly_of_a_three_chain_has_four_nuclei():
    asm = assembly(CHAIN3)
    tables = {tuple(nu(x) for x in ("0", "a", "1")) for nu in asm.nuclei.values()}
    assert tables == {
        ("0", "a", "1"),  # identity
        ("1", "1", "1"),  # top
        ("a", "a", "1"),  # closed at a
        ("0", "1", "1"),  # open at a
    }


def test_assembly_closed_and_open_nuclei_are_complements():
    asm = assembly(CHAIN3)
    for x in CHAIN3.elements:
        label = asm.alpha(x)
        comp = asm.alpha_complement[x]
        assert asm.frame.complement(label) == comp
        cx = closed_nucleus(CHAIN3, x)
        ux = open_nucleus(CHAIN3, x)
        assert all(asm.nuclei[label](y) == cx(y) for y in CHAIN3.elements)
        assert all(asm.nuclei[comp](y) == ux(y) for y in CHAIN3.elements)


def test_assembly_counts_powers_of_two_for_open_set_frames():
    for n in range(1, 4):
        for order in enumerate_posets(n):
            frame, _ = frame_of(SpectralSpace(order))
            assert len(assembly(frame).nuclei) == 2 ** n


def test_nucleus_join_agrees_with_the_assembly_lattice_join():
    asm = assembly(CHAIN3)
    labels = sorted(asm.nuclei)
    for la in labels:
        for lb in labels:
            joined = nucleus_join(CHAIN3, asm.nuclei[la], asm.nuclei[lb])
            lattice = asm.frame.join(la, lb)
            assert all(joined(x) == asm.nuclei[lattice](x) for x in CHAIN3.elements)


def test_universal_factorization_through_the_assembly():
    asm = assembly(CHAIN3)
    # the structure map factors through itself via the identity
    tilde = universal_factorization(asm, asm.alpha, check_unique=True)
    for x in CHAIN3.elements:
        assert tilde(asm.alpha(x)) == asm.alpha(x)


def test_universal_factorization_requires_complemented_images():
    asm = assembly(CHAIN3)
    ident = FrameHom(CHAIN3, CHAIN3, {x: x for x in CHAIN3.elements})
    with pytest.raises(InputError):
        universal_factorization(asm, ident)


def test_sigma_is_an_isomorphism_on_small_spaces():
    for n in range(1, 4):
        for order in enumerate_posets(n):
            _psi, is_iso, _asm = sigma(SpectralSpace(order), check_unique=(n <= 2))
            assert is_iso


def test_sigma_composed_with_alpha_is_the_skula_comparison():
    space = CHAIN2
    psi, is_iso, asm = sigma(space)
    assert is_iso
    # psi maps nuclei onto Skula opens; composed with alpha it must send each
    # open (down-set label) to itself seen inside the discrete Skula frame
    for x in asm.base.elements:
        assert psi(asm.alpha(x)) == x


def test_frame_homs_must_preserve_every_meet_and_join():
    # both maps keep bottom and top; the first keeps every meet but sends
    # the join x v y = 1 to 0, the second loses the meet x ^ y = 0
    for images, broken in ((("0", "0"), "joins"), (("a", "a"), "meets")):
        mapping = {"0": "0", "x": images[0], "y": images[1], "1": "1"}
        with pytest.raises(InputError, match="hom does not preserve %s" % broken):
            FrameHom(BOOL4, CHAIN3, mapping)


TWO = FiniteFrame(FinitePoset.from_pairs(["0", "1"], [("0", "1")]))
DISCRETE3 = frame_of(_space(["a", "b", "c"], []))[0]

# One row per clause of FrameHom's certificate: the line that holds the
# clause and what a copy without the clause has there, and the smallest map
# BOOL4 -> TWO that the copy accepts and the certificate refuses, with the
# refusal.  BOOL4 has two primes and two join-irreducibles, so the prime
# and join-irreducible rows drop two of each: any one could go (FrameHom's
# docstring), two cannot
FRAME_HOM_CLAUSES = {
    "bottom": (
        'raise InputError("hom does not preserve bottom")',
        "pass",
        {"0": "1", "x": "1", "y": "1", "1": "1"},
        "hom does not preserve bottom",
    ),
    "top": (
        'raise InputError("hom does not preserve top")',
        "pass",
        {"0": "0", "x": "0", "y": "0", "1": "0"},
        "hom does not preserve top",
    ),
    "meets with every prime": (
        "if not _keeps_pairs(",
        "if not _keeps_pairs(image, (), source._irreducible):",
        {"0": "0", "x": "1", "y": "1", "1": "1"},
        "hom does not preserve meets",
    ),
    "joins with every join-irreducible": (
        "if not _keeps_pairs(",
        "if not _keeps_pairs(image, source._prime_masks(), ()):",
        {"0": "0", "x": "0", "y": "0", "1": "1"},
        "hom does not preserve joins",
    ),
}


@pytest.mark.parametrize("clause", list(FRAME_HOM_CLAUSES))
def test_each_clause_of_the_frame_hom_certificate_refuses_what_the_copy_without_it_accepts(
    clause, weakened, monkeypatch
):
    line, stand_in, mapping, refusal = FRAME_HOM_CLAUSES[clause]
    with pytest.raises(InputError, match="^%s$" % refusal):
        FrameHom(BOOL4, TWO, mapping)
    monkeypatch.setattr(FrameHom, "__init__", weakened(FrameHom.__init__, line, stand_in))
    assert FrameHom(BOOL4, TWO, mapping).mapping == mapping


# One row per clause of validate_nucleus's verdict: the line that holds the
# clause and what a copy without the clause has there, and the smallest
# table that the copy accepts and the real check refuses, with the real
# report.  The meets with any one prime follow from the others'
# (validate_nucleus's docstring); the last row drops two of the three
# primes of the three-point discrete space's opens, keeping that of {a}
NUCLEUS_CLAUSES = {
    "inflation": (
        "settled = all(",
        "settled = all(by_mask[tx] == tx for mx, tx in by_mask.items())",
        TWO,
        {"0": "0", "1": "0"},
        ["not inflationary at '1'"],
    ),
    "idempotence": (
        "settled = all(",
        "settled = all(not mx & ~tx for mx, tx in by_mask.items())",
        CHAIN3,
        {"0": "a", "a": "1", "1": "1"},
        ["not idempotent at '0'"],
    ),
    "meets with every prime": (
        "if settled and _keeps_pairs(",
        "if settled:",
        CHAIN3,
        {"0": "1", "a": "a", "1": "1"},
        [
            "not monotone on ('0', 'a')",
            "does not preserve the meet of ('0', 'a')",
            "does not preserve the meet of ('a', '0')",
        ],
    ),
    "meets with all primes but two": (
        "if settled and _keeps_pairs(",
        "if settled and _keeps_pairs(by_mask, frame._prime_masks()[:1]):",
        DISCRETE3,
        {x: "{a}" if x in ("{}", "{a}") else "{a,b,c}" for x in DISCRETE3.elements},
        [
            "does not preserve the meet of (%r, %r)" % pair
            for pair in [
                ("{a,b}", "{a,c}"), ("{a,b}", "{c}"), ("{a,c}", "{a,b}"), ("{a,c}", "{b}"),
                ("{b}", "{a,c}"), ("{b}", "{c}"), ("{c}", "{a,b}"), ("{c}", "{b}"),
            ]
        ],
    ),
}


@pytest.mark.parametrize("clause", list(NUCLEUS_CLAUSES))
def test_each_clause_of_the_nucleus_verdict_refuses_what_the_copy_without_it_accepts(
    clause, weakened
):
    line, stand_in, frame, table, report = NUCLEUS_CLAUSES[clause]
    assert validate_nucleus(frame, table) == (False, report)
    assert weakened(validate_nucleus, line, stand_in)(frame, table) == (True, [])


def test_essential_primes_examples():
    assert CHAIN3.min_primes("0") == ["0"]
    assert CHAIN3.essential_primes("0") == ["0"]
    assert BOOL4.min_primes("0") == ["x", "y"]
    assert BOOL4.essential_primes("0") == ["x", "y"]
    assert CHAIN3.essential_primes("1") == []


def _literal_essential_primes(frame, x):
    """Reference for essential_primes: the minimal primes above x by
    pairwise comparison, and one meet of all the others per prime."""
    m, top = frame._mask[x], frame._mask[frame.top]
    above = [p for p in frame._prime_masks() if not m & ~p]
    mins = [p for p in above if not any(q != p and not q & ~p for q in above)]
    if reduce(and_, mins, top) != m:
        return []
    return sorted(
        frame._element[p] for p in mins if reduce(and_, [q for q in mins if q != p], top) != m
    )


def test_the_frames_of_a_space_are_the_frames_of_its_labelled_families():
    # the three frames are built from the masks the space holds; the
    # reference parses the labelled sets, as from_sets does for any family
    spaces = 0
    for space in _small_spaces(6):
        families = (
            (frame_of, space.opens()),
            (thomason_frame, space.thomason_sets()),
            (localizing_frame, space.skula_opens()),
        )
        for build, family in families:
            frame, labels = build(space)
            reference, reference_labels = FiniteFrame.from_sets(family)
            assert frame.elements == reference.elements
            assert frame.order._up == reference.order._up
            assert labels == reference_labels
            for x in frame.elements:
                assert frame.essential_primes(x) == _literal_essential_primes(frame, x)
        spaces += 1
    assert spaces == 405


def test_a_frame_of_sets_refuses_two_sets_with_one_label():
    # every subset is open and closed, and the sets {"a,b"} and {"a", "b"}
    # have one label
    space = _space(["a,b", "a", "b"], [])
    for build in (frame_of, thomason_frame, localizing_frame):
        with pytest.raises(InputError, match="two sets share the label"):
            build(space)


def _small_spaces(max_points):
    for n in range(1, max_points + 1):
        for order in enumerate_posets(n):
            yield SpectralSpace(order)


def _brute_force_nucleus_tables(frame):
    """Every subset containing top and closed under meets whose induced
    closure x |-> meet{s in S : x <= s} preserves meets, found by walking all
    subsets."""
    assert len(frame) <= 8
    rest = [x for x in frame.elements if x != frame.top]
    tables = set()
    for k in range(len(rest) + 1):
        for chosen in combinations(rest, k):
            s = set(chosen) | {frame.top}
            if any(frame.meet(a, b) not in s for a in s for b in s):
                continue
            table = {
                x: frame.meet_many(t for t in s if frame.leq(x, t)) for x in frame.elements
            }
            if all(
                table[frame.meet(x, y)] == frame.meet(table[x], table[y])
                for x in frame.elements
                for y in frame.elements
            ):
                tables.add(frozenset(table.items()))
    return tables


def test_assembly_nuclei_match_the_brute_force_reference():
    frames = [frame_of(space)[0] for space in _small_spaces(3)] + [CHAIN3, BOOL4]
    for frame in frames:
        found = {frozenset(nu.table.items()) for nu in assembly(frame).nuclei.values()}
        assert found == _brute_force_nucleus_tables(frame)


def test_meets_and_joins_of_open_set_frames_are_intersections_and_unions():
    for space in _small_spaces(4):
        frame, labels = frame_of(space)
        assert labels[frame.bottom] == frozenset()
        assert labels[frame.top] == frozenset(space.points)
        for x in frame.elements:
            for y in frame.elements:
                assert labels[frame.meet(x, y)] == labels[x] & labels[y]
                assert labels[frame.join(x, y)] == labels[x] | labels[y]


def test_five_point_antichain_assembles_within_a_raised_bound():
    space = _space(list("abcde"), [])
    frame, _ = frame_of(space)
    with pytest.raises(ResourceLimitError) as exc:
        assembly(frame)
    assert exc.value.bound_name == "max-frame"
    asm = assembly(frame, max_size=32)
    assert len(asm.nuclei) == 32
    assert asm.frame.is_boolean()
    # the built assembly is cached on the frame, and the bound still holds
    for call in (lambda: assembly(frame), lambda: sigma(space)):
        with pytest.raises(ResourceLimitError) as exc:
            call()
        assert exc.value.bound_name == "max-frame"
    _psi, is_iso, again = sigma(space, max_size=32)
    assert is_iso and again is asm


def test_sigma_reuses_the_frame_and_assembly_of_each_space(monkeypatch):
    calls = []
    original = frames_module._sublocales

    def counting(frame):
        calls.append(frame)
        return original(frame)

    monkeypatch.setattr(frames_module, "_sublocales", counting)
    spaces = list(_small_spaces(5))
    for space in spaces:
        bound = 2 ** len(space.points)
        frame, _ = frame_of(space)
        asm = assembly(frame, max_size=bound)
        _psi, is_iso, again = sigma(space, max_size=bound)
        assert is_iso and again is asm and asm.base is frame
        assert sigma(space, max_size=bound)[2] is assembly(frame_of(space)[0], max_size=bound)
    # one NextClosure enumeration per space
    assert len(spaces) == 87 and len(calls) == 87


def test_skula_opens_are_generated_once_per_space(monkeypatch):
    calls = []
    original = spectral_module._topology

    def counting(subbasis, labels):
        calls.append(labels)
        return original(subbasis, labels)

    monkeypatch.setattr(spectral_module, "_topology", counting)
    spaces = list(_small_spaces(4))
    for space in spaces:
        skula = space.skula_opens()
        assert len(skula) == 2 ** len(space.points)
        skula.append(frozenset({"junk"}))
        assert sigma(space)[1]
        assert len(space.skula_opens()) == 2 ** len(space.points)
    assert len(calls) == len(spaces) == 24


def test_the_assembly_validates_each_nucleus_once(monkeypatch):
    calls = []
    original = frames_module.validate_nucleus

    def counting(frame, table):
        calls.append(frame)
        return original(frame, table)

    monkeypatch.setattr(frames_module, "validate_nucleus", counting)
    spaces = list(_small_spaces(4))
    nuclei = sum(len(assembly(frame_of(space)[0]).nuclei) for space in spaces)
    # the closed and open nuclei behind alpha are read off the validated ones
    assert len(spaces) == 24 and len(calls) == nuclei == 306


def test_an_assembly_missing_a_closed_nucleus_fails_loudly(monkeypatch):
    original = frames_module._sublocales

    def without_closed_a(frame):
        # the fixed points of y |-> a v y, as a mask over the element
        # positions; the other three nuclei still form a chain
        closed_a = sum(1 << frame.elements.index(x) for x in ("a", "1"))
        return [s for s in original(frame) if s != closed_a]

    monkeypatch.setattr(frames_module, "_sublocales", without_closed_a)
    frame = FiniteFrame(FinitePoset.from_pairs(["0", "a", "1"], [("0", "a"), ("a", "1")]))
    with pytest.raises(AssertionError, match="not a sublocale nucleus"):
        assembly(frame)


def test_sigma_leaves_no_reference_cycles():
    # the frame holds its assembly, which points back to the frame, only
    # weakly: dropping the spaces frees everything without the collector
    spaces = [SpectralSpace(order) for order in enumerate_posets(4)]
    gc.collect()
    gc.disable()
    try:
        verdicts = [sigma(space)[1] for space in spaces]
        del spaces
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert verdicts == [True] * 16


def _values_of(space):
    """The poset, space, frame, hom, nucleus, assembly, support datum and
    eta result of space, and a symbolic Koszul complex."""
    psi, _iso, asm = sigma(space)
    datum = canonical_datum(space)
    symbolic = koszul_stable(2, module_complex(PresentedModule.free(IntegersLocalized(), 1), 0))
    return (
        space.order, space, frame_of(space)[0], psi, next(iter(asm.nuclei.values())), asm,
        datum, construct_eta(datum), symbolic,
    )


def test_posets_spaces_and_frames_refuse_reassignment_and_deletion():
    order = FinitePoset.from_pairs(["g", "m1", "m2"], [("g", "m1"), ("g", "m2")])
    values = _values_of(SpectralSpace(order))
    assert [type(v).__name__ for v in values] == [
        "FinitePoset", "SpectralSpace", "FiniteFrame", "FrameHom", "Nucleus", "AssemblyResult",
        "SupportDatum", "EtaResult", "SymbolicComplex",
    ]
    for obj in values:
        assert isinstance(obj, Immutable)
        for field in type(obj).__slots__ + ("_cache",):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(obj, field, getattr(obj, field))
            with pytest.raises(AttributeError, match="immutable"):
                delattr(obj, field)


def test_no_public_field_of_a_value_is_a_list_dict_or_set():
    # one instance of every public Immutable, records included
    z4 = ModularIntegers(4)
    cx = module_complex(PresentedModule.cyclic(z4, 2), 0)
    lna = LocalNilpotentAlgebra(2, (("x", 2),))
    values = _values_of(VPOSET) + (
        PresentedModule.free(z4, 1), LnaModule.free(lna, 1), cx, cx.cohomology(0),
        derived_tensor_residue(module_complex(PresentedModule.free(IntegersLocalized(), 1)), 2),
        hom_complex_h0(cx, cx), spec(z4), SupportDescriptor(explicit=frozenset({2})),
        IntegersLocalized(), z4, lna,
    )
    classes = {
        cls
        for module in (axioms, frames_module, homalg, poset_module, spectral_module, support)
        for name, cls in vars(module).items()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and not name.startswith("_")
        and issubclass(cls, Immutable)
    }
    assert {type(v) for v in values} == classes
    for value in values:
        fields = [f for cls in type(value).__mro__ for f in getattr(cls, "__slots__", ())]
        public = [f for f in fields if not f.startswith("_")]
        assert public, type(value).__name__
        for field in public:
            assert not isinstance(getattr(value, field), (list, dict, set)), (value, field)


def test_handed_out_nuclei_tables_and_mappings_cannot_change_sigma():
    space = _space(["g", "c"], [("g", "c")])
    psi, iso, asm = sigma(space)
    first = (dict(psi.mapping), iso, dict(asm.nuclei), dict(asm.alpha_complement))
    top = asm.nuclei[asm.frame.top]
    attempts = [
        lambda: asm.nuclei.clear(),
        lambda: top.table.update({x: x for x in top.frame.elements}),
        lambda: psi.mapping.__setitem__(asm.frame.bottom, psi.target.top),
        lambda: asm.alpha.mapping.__setitem__(asm.base.top, asm.frame.bottom),
        lambda: asm.alpha_complement.pop(asm.base.top),
    ]
    for attempt in attempts:
        with pytest.raises((TypeError, AttributeError)):
            attempt()
        again, again_iso, again_asm = sigma(space)
        assert again_asm is asm and again_iso and psi.is_injective()
        assert (dict(again.mapping), again_iso, dict(asm.nuclei), dict(asm.alpha_complement)) == first


def test_a_space_cannot_swap_its_order_under_its_kept_frames():
    space = _space(["a", "b"], [("a", "b")])
    frame, labels = frame_of(space)
    with pytest.raises(AttributeError, match="immutable"):
        space.order = FinitePoset.from_pairs(["u", "v", "w"], [])
    assert space.points == ("a", "b")
    assert frame_of(space) == (frame, labels)
    assert sorted(labels) == ["{a,b}", "{a}", "{}"]


def test_returned_families_and_labels_are_fresh_copies():
    space = VPOSET
    order = space.order
    expected = tuple(
        list(family) for family in (order.down_sets(), order.up_sets(), space.opens(), space.closeds())
    )
    for family in (order.down_sets(), order.up_sets(), space.opens(), space.closeds()):
        family.append(frozenset({"junk"}))
        family.reverse()
    assert (order.down_sets(), order.up_sets(), space.opens(), space.closeds()) == expected
    frame, labels = frame_of(space)
    kept = dict(labels)
    labels.clear()
    frame_of(space)[1][frame.top] = frozenset()
    assert frame_of(space) == (frame, kept)
    assert sigma(space)[1]


def test_frame_homs_counts_on_small_frames():
    # the join-irreducibles of BOOL4 are its atoms, of CHAIN3 "a" and "1"
    assert len(frame_homs(BOOL4, BOOL4)) == 4
    assert len(frame_homs(CHAIN3, CHAIN3)) == 3
    assert len(frame_homs(CHAIN3, BOOL4)) == 4


def _reference_frame_homs(source, target):
    """The search frame_homs made before it moved to the Birkhoff dual: every
    assignment of target elements to the source's join-irreducibles, the
    first varying slowest, extended to each element by the join over the
    join-irreducibles below it, kept when it is its own restriction and a
    hom."""
    joinirr = source.join_irreducibles()
    out = []
    for values in product(target.elements, repeat=len(joinirr)):
        image = dict(zip(joinirr, values))

        def extended(x):
            return target.join_many(image[j] for j in joinirr if source.leq(j, x))

        if any(extended(j) != image[j] for j in joinirr):
            continue
        try:
            out.append(FrameHom(source, target, {x: extended(x) for x in source.elements}))
        except InputError:
            pass
    return out


def test_frame_homs_on_the_dual_are_the_reference_search_in_its_order():
    # opens, Thomason, localizing and assembly frames of every space up to
    # three points: 32 frames, 1,024 ordered pairs
    pool = []
    for space in _small_spaces(3):
        base = frame_of(space)[0]
        pool += [base, thomason_frame(space)[0], localizing_frame(space)[0], assembly(base).frame]
    pairs = homs = 0
    for source in pool:
        for target in pool:
            expected = [dict(h.mapping) for h in _reference_frame_homs(source, target)]
            assert [dict(h.mapping) for h in frame_homs(source, target)] == expected
            pairs += 1
            homs += len(expected)
    assert pairs == 1024 and homs == 10448


def _chain_frame(joinirr):
    """The chain 0 < 1 < ... with the given number of join-irreducibles."""
    names = ["c%02d" % k for k in range(joinirr + 1)]
    return FiniteFrame(FinitePoset.from_pairs(names, list(zip(names, names[1:]))))


def test_frame_hom_search_counts_dual_maps_against_its_bound():
    # |J(CHAIN3)|^|J(target)| = 2^17 = 131,072 maps are searched: a monotone
    # g from the 17-chain to the 2-chain per hom, 18 of them
    assert frames_module.HOM_SEARCH_MAX == 200000
    assert len(frame_homs(CHAIN3, _chain_frame(17))) == 18
    with pytest.raises(ResourceLimitError, match="bound exceeded: 262144 > 200000") as info:
        frame_homs(CHAIN3, _chain_frame(18))
    assert (info.value.bound_name, info.value.bound_value) == ("hom_search", 200000)


def test_sets_with_colliding_labels_are_refused():
    with pytest.raises(InputError, match=r"share the label \{a,b\}"):
        FiniteFrame.from_sets([set(), {"a,b"}, {"a", "b"}])


def test_nuclei_with_colliding_labels_are_refused():
    # in a chain every subset containing top is a sublocale, and the fixed
    # point sets {"a|b", "c"} and {"a", "b", "c"} get the same label
    chain = FiniteFrame(
        FinitePoset.from_pairs(["a", "b", "a|b", "c"], [("a", "b"), ("b", "a|b"), ("a|b", "c")])
    )
    with pytest.raises(InputError, match=r"share the label nu\(a\|b\|c\)"):
        assembly(chain)
