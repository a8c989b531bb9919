"""Finite spectral spaces: topologies, duality, rank, scatteredness."""

import random

from ttsupport.poset import FinitePoset, enumerate_posets
from ttsupport.spectral import SpectralSpace, generate_topology


def _space(elements, pairs):
    return SpectralSpace(FinitePoset.from_pairs(elements, pairs))


CHAIN2 = _space(["g", "c"], [("g", "c")])
A2 = _space(["a", "b"], [])
VPOSET = _space(["g", "m1", "m2"], [("g", "m1"), ("g", "m2")])


def test_opens_are_down_sets_and_closeds_are_up_sets():
    assert {frozenset(s) for s in CHAIN2.opens()} == {
        frozenset(),
        frozenset({"g"}),
        frozenset({"g", "c"}),
    }
    assert {frozenset(s) for s in CHAIN2.closeds()} == {
        frozenset(),
        frozenset({"c"}),
        frozenset({"g", "c"}),
    }


def test_closure_of_a_point_is_its_specialization_set():
    assert CHAIN2.closure({"g"}) == {"g", "c"}
    assert VPOSET.closure({"m1"}) == {"m1"}


def test_thomason_sets_are_the_up_sets():
    assert {frozenset(s) for s in CHAIN2.thomason_sets()} == {
        frozenset(),
        frozenset({"c"}),
        frozenset({"c", "g"}),
    }
    assert len(VPOSET.thomason_sets()) == 5


def test_hochster_dual_reverses_the_order_and_is_involutive():
    dual = CHAIN2.hochster_dual()
    assert dual.order.leq("c", "g")
    for order in enumerate_posets(4):
        space = SpectralSpace(order)
        assert space.hochster_dual().hochster_dual() == space


def test_skula_topology_is_discrete_on_finite_spaces():
    for order in enumerate_posets(4):
        space = SpectralSpace(order)
        n = len(space.points)
        assert len(space.skula_opens()) == 2 ** n


def test_z_set_is_the_largest_thomason_set_missing_the_point():
    for order in enumerate_posets(4):
        space = SpectralSpace(order)
        for p in space.points:
            z = space.z_set(p)
            assert space.is_thomason(z) and p not in z
            for v in space.thomason_sets():
                if p not in v:
                    assert v <= z


def test_visible_points_of_finite_spaces_are_all_points():
    for order in enumerate_posets(3):
        space = SpectralSpace(order)
        assert space.visible_points() == set(space.points)


def test_localising_basic_opens_are_the_thomason_differences_in_order():
    for order in enumerate_posets(3):
        space = SpectralSpace(order)
        thomason = space.thomason_sets()
        assert space.localising_basic_opens() == [(v, u, v - u) for v in thomason for u in thomason]


def test_cb_rank_strips_isolated_points_round_by_round():
    assert CHAIN2.cb_rank() == 2
    assert A2.cb_rank() == 1
    assert VPOSET.cb_rank() == 2
    chain3 = _space(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert chain3.cb_rank() == 3


def test_finite_t0_spaces_are_scattered_and_t_half():
    for order in enumerate_posets(3):
        space = SpectralSpace(order)
        assert space.is_scattered()
        assert space.is_weakly_scattered()
        assert space.is_t_half()
        assert space.is_hochster_weakly_scattered()


def test_weakly_isolated_points_witness_an_open_inside_the_closure():
    closed = frozenset({"m1", "m2", "g"})
    wks = VPOSET.weakly_isolated_points(closed)
    assert "g" in wks


def test_generate_topology_closes_under_unions_and_intersections():
    universe = {"a", "b", "c"}
    tops = generate_topology([{"a"}, {"b"}], universe)
    as_sets = {frozenset(s) for s in tops}
    assert frozenset({"a", "b"}) in as_sets
    assert frozenset() in as_sets and frozenset(universe) in as_sets


def _literal_topology(subbasis, universe):
    """Reference for generate_topology on frozensets: close under pairwise
    intersection, then under pairwise union, until nothing new appears."""
    universe = frozenset(universe)
    basis = {universe}
    frontier = {universe}
    while frontier:
        frontier = {b & frozenset(s) for b in frontier for s in subbasis} - basis
        basis |= frontier
    opens = {frozenset()}
    frontier = {frozenset()}
    while frontier:
        frontier = {o | b for o in frontier for b in basis} - opens
        opens |= frontier
    return sorted(opens, key=lambda s: (len(s), tuple(sorted(s))))


def test_generate_topology_agrees_with_the_literal_closure_on_seeded_subbases():
    rng = random.Random(5)
    names = ["a", "b", "c", "d", "e", "xy", "q1"]
    for _ in range(300):
        universe = rng.sample(names, rng.randint(0, 6))
        # subbasis sets may reach outside the universe; only their traces count
        subbasis = [
            set(rng.sample(names, rng.randint(0, 4))) for _ in range(rng.randint(0, 5))
        ]
        assert generate_topology(subbasis, universe) == _literal_topology(subbasis, universe)


def test_generate_topology_agrees_with_the_literal_closure_on_every_skula_subbasis():
    # the opens and closeds of every space up to six points and of its
    # Hochster dual, as skula_opens passes them
    checked = 0
    for n in range(1, 7):
        for order in enumerate_posets(n):
            for space in (SpectralSpace(order), SpectralSpace(order.opposite())):
                subbasis = space.opens() + space.closeds()
                expected = _literal_topology(subbasis, space.points)
                assert generate_topology(subbasis, space.points) == expected
                checked += 1
    assert checked == 2 * 405


def _literal_isolated(space, subset):
    return {p for p in subset if any(v & subset == {p} for v in space.opens())}


def _literal_weakly_isolated(space, closed):
    return {
        p
        for p in closed
        if any(p in v and v & closed <= space.order.up_set(p) for v in space.opens())
    }


def _literal_cb_rank(space):
    remaining, rank = frozenset(space.points), 0
    while remaining:
        remaining -= _literal_isolated(space, remaining)
        rank += 1
    return rank


def test_point_set_answers_agree_with_literal_set_computations():
    # the answers are read off the order's masks; the references intersect
    # every open with every closed set, on every space up to 6 points and on
    # its Hochster dual
    checked = 0
    for n in range(1, 7):
        for base in enumerate_posets(n):
            for order in (base, base.opposite()):
                space = SpectralSpace(order)
                points = frozenset(space.points)
                closeds = [c for c in space.closeds() if c]
                for c in closeds:
                    assert space.isolated_points(c) == _literal_isolated(space, c)
                    assert space.weakly_isolated_points(c) == _literal_weakly_isolated(space, c)
                assert space.isolated_points() == _literal_isolated(space, points)
                assert space.cb_rank() == _literal_cb_rank(space)
                assert space.is_t_half() == all(
                    any(v & c == {p} for v in space.opens() for c in space.closeds())
                    for p in points
                )
                assert space.is_scattered() == all(_literal_isolated(space, c) for c in closeds)
                assert space.is_weakly_scattered() == all(
                    _literal_weakly_isolated(space, c) for c in closeds
                )
                for p in points:
                    assert space.z_set(p) == {q for q in points if not order.leq(q, p)}
                    assert space.closure({p}) == order.up_set(p)
                checked += 1
    assert checked == 2 * 405
