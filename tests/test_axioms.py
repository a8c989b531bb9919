"""Abstract support data: gamma, complements, and the eta factorization."""

import json

import pytest

from ttsupport import battery, spectral
from ttsupport.axioms import (
    SupportDatum,
    canonical_datum,
    check_complements,
    construct_eta,
    eta_is_unique,
    is_supportive,
    localizing_frame,
    thomason_frame,
)
from ttsupport.errors import InputError
from ttsupport.frames import FiniteFrame, frame_of, set_label, universal_factorization, sigma
from ttsupport.poset import FinitePoset, enumerate_posets
from ttsupport.spectral import SpectralSpace


def _space(elements, pairs):
    return SpectralSpace(FinitePoset.from_pairs(elements, pairs))


CHAIN2 = _space(["g", "c"], [("g", "c")])
A2 = _space(["a", "b"], [])


def test_thomason_frame_is_the_frame_of_up_sets():
    frame, labels = thomason_frame(CHAIN2)
    assert len(frame) == 3
    dual_opens, _ = frame_of(CHAIN2.hochster_dual())
    assert frame.is_isomorphic_to(dual_opens)
    frame, _ = thomason_frame(A2)
    assert len(frame) == 4


def test_localizing_frame_of_a_finite_space_is_the_powerset():
    frame, _ = localizing_frame(CHAIN2)
    assert len(frame) == 4
    assert frame.is_boolean()


def test_the_localizing_frame_is_the_frame_of_the_duals_skula_opens():
    spaces = 0
    for n in range(1, 6):
        for order in enumerate_posets(n):
            space = SpectralSpace(order)
            frame, labels = localizing_frame(space)
            reference, reference_labels = FiniteFrame.from_sets(space.hochster_dual().skula_opens())
            assert frame.elements == reference.elements
            assert frame.order == reference.order
            assert labels == reference_labels
            spaces += 1
    assert spaces == 1 + 2 + 5 + 16 + 63


def test_one_datum_generates_its_topology_once(monkeypatch):
    calls = []
    generate = spectral._topology
    monkeypatch.setattr(
        spectral, "_topology", lambda *args: (calls.append(args), generate(*args))[1]
    )
    space = _space(["a", "b", "c", "d"], [("a", "b"), ("a", "c")])
    datum = canonical_datum(space)
    assert eta_is_unique(datum, construct_eta(datum))
    assert len(calls) == 1


@pytest.fixture
def builds(monkeypatch):
    """How often a frame of sets is built and a topology generated while the
    test runs: through the one constructor FiniteFrame._from_family, which
    from_sets and the three frame builders call, and the one routine
    spectral._topology, which skula_opens and generate_topology call."""
    counts = {"frames": 0, "topologies": 0}
    from_family, generate = FiniteFrame._from_family.__func__, spectral._topology

    def counting_from_family(cls, masks, sets):
        counts["frames"] += 1
        return from_family(cls, masks, sets)

    def counting_generate(*args):
        counts["topologies"] += 1
        return generate(*args)

    monkeypatch.setattr(FiniteFrame, "_from_family", classmethod(counting_from_family))
    monkeypatch.setattr(spectral, "_topology", counting_generate)
    return counts


def test_sigma_and_one_datum_build_each_frame_of_the_space_once(builds):
    space = _space(["a", "b", "c"], [("a", "b"), ("a", "c")])
    psi, _iso, _asm = sigma(space)
    datum = canonical_datum(space)
    result = construct_eta(datum)
    assert eta_is_unique(datum, result)
    # the opens, the Thomason sets and the localizing subsets, each once; the
    # localizing frame is sigma's target, the Bousfield frame and eta's source
    assert builds == {"frames": 3, "topologies": 1}
    assert psi.target is datum.bousfield is result.frame is localizing_frame(space)[0]
    assert datum.tframe is thomason_frame(space)[0]


def test_the_battery_builds_each_frame_of_a_space_once(builds):
    # criterion 10 reads its small spaces from the pool, whose frames sigma
    # has built
    battery.run_battery(seed=battery.DEFAULT_SEED, samples=1)
    assert builds == {"frames": 70, "topologies": 31}


def test_a_space_keeps_its_frames_and_hands_out_copies():
    assert SpectralSpace.__slots__ == ("order", "_cache")
    space = _space(["a", "b", "c"], [("a", "b")])
    opens = space.skula_opens()
    opens.append(frozenset({"junk"}))
    assert space.skula_opens() == opens[:-1]
    for build in (frame_of, thomason_frame, localizing_frame):
        frame, labels = build(space)
        kept = dict(labels)
        labels.clear()
        assert build(space) == (frame, kept)
        assert build(space)[0] is frame


def _powerset_frame(space):
    """The frame of all subsets of the points, built from the subsets."""
    subsets = [frozenset()]
    for p in sorted(space.points):
        subsets += [s | {p} for s in subsets]
    return FiniteFrame.from_sets(subsets)[0]


def test_the_canonical_bousfield_frame_is_the_hand_built_powerset():
    spaces = 0
    for n in range(1, 5):
        for order in enumerate_posets(n):
            space = SpectralSpace(order)
            frame, reference = canonical_datum(space).bousfield, _powerset_frame(space)
            assert frame.elements == reference.elements
            assert frame.order == reference.order
            assert frame.order.to_json() == reference.order.to_json()
            spaces += 1
    assert spaces == 1 + 2 + 5 + 16


def test_canonical_datum_is_complemented_and_supportive():
    for space in (CHAIN2, A2):
        datum = canonical_datum(space)
        ok, bad = check_complements(datum)
        assert ok and not bad
        supportive, _reason = is_supportive(datum)
        assert supportive


def _meet_join_verdict(datum):
    """The Thomason labels whose recorded complement is missing, not an
    element, or fails c ∧ gamma(v) = bottom or c ∨ gamma(v) = top."""
    b = datum.bousfield
    bad = []
    for v in datum.tframe.elements:
        c, img = datum.complements.get(v), datum.gamma(v)
        if c is None or c not in b.elements or b.meet(img, c) != b.bottom or b.join(img, c) != b.top:
            bad.append(v)
    return bad


def test_check_complements_gives_the_verdict_of_the_meet_join_rule():
    checked = 0
    for n in range(1, 4):
        for order in enumerate_posets(n):
            datum = canonical_datum(SpectralSpace(order))
            for v in datum.tframe.elements:
                for c in [*datum.bousfield.elements, None, "not an element"]:
                    forged = SupportDatum(
                        datum.space,
                        datum.bousfield,
                        datum.gamma.mapping,
                        {**datum.complements, v: c},
                    )
                    bad = _meet_join_verdict(forged)
                    assert check_complements(forged) == (not bad, bad)
                    checked += 1
    assert checked == 330


def test_eta_exists_is_unique_and_extends_gamma():
    datum = canonical_datum(CHAIN2)
    result = construct_eta(datum)
    assert result.hom is not None
    assert eta_is_unique(datum, result)
    # eta restricted along the Thomason inclusion reproduces gamma
    for t in datum.tframe.elements:
        skula_label = set_label(datum.tlabels[t])
        assert result.hom(skula_label) == datum.gamma(t)


def test_eta_agrees_with_factorization_through_the_assembly():
    # both constructions express the same universal map on closed pieces
    space = CHAIN2
    datum = canonical_datum(space)
    result = construct_eta(datum)
    psi, is_iso, asm = sigma(space)
    assert is_iso
    # with the powerset as target and gamma the inclusion, eta is the
    # identity on labels, so eta . psi . alpha fixes every open
    for x in asm.base.elements:
        assert result.hom(psi(asm.alpha(x))) == x


def test_eta_exists_for_every_complemented_datum_on_small_spaces():
    for n in range(1, 4):
        for order in enumerate_posets(n):
            datum = canonical_datum(SpectralSpace(order))
            result = construct_eta(datum)
            assert result.hom is not None
            assert eta_is_unique(datum, result)


def test_eta_draws_the_pinned_covers_on_small_spaces():
    # the number of sampled covers that hit their set, per space up to three
    # points in enumeration order, pins the random draws
    checks = [
        construct_eta(canonical_datum(SpectralSpace(order)), seed=42).cover_checks
        for n in range(1, 4)
        for order in enumerate_posets(n)
    ]
    assert checks == [100, 200, 200, 400, 400, 400, 400, 384]


def test_non_complemented_data_are_rejected():
    # identity gamma into the non-Boolean frame of Thomason sets: the middle
    # element has no complement
    space = CHAIN2
    tframe, _labels = thomason_frame(space)
    gamma = {t: t for t in tframe.elements}
    with pytest.raises(InputError):
        datum = SupportDatum(space, tframe, gamma)
        ok, bad = check_complements(datum)
        if not ok:
            raise InputError("missing complements: %r" % bad)


def test_datum_json_round_trip():
    datum = canonical_datum(CHAIN2)
    blob = json.dumps(datum.to_json(), sort_keys=True)
    again = SupportDatum.from_json(json.loads(blob))
    assert json.dumps(again.to_json(), sort_keys=True) == blob


def test_datum_json_requires_all_fields():
    with pytest.raises(InputError):
        SupportDatum.from_json({"space": CHAIN2.order.to_json()})


def test_failing_eta_row_names_the_exception(monkeypatch):
    def boom(*_args, **_kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(battery, "construct_eta", boom)
    row = battery.criterion_eta_factorization(spaces=battery._space_pool(3))
    assert not row["passed"]
    assert "RuntimeError: boom" in row["detail"]
