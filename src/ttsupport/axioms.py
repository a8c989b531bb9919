"""Abstract support data on a finite spectral space.

A datum is a frame map gamma from the Thomason sets of a space into an
abstract ("Bousfield") frame, together with recorded complements of the
image elements.  When the complements really are complements, gamma extends
through the frame of all localizing subsets (every subset of the finite
point set) by writing a subset as a union of differences of Thomason sets;
construct_eta builds that extension and stress-tests its independence of
the chosen presentation with randomized covers.
"""

import random
from functools import reduce
from operator import or_

from .errors import InputError
from .frames import FiniteFrame, FrameHom, frame_homs, set_label
from .poset import FinitePoset, bits_of
from .spectral import SpectralSpace


def thomason_frame(space):
    """Frame of Thomason (= up-) sets of a finite spectral space."""
    return FiniteFrame.from_sets(space.thomason_sets())


def localizing_frame(space):
    """Frame of opens for the localizing topology: the Skula opens of the
    Hochster dual, computed from the generated topology (and checked to be
    the full powerset elsewhere, not assumed).  The dual's opens and closeds
    are the space's closeds and opens, and generate_topology neither depends
    on the order of its subbasis nor leaves its output unsorted, so the
    Skula opens the space itself keeps are the same list."""
    return FiniteFrame.from_sets(space.skula_opens())


def _strings(raw):
    return isinstance(raw, list) and all(isinstance(x, str) for x in raw)


class SupportDatum:
    """(space, bousfield frame, gamma, recorded complements).

    gamma must be a frame map out of the Thomason frame; the recorded
    complements are validated separately by check_complements so that
    non-complemented data can be represented and rejected downstream."""

    __slots__ = ("space", "bousfield", "gamma", "complements", "tframe", "tlabels")

    def __init__(self, space, bousfield, gamma, complements=None):
        if not isinstance(space, SpectralSpace):
            raise InputError("datum needs a SpectralSpace")
        if not isinstance(bousfield, FiniteFrame):
            raise InputError("datum needs a FiniteFrame target")
        self.space = space
        self.bousfield = bousfield
        self.tframe, self.tlabels = thomason_frame(space)
        self.gamma = FrameHom(self.tframe, bousfield, dict(gamma))
        if complements is None:
            complements = {}
            for v in self.tframe.elements:
                complements[v] = bousfield.complement(self.gamma(v))
        self.complements = dict(complements)

    @classmethod
    def from_json(cls, obj):
        """gamma is a list of [sorted point list, element] pairs; complements
        a list of [element, complement] pairs keyed by image elements."""
        required = {"space", "bousfield", "gamma", "complements"}
        if not isinstance(obj, dict) or not required <= set(obj):
            raise InputError("datum JSON needs space/bousfield/gamma/complements")
        space = SpectralSpace.from_json(obj["space"])
        bous = FiniteFrame(FinitePoset.from_json(obj["bousfield"]))
        gamma, comps = obj["gamma"], obj["complements"]
        if not isinstance(gamma, list) or not all(
            isinstance(e, list) and len(e) == 2 and _strings(e[0]) and isinstance(e[1], str)
            for e in gamma
        ):
            raise InputError(
                "gamma must be a list of [thomason-set, element] pairs, "
                "each set a list of point strings"
            )
        if not isinstance(comps, list) or not all(_strings(e) and len(e) == 2 for e in comps):
            raise InputError("complements must be a list of [element, element] string pairs")
        thomason = set(space.thomason_sets())
        for points, _element in gamma:
            if frozenset(points) not in thomason:
                raise InputError("gamma set %s is not a Thomason set" % set_label(points))
        gamma = _pairs_once(
            ((set_label(frozenset(points)), element) for points, element in gamma),
            "the Thomason set %s is listed twice in gamma, with %r and %r",
        )
        comp_by_element = _pairs_once(
            map(tuple, comps), "the element %r is listed twice in complements, with %r and %r"
        )
        complements = {v: comp_by_element.get(g) for v, g in gamma.items()}
        return cls(space, bous, gamma, complements)

    def to_json(self):
        return {
            "space": self.space.order.to_json(),
            "bousfield": self.bousfield.order.to_json(),
            "gamma": [
                [sorted(self.tlabels[v]), self.gamma(v)]
                for v in sorted(self.tframe.elements)
            ],
            "complements": sorted(
                {(self.gamma(v), self.complements[v]) for v in self.tframe.elements}
            ),
        }


def _pairs_once(pairs, refusal):
    """The (key, value) pairs as a dict; a key listed twice must come with
    one value."""
    out = {}
    for key, value in pairs:
        if out.setdefault(key, value) != value:
            raise InputError(refusal % (key, out[key], value))
    return out


def check_complements(datum):
    """Verify every recorded complement against the frame operations.
    Returns (ok, list of offending Thomason labels).  The Bousfield frame is
    distributive, so gamma(v) has at most one complement, the one that
    FiniteFrame.complement finds (None when there is none)."""
    b = datum.bousfield
    truth = {v: b.complement(datum.gamma(v)) for v in datum.tframe.elements}
    bad = [v for v, c in truth.items() if c is None or datum.complements.get(v) != c]
    return not bad, bad


class EtaResult:
    __slots__ = ("hom", "frame", "labels", "cover_checks")

    def __init__(self, hom, frame, labels, cover_checks):
        self.hom = hom
        self.frame = frame
        self.labels = labels
        self.cover_checks = cover_checks


def construct_eta(datum, samples=50, seed=0):
    """Extend gamma to the localizing frame.

    Each subset S of the point set is covered by its singletons, and each
    singleton {p} is (smallest Thomason set containing p) minus (that set
    without p); eta(S) is the join of gamma(V_p) ∧ complement(gamma(U_p)).
    Raises InputError when the datum is not complemented.  Independence of
    the cover is then sampled: `samples` random alternative Thomason-pair
    covers per subset must give the same value.

    Once eta is a FrameHom extending gamma and each c(U) complements
    gamma(U), no cover can fail: in the Boolean localizing frame V minus U
    is V ∧ ¬U, and eta(¬U), a complement of eta(U) = gamma(U), is c(U) in
    the distributive target, so a piece's value is eta of the piece and a
    cover's value, their join, is eta of their union.  cover_checks counts
    the covers drawn.
    """
    ok, bad = check_complements(datum)
    if not ok:
        raise InputError("datum not complemented at %s" % ", ".join(sorted(bad)))
    space = datum.space
    b = datum.bousfield
    lframe, llabels = localizing_frame(space)
    order = space.order
    # point sets as masks over the points, values as masks of b: gamma and
    # the recorded complement of each Thomason set
    points = {label: order.mask_of(s) for label, s in llabels.items()}
    thomason = {v: order.mask_of(s) for v, s in datum.tlabels.items()}
    gamma = {thomason[v]: b._mask[datum.gamma(v)] for v in thomason}
    complement = {thomason[v]: b._mask[datum.complements[v]] for v in thomason}

    def pair_value(v, u):
        return gamma[v] & complement[u]

    up = order._up
    singleton = [pair_value(u, u & ~(1 << p)) for p, u in enumerate(up)]
    value = {
        label: reduce(or_, [singleton[p] for p in bits_of(points[label])], 0)
        for label in lframe.elements
    }
    eta = FrameHom(lframe, b, {label: b._element[v] for label, v in value.items()})
    of_set = {points[label]: v for label, v in value.items()}
    for v in datum.tframe.elements:
        if of_set[thomason[v]] != gamma[thomason[v]]:
            raise InputError("eta does not extend gamma at %s" % v)

    # random covers by the basic opens V minus U, each with its value
    rng = random.Random(seed)
    pairs = [(v & ~u, pair_value(v, u)) for v, u in space._localising_pairs()]
    cover_checks = 0
    for label in sorted(lframe.elements):
        s = points[label]
        usable = [t for t in pairs if not t[0] & ~s]
        tried = 0
        found = 0
        while found < samples and tried < samples * 20:
            tried += 1
            take = rng.sample(usable, min(len(usable), rng.randint(1, s.bit_count() + 2) if s else 1))
            union = cover = 0
            for piece, piece_value in take:
                union |= piece
                cover |= piece_value
            if union != s:
                continue
            found += 1
            if cover != value[label]:
                raise InputError(
                    "eta value depends on the chosen cover at %s" % label
                )
        cover_checks += found
    return EtaResult(eta, lframe, llabels, cover_checks)


def eta_is_unique(datum, eta_result):
    """Exhaustive search over frame homs out of the localizing frame that
    extend gamma; True when the constructed eta is the only one."""
    # each Thomason set's label in the localizing frame, and its gamma
    gamma = {set_label(datum.tlabels[v]): datum.gamma(v) for v in datum.tframe.elements}
    matches = [
        h
        for h in frame_homs(eta_result.frame, datum.bousfield)
        if all(h(x) == g for x, g in gamma.items())
    ]
    return len(matches) == 1 and matches[0].mapping == eta_result.hom.mapping


def is_supportive(datum, samples=20, seed=0):
    """True when the datum is complemented and gamma extends to the
    localizing frame; (False, reason) otherwise."""
    ok, bad = check_complements(datum)
    if not ok:
        return False, "missing or wrong complements at: %s" % ", ".join(sorted(bad))
    try:
        construct_eta(datum, samples=samples, seed=seed)
    except InputError as exc:
        return False, str(exc)
    return True, ""


def canonical_datum(space):
    """The tautological datum: Bousfield frame = the frame of localizing
    subsets (every subset of the point set), gamma = inclusion of Thomason
    sets, complements = set complements."""
    points = frozenset(space.points)
    bous = localizing_frame(space)[0]
    gamma = {set_label(t): set_label(t) for t in space.thomason_sets()}
    complements = {
        set_label(t): set_label(points - t) for t in space.thomason_sets()
    }
    return SupportDatum(space, bous, gamma, complements)
