"""Finite spectral spaces presented by their specialization order.

Convention: p <= q means q lies in the closure of {p}.  Open sets are then
exactly the down-sets of the order and closed sets the up-sets, so the
smallest open containing p is down(p) and the smallest closed one up(p).
The point-set predicates are read off those masks, each with its proof in
its docstring; the tests keep the literal computations over every open and
closed set as their reference.  Inside, point sets are the order's bitmasks
(see poset.py); the API takes and returns frozensets of labels.
"""

from functools import reduce
from operator import and_, or_

from .errors import InputError
from .poset import FinitePoset, bits_of, union_family
from .values import Immutable


class SpectralSpace(Immutable):
    # _cache: the Skula opens, the frames of frames.py and sigma's assembly
    __slots__ = ("order",)

    def __init__(self, order):
        if not isinstance(order, FinitePoset):
            raise InputError("SpectralSpace wants a FinitePoset")
        self._freeze(order=order)

    @classmethod
    def from_json(cls, obj):
        return cls(FinitePoset.from_json(obj))

    @property
    def points(self):
        return self.order.elements

    def opens(self):
        return self.order.down_sets()

    def closeds(self):
        return self.order.up_sets()

    def closure(self, s):
        up = self.order._up
        return self.order.set_of(reduce(or_, [up[i] for i in bits_of(self.order.mask_of(s))], 0))

    def thomason_sets(self):
        """For a finite space: exactly the specialization-closed sets, by
        size, then by sorted labels."""
        return self.order.up_sets()

    def is_thomason(self, s):
        return self.order.is_up_set(s)

    def z_set(self, p):
        """The largest Thomason set avoiding p: everything not below p."""
        if p not in self.points:
            raise InputError("unknown point %r" % p)
        order = self.order
        return order.set_of(_full(order) & ~order._down[order._pos[p]])

    def hochster_dual(self):
        return SpectralSpace(self.order.opposite())

    def skula_opens(self):
        """Topology generated by the opens together with the closeds.

        Computed once per space by _topology on the order's masks, as the
        unions of the smallest Skula open of each point: the intersection of
        the opens and closeds containing it.  For a finite T0 space this is
        the discrete topology; it is generated, not assumed, so the
        discreteness is a checked fact.  Sorted by size, then by sorted
        labels, as union_family sorts.
        """
        return list(self._skula()[1])

    def _skula(self):
        """The Skula opens as (masks, sets), in the order of skula_opens()."""
        opens, closeds = self.order.down_set_masks(), self.order.up_set_masks()
        return self._cached("skula", lambda: _topology(opens + closeds, self.points))

    def localising_basic_opens(self):
        """Triples (V, U, V minus U) over all Thomason pairs.  The sets
        V \\ U form the basic opens of the Skula topology of the dual."""
        set_of = self.order.set_of
        return [(set_of(v), set_of(u), set_of(v & ~u)) for v, u in self._localising_pairs()]

    def _localising_pairs(self):
        """The Thomason pairs (V, U) as masks, V varying slowest, both in
        the order of thomason_sets()."""
        thomason = self.order.up_set_masks()
        return [(v, u) for v in thomason for u in thomason]

    def visible_points(self):
        """Points p with {p} = V \\ U for Thomason V, U."""
        pieces = {v & ~u for v, u in self._localising_pairs()}
        return self.order.set_of(sum(t for t in pieces if t and not t & (t - 1)))

    def isolated_points(self, subset=None):
        """Isolated points of the subspace: p with {p} open in the subspace
        topology, that is {p} = V ∩ S for an open V."""
        order = self.order
        mask = _full(order) if subset is None else order.mask_of(subset)
        return order.set_of(self._isolated(mask))

    def _isolated(self, subset):
        """The minimal elements of the subset.  An open V containing p
        contains down(p), so V ∩ S = {p} forces down(p) ∩ S = {p}: p is
        minimal in S.  Conversely down(p) is open, and for p minimal in S,
        down(p) ∩ S = {p}."""
        return sum(1 << i for i, d in enumerate(self.order._down) if d & subset == 1 << i)

    def weakly_isolated_points(self, closed):
        """Points p of the closed set with an open V such that
        V ∩ closed ⊆ closure{p} (with p inside).

        These are the isolated points of the closed set C: such a V contains
        down(p), so down(p) ∩ C ⊆ down(p) ∩ up(p) = {p}, and p is minimal
        in C; for p minimal in C, V = down(p) meets C in {p} ⊆ up(p)."""
        closed = frozenset(closed)
        if not self.order.is_up_set(closed):
            raise InputError("weakly_isolated_points wants a closed (up-)set")
        return self.order.set_of(self._isolated(self.order.mask_of(closed)))

    def cb_rank(self):
        """Iterated removal of isolated points of the leftover closed
        subspace; the rank is the number of rounds until nothing is left.
        Returns None when the process stalls (cannot happen on a finite T0
        space, but the stall case is detected, not assumed away)."""
        remaining, rank = _full(self.order), 0
        while remaining:
            isolated = self._isolated(remaining)
            if not isolated:
                return None
            remaining &= ~isolated
            rank += 1
        return rank

    def is_t_half(self):
        """Every singleton is (open ∩ closed).  An open V and a closed C
        containing p contain down(p) and up(p), so {p} = V ∩ C for some such
        pair exactly when down(p) ∩ up(p) = {p}."""
        order = self.order
        return all(d & u == 1 << i for i, (d, u) in enumerate(zip(order._down, order._up)))

    def is_scattered(self):
        """Every nonempty closed subset has an isolated point."""
        return all(self._isolated(c) for c in self.order.up_set_masks() if c)

    def is_weakly_scattered(self):
        """Every nonempty closed set has a weakly isolated (= isolated) point."""
        return self.is_scattered()

    def is_hochster_weakly_scattered(self):
        return self.hochster_dual().is_weakly_scattered()

    def __eq__(self, other):
        return isinstance(other, SpectralSpace) and self.order == other.order

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return "SpectralSpace(%r)" % (self.order,)


def _full(order):
    return (1 << len(order.elements)) - 1


def generate_topology(subbasis, universe):
    """All unions of finite intersections of the subbasis sets (plus the
    whole space as the empty intersection), sorted for determinism: the
    label-to-mask front end of _topology.  Points outside the universe are
    ignored."""
    points = sorted(set(universe))
    bit = {p: 1 << i for i, p in enumerate(points)}
    return list(_topology([sum(bit.get(p, 0) for p in set(s)) for s in subbasis], points)[1])


def _topology(subbasis, labels):
    """The topology generated by the subbasis masks (bit i stands for
    labels[i]), as union_family gives it: (masks, sets).

    Every point p has a smallest open U_p: the intersection of the subbasis
    sets containing p (the whole space when none does).  On a finite set an
    open is a union of finite intersections, each of which contains U_p for
    each of its points p, so the opens are exactly the unions of the U_p.
    """
    n = len(labels)
    smallest = [reduce(and_, [m for m in subbasis if m >> i & 1], (1 << n) - 1) for i in range(n)]
    return union_family(smallest, labels)
