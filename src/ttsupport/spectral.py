"""Finite spectral spaces presented by their specialization order.

Convention: p <= q means q lies in the closure of {p}.  Open sets are then
exactly the down-sets of the order and closed sets the up-sets.  All
topological notions below are computed literally from those set systems, not
through order-theoretic shortcuts, so that the order-level facts can be
cross-checked against them in tests.  Inside, point sets are the order's
bitmasks (see poset.py); the API takes and returns frozensets of labels.
"""

from .errors import InputError
from .poset import FinitePoset, bits_of, union_family


class SpectralSpace:
    # _cache: the Skula opens, the frames of frames.py and sigma's assembly
    __slots__ = ("order", "_cache")

    def __init__(self, order):
        if not isinstance(order, FinitePoset):
            raise InputError("SpectralSpace wants a FinitePoset")
        self.order = order
        self._cache = {}

    def _cached(self, key, compute):
        """compute(), computed on the first call with this key only."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

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
        out = 0
        for i in bits_of(self.order.mask_of(s)):
            out |= self.order._up[i]
        return self.order.set_of(out)

    def thomason_sets(self):
        """For a finite space: exactly the specialization-closed sets."""
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

        Computed once per space by generate_topology, as the unions of the
        smallest Skula open of each point: the intersection of the opens and
        closeds containing it.  For a finite T0 space this is the discrete
        topology; it is generated, not assumed, so the discreteness is a
        checked fact.
        """
        skula = self._cached("skula", lambda: generate_topology(self.opens() + self.closeds(), self.points))
        return list(skula)

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
        topology.  Checked literally against every open of the ambient
        space."""
        order = self.order
        mask = _full(order) if subset is None else order.mask_of(subset)
        return order.set_of(self._isolated(mask))

    def _isolated(self, subset):
        # the subspace opens are the traces of the opens; the isolated
        # points are the singletons among them
        traces = {v & subset for v in self.order.down_set_masks()}
        return sum(t for t in traces if t and not t & (t - 1))

    def weakly_isolated_points(self, closed):
        """Points p of the closed set with an open V such that
        V ∩ closed ⊆ closure{p} (with p inside)."""
        closed = frozenset(closed)
        if not self.order.is_up_set(closed):
            raise InputError("weakly_isolated_points wants a closed (up-)set")
        return self.order.set_of(self._weakly_isolated(self.order.mask_of(closed)))

    def _weakly_isolated(self, closed):
        opens = self.order.down_set_masks()
        out = 0
        for i in bits_of(closed):
            bit, cl = 1 << i, self.order._up[i]
            if any(v & bit and not v & closed & ~cl for v in opens):
                out |= bit
        return out

    def cb_rank(self):
        """Iterated removal of isolated points of the leftover closed
        subspace; the rank is the number of rounds until nothing is left.
        Returns None when the process stalls (cannot happen on a finite T0
        space, but the stall case is detected, not assumed away)."""
        remaining = _full(self.order)
        rank = 0
        while remaining:
            isolated = self._isolated(remaining)
            if not isolated:
                return None
            remaining &= ~isolated
            rank += 1
        return rank

    def is_t_half(self):
        """Every singleton is (open ∩ closed)."""
        order = self.order
        pieces = {v & c for v in order.down_set_masks() for c in order.up_set_masks()}
        return all(1 << i in pieces for i in range(len(self.points)))

    def is_scattered(self):
        """Every nonempty closed subset has an isolated point."""
        return all(self._isolated(c) for c in self.order.up_set_masks() if c)

    def is_weakly_scattered(self):
        """Every nonempty closed subset has a weakly isolated point."""
        return all(self._weakly_isolated(c) for c in self.order.up_set_masks() if c)

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
    whole space as the empty intersection).  Sorted for determinism.

    Every point p has a smallest open U_p: the intersection of the subbasis
    sets containing p (the whole space when none does).  On a finite set an
    open is a union of finite intersections, each of which contains U_p for
    each of its points p, so the opens are exactly the unions of the U_p.
    """
    points = sorted(set(universe))
    bit = {p: 1 << i for i, p in enumerate(points)}
    smallest = [(1 << len(points)) - 1] * len(points)
    for s in subbasis:
        m = sum(bit.get(p, 0) for p in set(s))
        for i in bits_of(m):
            smallest[i] &= m
    return [s for _m, s in union_family(smallest, points)]
