"""Finite spectral spaces presented by their specialization order.

Convention: p <= q means q lies in the closure of {p}.  Open sets are then
exactly the down-sets of the order and closed sets the up-sets.  All
topological notions below are computed literally from those set systems, not
through order-theoretic shortcuts, so that the order-level facts can be
cross-checked against them in tests.
"""

from .errors import InputError
from .poset import FinitePoset


class SpectralSpace:
    # _frame holds frames.frame_of(self) once it has been built
    __slots__ = ("order", "_frame")

    def __init__(self, order):
        if not isinstance(order, FinitePoset):
            raise InputError("SpectralSpace wants a FinitePoset")
        self.order = order
        self._frame = None

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
        out = set()
        for p in s:
            out |= self.order.up_set(p)
        return frozenset(out)

    def thomason_sets(self):
        """For a finite space: exactly the specialization-closed sets."""
        return self.order.up_sets()

    def is_thomason(self, s):
        return self.order.is_up_set(s)

    def z_set(self, p):
        """The largest Thomason set avoiding p: everything not below p."""
        if p not in self.points:
            raise InputError("unknown point %r" % p)
        return frozenset(q for q in self.points if not self.order.leq(q, p))

    def hochster_dual(self):
        return SpectralSpace(self.order.opposite())

    def skula_opens(self):
        """Topology generated by the opens together with the closeds.

        Computed by closing { opens } ∪ { closeds } under finite
        intersection and then arbitrary union.  For a finite T0 space this
        is the discrete topology; the generic construction is kept so the
        discreteness is a checked fact and not an assumption.
        """
        return generate_topology(list(self.opens()) + list(self.closeds()), self.points)

    def localising_basic_opens(self):
        """Triples (V, U, V minus U) over all Thomason pairs.  The sets
        V \\ U form the basic opens of the Skula topology of the dual."""
        thomason = self.thomason_sets()
        out = []
        for v in thomason:
            for u in thomason:
                out.append((v, u, v - u))
        return out

    def visible_points(self):
        """Points p with {p} = V \\ U for Thomason V, U."""
        singletons = {t[2] for t in self.localising_basic_opens() if len(t[2]) == 1}
        return frozenset(next(iter(s)) for s in singletons)

    def isolated_points(self, subset=None):
        """Isolated points of the subspace: p with {p} open in the subspace
        topology.  Checked literally against every open of the ambient
        space."""
        subset = frozenset(self.points if subset is None else subset)
        opens = self.opens()
        out = set()
        for p in subset:
            if any(v & subset == {p} for v in opens):
                out.add(p)
        return frozenset(out)

    def weakly_isolated_points(self, closed):
        """Points p of the closed set with an open V such that
        V ∩ closed ⊆ closure{p} (with p inside)."""
        closed = frozenset(closed)
        if not self.order.is_up_set(closed):
            raise InputError("weakly_isolated_points wants a closed (up-)set")
        opens = self.opens()
        out = set()
        for p in closed:
            cl = self.order.up_set(p)
            if any(p in v and (v & closed) <= cl for v in opens):
                out.add(p)
        return frozenset(out)

    def cb_rank(self):
        """Iterated removal of isolated points of the leftover closed
        subspace; the rank is the number of rounds until nothing is left.
        Returns None when the process stalls (cannot happen on a finite T0
        space, but the stall case is detected, not assumed away)."""
        remaining = frozenset(self.points)
        rank = 0
        while remaining:
            isolated = self.isolated_points(remaining)
            if not isolated:
                return None
            remaining -= isolated
            rank += 1
        return rank

    def is_t_half(self):
        """Every singleton is (open ∩ closed)."""
        opens = self.opens()
        closeds = self.closeds()
        return all(
            any(v & c == {p} for v in opens for c in closeds) for p in self.points
        )

    def is_scattered(self):
        """Every nonempty closed subset has an isolated point."""
        return all(
            bool(self.isolated_points(c)) for c in self.closeds() if c
        )

    def is_weakly_scattered(self):
        """Every nonempty closed subset has a weakly isolated point."""
        return all(
            bool(self.weakly_isolated_points(c)) for c in self.closeds() if c
        )

    def is_hochster_weakly_scattered(self):
        return self.hochster_dual().is_weakly_scattered()

    def __eq__(self, other):
        return isinstance(other, SpectralSpace) and self.order == other.order

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return "SpectralSpace(%r)" % (self.order,)


def generate_topology(subbasis, universe):
    """All unions of finite intersections of the subbasis sets (plus the
    whole space as the empty intersection).  Sorted for determinism."""
    universe = frozenset(universe)
    basis = {universe}
    frontier = {universe}
    while frontier:
        nxt = set()
        for b in frontier:
            for s in subbasis:
                c = b & frozenset(s)
                if c not in basis:
                    nxt.add(c)
        basis |= nxt
        frontier = nxt
    opens = {frozenset()}
    frontier = {frozenset()}
    while frontier:
        nxt = set()
        for o in frontier:
            for b in basis:
                c = o | b
                if c not in opens:
                    nxt.add(c)
        opens |= nxt
        frontier = nxt
    return sorted(opens, key=lambda s: (len(s), tuple(sorted(s))))
