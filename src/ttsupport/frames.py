"""Finite frames, frame homomorphisms, nuclei and the assembly.

A finite frame is a finite distributive lattice; the constructor reads
bottom, top, binary meets and joins off the down- and up-sets of the order
and decides distributivity by Birkhoff's representation theorem.  Heyting
implication exists automatically and is computed by its defining join.
"""

from .errors import InputError, ResourceLimitError
from .poset import FinitePoset
from .spectral import SpectralSpace

ASSEMBLY_MAX = 16
HOM_SEARCH_MAX = 200000


def set_label(s):
    return "{%s}" % ",".join(sorted(s))


class FiniteFrame:
    __slots__ = (
        "order", "bottom", "top", "_meet", "_join", "_heyting", "_primes", "_index", "_assembly"
    )

    def __init__(self, order):
        if not isinstance(order, FinitePoset):
            raise InputError("FiniteFrame wants a FinitePoset")
        self.order = order
        els = order.elements
        if not els:
            raise InputError("a frame is nonempty")
        down = {e: order.down_set(e) for e in els}
        up = {e: order.up_set(e) for e in els}
        everything = frozenset(els)
        bottoms = [e for e in els if up[e] == everything]
        tops = [e for e in els if down[e] == everything]
        if len(bottoms) != 1 or len(tops) != 1:
            raise InputError("lattice is not bounded")
        self.bottom = bottoms[0]
        self.top = tops[0]
        # x ∧ y is the z whose down-set is down(x) ∩ down(y); joins dually
        by_down = {d: e for e, d in down.items()}
        by_up = {u: e for e, u in up.items()}
        self._meet = {}
        self._join = {}
        for x in els:
            for y in els:
                m = by_down.get(down[x] & down[y])
                j = by_up.get(up[x] & up[y])
                if m is None or j is None:
                    raise InputError("not a lattice: meet/join fails on (%r, %r)" % (x, y))
                self._meet[(x, y)] = m
                self._join[(x, y)] = j
        # Birkhoff (Davey-Priestley, Introduction to Lattices and Order, ch. 5):
        # x |-> {join-irreducibles <= x} embeds the lattice into the down-sets
        # of J(L), and the lattice is distributive iff that map is onto
        if _count_down_sets(order.restrict(self.join_irreducibles()), len(els) + 1) != len(els):
            raise InputError("lattice is not distributive")
        self._heyting = {}
        self._primes = self._index = self._assembly = None

    @classmethod
    def from_sets(cls, sets):
        """Frame of a family of sets ordered by inclusion (the family must be
        closed under the induced meets/joins, which the validator enforces).
        Two different sets with one label are refused."""
        labels = {}
        for s in map(frozenset, sets):
            if labels.setdefault(set_label(s), s) != s:
                raise InputError("two sets share the label %s" % set_label(s))
        rel = {
            (a, b)
            for a in labels
            for b in labels
            if labels[a] <= labels[b]
        }
        frame = cls(FinitePoset(tuple(sorted(labels)), rel))
        return frame, labels

    @property
    def elements(self):
        return self.order.elements

    def __len__(self):
        return len(self.order.elements)

    def leq(self, x, y):
        return self.order.leq(x, y)

    def meet(self, x, y):
        return self._meet[(x, y)]

    def join(self, x, y):
        return self._join[(x, y)]

    def meet_many(self, xs):
        out = self.top
        for x in xs:
            out = self._meet[(out, x)]
        return out

    def join_many(self, xs):
        out = self.bottom
        for x in xs:
            out = self._join[(out, x)]
        return out

    def heyting(self, x, y):
        """x -> y, the largest z with z ∧ x <= y."""
        key = (x, y)
        if key not in self._heyting:
            self._heyting[key] = self.join_many(
                z for z in self.elements if self.leq(self.meet(z, x), y)
            )
        return self._heyting[key]

    def complement(self, x):
        """The complement of x when it exists (unique in a distributive
        lattice), else None."""
        found = None
        for y in self.elements:
            if self.meet(x, y) == self.bottom and self.join(x, y) == self.top:
                assert found is None, "two complements in a distributive lattice"
                found = y
        return found

    def is_boolean(self):
        return all(self.complement(x) is not None for x in self.elements)

    def join_irreducibles(self):
        """Elements x with x != join{y : y < x} (so the bottom is not one)."""
        return [
            x
            for x in self.elements
            if x != self.join_many(y for y in self.order.down_set(x) if y != x)
        ]

    def primes(self):
        """Prime (= meet-irreducible) elements p != top:
        x ∧ y <= p forces x <= p or y <= p.  Pairs with x or y below p pass
        trivially, so only x, y outside the down-set of p are visited."""
        if self._primes is None:
            found = []
            for p in self.elements:
                if p == self.top:
                    continue
                below = self.order.down_set(p)
                outside = [x for x in self.elements if x not in below]
                if all(self._meet[(x, y)] not in below for x in outside for y in outside):
                    found.append(p)
            self._primes = tuple(sorted(found))
        return list(self._primes)

    def min_primes(self, x):
        """Minimal primes above x."""
        above = [p for p in self.primes() if self.leq(x, p)]
        return sorted(p for p in above if not any(q != p and self.leq(q, p) for q in above))

    def essential_primes(self, x):
        """Primes in min_primes(x) whose removal changes the meet.  Empty
        when x is not even the meet of its minimal primes."""
        mins = self.min_primes(x)
        if self.meet_many(mins) != x:
            return []
        return sorted(
            p for p in mins if self.meet_many(q for q in mins if q != p) != x
        )

    def is_isomorphic_to(self, other):
        return self.order.is_isomorphic_to(other.order)

    def _indexed(self):
        """The frame on positions, built once: the sorted elements, each
        element's position, up-sets as bitmasks of positions and the meet
        table on positions."""
        if self._index is None:
            els = sorted(self.elements)
            pos = {x: i for i, x in enumerate(els)}
            up = [sum(1 << pos[y] for y in self.order.up_set(x)) for x in els]
            meet = [[pos[self._meet[(x, y)]] for y in els] for x in els]
            self._index = (els, pos, up, meet)
        return self._index

    def __repr__(self):
        return "FiniteFrame(%d elements)" % len(self)


def _count_down_sets(order, stop):
    """Number of down-sets of order, counting no further than stop."""
    # adding the elements in a linear extension keeps every partial family a
    # family of down-sets of order, so the count only grows
    els = sorted(order.elements, key=lambda e: len(order.down_set(e)))
    bit = {e: 1 << i for i, e in enumerate(els)}
    below = {e: sum(bit[d] for d in order.down_set(e)) & ~bit[e] for e in els}
    found = [0]
    for e in els:
        found += [d | bit[e] for d in found if d & below[e] == below[e]]
        if len(found) >= stop:
            return stop
    return len(found)


class FrameHom:
    """A map of frames preserving bottom, top, binary meets and binary joins
    (for finite frames this is full frame-hom strength)."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source, target, mapping):
        if set(mapping) != set(source.elements):
            raise InputError("hom mapping must be defined on exactly the source")
        if not set(mapping.values()) <= set(target.elements):
            raise InputError("hom image leaves the target")
        if mapping[source.bottom] != target.bottom:
            raise InputError("hom does not preserve bottom")
        if mapping[source.top] != target.top:
            raise InputError("hom does not preserve top")
        for x in source.elements:
            for y in source.elements:
                if mapping[source.meet(x, y)] != target.meet(mapping[x], mapping[y]):
                    raise InputError("hom does not preserve meets")
                if mapping[source.join(x, y)] != target.join(mapping[x], mapping[y]):
                    raise InputError("hom does not preserve joins")
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, x):
        return self.mapping[x]

    def is_injective(self):
        return len(set(self.mapping.values())) == len(self.mapping)

    def is_surjective(self):
        return set(self.mapping.values()) == set(self.target.elements)

    def is_isomorphism(self):
        return self.is_injective() and self.is_surjective()


class Nucleus:
    """An inflationary, monotone, idempotent, meet-preserving self-map."""

    __slots__ = ("frame", "table", "label")

    def __init__(self, frame, table):
        ok, report = validate_nucleus(frame, table)
        if not ok:
            raise InputError("not a nucleus: " + "; ".join(report))
        self.frame = frame
        self.table = dict(table)
        self.label = "nu(%s)" % "|".join(sorted(self.fixed_points()))

    def __call__(self, x):
        return self.table[x]

    def fixed_points(self):
        return frozenset(x for x in self.frame.elements if self.table[x] == x)

    def __eq__(self, other):
        return isinstance(other, Nucleus) and self.frame is other.frame and self.table == other.table

    def __hash__(self):
        return hash(frozenset(self.table.items()))

    def __repr__(self):
        return self.label


def validate_nucleus(frame, table):
    """Check the four nucleus axioms at every x and every pair (x, y), on the
    frame's position tables; returns (ok, report)."""
    if set(table) != set(frame.elements):
        return False, ["table must be defined on exactly the frame"]
    els, pos, up, meet = frame._indexed()
    strays = [x for x in frame.elements if table[x] not in pos]
    if strays:
        return False, ["value %r at %r is not a frame element" % (table[x], x) for x in strays]
    t = [pos[table[x]] for x in els]
    # visit in the frame's element order, so the report lists failures in it
    visit = [pos[x] for x in frame.elements]
    report = []
    for i in visit:
        ti = t[i]
        if not up[i] >> ti & 1:
            report.append("not inflationary at %r" % els[i])
        if t[ti] != ti:
            report.append("not idempotent at %r" % els[i])
        up_i, up_ti, meet_i, meet_ti = up[i], up[ti], meet[i], meet[ti]
        for j in visit:
            if up_i >> j & 1 and not up_ti >> t[j] & 1:
                report.append("not monotone on (%r, %r)" % (els[i], els[j]))
            if t[meet_i[j]] != meet_ti[t[j]]:
                report.append("does not preserve the meet of (%r, %r)" % (els[i], els[j]))
    return not report, report


def closed_nucleus(frame, x):
    return Nucleus(frame, {y: frame.join(x, y) for y in frame.elements})


def open_nucleus(frame, x):
    return Nucleus(frame, {y: frame.heyting(x, y) for y in frame.elements})


def _sublocales(frame):
    """Fixed-point sets of all nuclei, as the closed sets of "contains top,
    closed under meets, contains x -> s for every x" (Picado-Pultr, Frames
    and Locales, III), enumerated by Ganter's NextClosure over the sorted
    elements."""
    els, index, _up, meet = frame._indexed()
    implies = [[index[frame.heyting(x, y)] for x in els] for y in els]
    top = 1 << index[frame.top]

    def close(mask):
        mask |= top
        members = [i for i in range(len(els)) if mask >> i & 1]
        todo = list(members)
        while todo:
            s = todo.pop()
            for t in implies[s] + [meet[s][u] for u in members]:
                if not mask >> t & 1:
                    mask |= 1 << t
                    members.append(t)
                    todo.append(t)
        return mask

    full = (1 << len(els)) - 1
    closed = close(0)
    found = [closed]
    while closed != full:
        for i in reversed(range(len(els))):
            bit = 1 << i
            if closed & bit:
                continue
            candidate = close(closed & (bit - 1) | bit)
            if candidate & (bit - 1) == closed & (bit - 1):
                closed = candidate
                found.append(closed)
                break
    return [frozenset(x for i, x in enumerate(els) if s >> i & 1) for s in found]


class AssemblyResult:
    __slots__ = ("base", "frame", "nuclei", "alpha", "alpha_complement")

    def __init__(self, base, frame, nuclei, alpha, alpha_complement):
        self.base = base
        self.frame = frame
        self.nuclei = nuclei  # label -> Nucleus
        self.alpha = alpha  # FrameHom base -> frame
        self.alpha_complement = alpha_complement  # base element -> label


def assembly(frame, max_size=ASSEMBLY_MAX):
    """The frame of all nuclei, ordered pointwise.

    Every nucleus is the closure x |-> meet{s in S : x <= s} onto its
    fixed-point set S, and the fixed-point sets are exactly the sublocales.
    The bound is checked on every call; the assembly is built once per frame.
    """
    if len(frame) > max_size:
        raise ResourceLimitError(
            "assembly bound exceeded: %d > %d" % (len(frame), max_size),
            bound_name="max-frame",
            bound_value=max_size,
        )
    if frame._assembly is None:
        frame._assembly = _build_assembly(frame)
    return frame._assembly


def _build_assembly(frame):
    by_label = {}
    for s in _sublocales(frame):
        nu = Nucleus(
            frame, {x: frame.meet_many(t for t in s if frame.leq(x, t)) for x in frame.elements}
        )
        if nu.label in by_label:
            raise InputError("two nuclei share the label %s" % nu.label)
        by_label[nu.label] = nu
    # nu <= mu pointwise: mu(x) lies in the up-set of nu(x) at every position
    els, pos, up, _meet = frame._indexed()
    tables = {a: [pos[nu.table[x]] for x in els] for a, nu in by_label.items()}
    ups = {a: [up[v] for v in t] for a, t in tables.items()}
    rel = {
        (a, b)
        for a in by_label
        for b in by_label
        if all(u >> v & 1 for u, v in zip(ups[a], tables[b]))
    }
    nframe = FiniteFrame(FinitePoset(tuple(sorted(by_label)), rel))
    alpha = FrameHom(
        frame, nframe, {x: closed_nucleus(frame, x).label for x in frame.elements}
    )
    alpha_complement = {x: open_nucleus(frame, x).label for x in frame.elements}
    for x in frame.elements:
        assert nframe.complement(alpha(x)) == alpha_complement[x], (
            "open nucleus is not the complement of the closed one"
        )
    return AssemblyResult(frame, nframe, by_label, alpha, alpha_complement)


def nucleus_join(frame, nu, mu):
    """Pointwise join iterated to its fixpoint; cross-check for the lattice
    join of the assembly."""
    table = {x: x for x in frame.elements}
    changed = True
    while changed:
        changed = False
        for x in frame.elements:
            y = frame.join(nu(table[x]), mu(table[x]))
            if y != table[x]:
                table[x] = y
                changed = True
    return Nucleus(frame, table)


def frame_of(space):
    """Frame of opens (= down-sets) of a finite spectral space, with set
    labels.  The frame is built once per space; the labels come as a copy."""
    if space._frame is None:
        space._frame = FiniteFrame.from_sets(space.opens())
    frame, labels = space._frame
    return frame, dict(labels)


def spc(frame):
    """Point space of a frame: primes under the restricted order, together
    with the comparison hom x |-> D(x) and its spatiality verdict."""
    primes = frame.primes()
    order = frame.order.restrict(primes)
    space = SpectralSpace(order)
    opens_frame, labels = frame_of(space)
    mapping = {
        x: set_label(frozenset(p for p in primes if not frame.leq(x, p)))
        for x in frame.elements
    }
    lam = FrameHom(frame, opens_frame, mapping)
    return space, lam, lam.is_isomorphism()


def frame_homs(source, target, bound=HOM_SEARCH_MAX):
    """All frame homs source -> target by exhaustive search over images of
    join-irreducibles, each hom listed once.  Intended for desk-scale
    uniqueness checks only."""
    joinirr = source.join_irreducibles()
    total = len(target.elements) ** len(joinirr)
    if total > bound:
        raise ResourceLimitError(
            "frame hom search bound exceeded: %d > %d" % (total, bound),
            bound_name="hom_search",
            bound_value=bound,
        )
    out = []
    tgt = list(target.elements)

    def rec(i, assignment):
        if i == len(joinirr):
            mapping = {
                x: target.join_many(assignment[j] for j in joinirr if source.leq(j, x))
                for x in source.elements
            }
            if any(mapping[j] != assignment[j] for j in joinirr):
                return  # the same map arises from its own restriction
            try:
                out.append(FrameHom(source, target, mapping))
            except InputError:
                pass
            return
        for t in tgt:
            assignment[joinirr[i]] = t
            rec(i + 1, assignment)
        del assignment[joinirr[i]]

    rec(0, {})
    return out


def universal_factorization(asm, phi, check_unique=False):
    """Factor a complemented hom phi through the assembly of its source.

    Returns the unique FrameHom psi with psi ∘ alpha = phi.  Uses the
    expansion of a nucleus as the join over x of (closed at nu(x)) meet
    (open at x); complements in the distributive target are unique, which
    pins psi down.
    """
    frame = asm.base
    if phi.source is not frame:
        raise InputError("phi must start at the assembled frame's base")
    target = phi.target
    comp = {}
    for x in frame.elements:
        c = target.complement(phi(x))
        if c is None:
            raise InputError("phi is not complemented at %r" % x)
        comp[x] = c
    mapping = {}
    for label, nu in asm.nuclei.items():
        mapping[label] = target.join_many(
            target.meet(phi(nu(x)), comp[x]) for x in frame.elements
        )
    psi = FrameHom(asm.frame, target, mapping)
    for x in frame.elements:
        assert psi(asm.alpha(x)) == phi(x), "factorization triangle failed"
    if check_unique:
        matches = [
            h
            for h in frame_homs(asm.frame, target)
            if all(h(asm.alpha(x)) == phi(x) for x in frame.elements)
        ]
        assert len(matches) == 1 and matches[0].mapping == psi.mapping, (
            "factorization is not unique"
        )
    return psi


def sigma(space, check_unique=False, max_size=ASSEMBLY_MAX):
    """The comparison hom from the assembly of the open-set frame to the
    frame of opens of the same point set with every singleton isolated.
    Returns (hom, is_isomorphism, assembly_result); the assembly is the one
    ``assembly(frame_of(space)[0])`` returns."""
    frame, labels = frame_of(space)
    asm = assembly(frame, max_size=max_size)
    skula_frame, _slabels = FiniteFrame.from_sets(space.skula_opens())
    phi = FrameHom(
        frame, skula_frame, {x: set_label(labels[x]) for x in frame.elements}
    )
    psi = universal_factorization(asm, phi, check_unique=check_unique)
    return psi, psi.is_isomorphism(), asm
