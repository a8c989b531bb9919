"""Finite frames, frame homomorphisms, nuclei and the assembly.

A finite frame is a finite distributive lattice.  By Birkhoff's theorem
(Davey-Priestley, Introduction to Lattices and Order, ch. 5) it is the
lattice of down-sets of its join-irreducibles J, so each element is held as
the bitmask of the join-irreducibles below it: meet is &, join is |, and
x <= y is x & ~y == 0.  The constructor accepts an order exactly when that
map is an order-isomorphism onto the down-sets of J, which decides both
"lattice" and "distributive".  Labels appear only at the API.
"""

import weakref

from .errors import InputError, ResourceLimitError
from .poset import FinitePoset, bits_of, unions_of
from .spectral import SpectralSpace

ASSEMBLY_MAX = 16
HOM_SEARCH_MAX = 200000


def set_label(s):
    return "{%s}" % ",".join(sorted(s))


class FiniteFrame:
    # _mask: element -> mask over J; _element: the inverse; _irreducible: the
    # masks of the join-irreducibles, in element order (bit t of a mask
    # stands for the t-th of them)
    __slots__ = ("order", "bottom", "top", "_mask", "_element", "_irreducible", "_primes", "_assembly")

    def __init__(self, order):
        if not isinstance(order, FinitePoset):
            raise InputError("FiniteFrame wants a FinitePoset")
        self.order = order
        els = order.elements
        if not els:
            raise InputError("a frame is nonempty")
        down, up = order._down, order._up
        everything = (1 << len(els)) - 1
        bottoms = [e for e, u in zip(els, up) if u == everything]
        tops = [e for e, d in zip(els, down) if d == everything]
        if len(bottoms) != 1 or len(tops) != 1:
            raise InputError("lattice is not bounded")
        self.bottom = bottoms[0]
        self.top = tops[0]
        # x is join-irreducible iff it has exactly one lower cover, that is
        # iff the down-set of x without x is a principal down-set
        principal = set(down)
        joinirr = [i for i, d in enumerate(down) if (d ^ 1 << i) in principal]
        masks = [sum(1 << t for t, j in enumerate(joinirr) if d >> j & 1) for d in down]
        element = dict(zip(masks, els))
        irreducible = tuple(masks[j] for j in joinirr)
        if not (
            len(element) == len(els)
            and len(unions_of(irreducible, len(els) + 1)) == len(els)
            and _reflects_covers(masks, irreducible, element, order)
        ):
            raise InputError(_refusal(order))
        self._mask = dict(zip(els, masks))
        self._element = element
        self._irreducible = irreducible
        self._primes = self._assembly = None

    @classmethod
    def from_sets(cls, sets):
        """Frame of a family of sets ordered by inclusion (the family must be
        closed under the induced meets/joins, which the validator enforces).
        Two different sets with one label are refused."""
        labels = {}
        for s in map(frozenset, sets):
            if labels.setdefault(set_label(s), s) != s:
                raise InputError("two sets share the label %s" % set_label(s))
        names = sorted(labels)
        bit = {p: 1 << i for i, p in enumerate(set().union(*labels.values()))}
        masks = [sum(bit[p] for p in labels[a]) for a in names]
        up = [sum(1 << j for j, n in enumerate(masks) if not m & ~n) for m in masks]
        frame = cls(FinitePoset.from_masks(names, up))
        return frame, labels

    @property
    def elements(self):
        return self.order.elements

    def __len__(self):
        return len(self.order.elements)

    def leq(self, x, y):
        return not self._mask[x] & ~self._mask[y]

    def meet(self, x, y):
        return self._element[self._mask[x] & self._mask[y]]

    def join(self, x, y):
        return self._element[self._mask[x] | self._mask[y]]

    def meet_many(self, xs):
        out = self._mask[self.top]
        for x in xs:
            out &= self._mask[x]
        return self._element[out]

    def join_many(self, xs):
        out = 0
        for x in xs:
            out |= self._mask[x]
        return self._element[out]

    def heyting(self, x, y):
        """x -> y, the largest z with z ∧ x <= y."""
        return self._element[self._implies(self._mask[x], self._mask[y])]

    def _implies(self, x, y):
        # the join-irreducibles j whose down-set meets x only inside y
        outside = x & ~y
        return sum(1 << t for t, j in enumerate(self._irreducible) if not j & outside)

    def complement(self, x):
        """The complement of x when it exists (unique in a distributive
        lattice: the join-irreducibles not below x), else None."""
        return self._element.get(self._mask[self.top] & ~self._mask[x])

    def is_boolean(self):
        return all(self.complement(x) is not None for x in self.elements)

    def join_irreducibles(self):
        """Elements x with x != join{y : y < x} (so the bottom is not one)."""
        return [self._element[j] for j in self._irreducible]

    def primes(self):
        """Prime elements p != top: x ∧ y <= p forces x <= p or y <= p.  In a
        distributive lattice these are the meet-irreducibles, the elements
        with exactly one upper cover."""
        if self._primes is None:
            up = self.order._up
            principal = set(up)
            self._primes = tuple(
                sorted(x for i, x in enumerate(self.elements) if (up[i] ^ 1 << i) in principal)
            )
        return list(self._primes)

    def min_primes(self, x):
        """Minimal primes above x."""
        above = [self._mask[p] for p in self.primes() if self.leq(x, p)]
        return sorted(
            self._element[p] for p in above if not any(q != p and not q & ~p for q in above)
        )

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
        """By Birkhoff, two finite distributive lattices are isomorphic
        exactly when their posets of join-irreducibles are, and those are
        far smaller than the frames."""
        return self.order.restrict(self.join_irreducibles()).is_isomorphic_to(
            other.order.restrict(other.join_irreducibles())
        )

    def __repr__(self):
        return "FiniteFrame(%d elements)" % len(self)


def _reflects_covers(masks, irreducible, element, order):
    """Whether masks[x] ⊆ masks[y] forces x <= y in the order.  Inclusion of
    down-sets of J is generated by the steps that add one join-irreducible
    whose strict down-set is already in, so only those steps are checked."""
    up, pos = order._up, order._pos
    for i, m in enumerate(masks):
        for t, j in enumerate(irreducible):
            bit = 1 << t
            if not m & bit and not j & ~bit & ~m:
                y = element.get(m | bit)
                if y is None or not up[i] >> pos[y] & 1:
                    return False
    return True


def _refusal(order):
    """Why an order is not a distributive lattice: the first pair without a
    meet or a join, else non-distributivity."""
    down, up = order._down, order._up
    downs, ups = set(down), set(up)
    for i, x in enumerate(order.elements):
        for j, y in enumerate(order.elements):
            if down[i] & down[j] not in downs or up[i] & up[j] not in ups:
                return "not a lattice: meet/join fails on (%r, %r)" % (x, y)
    return "lattice is not distributive"


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
        # every pair's meet and join, on the masks of both frames
        image = {source._mask[x]: target._mask[mapping[x]] for x in source.elements}
        pairs = list(image.items())
        for a, fa in pairs:
            for b, fb in pairs:
                if image[a & b] != fa & fb:
                    raise InputError("hom does not preserve meets")
                if image[a | b] != fa | fb:
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
    frame's masks; returns (ok, report)."""
    if set(table) != set(frame.elements):
        return False, ["table must be defined on exactly the frame"]
    mask = frame._mask
    strays = [x for x in frame.elements if table[x] not in mask]
    if strays:
        return False, ["value %r at %r is not a frame element" % (table[x], x) for x in strays]
    image = {mask[x]: mask[table[x]] for x in frame.elements}
    # visit in the frame's element order, so the report lists failures in it
    rows = [(x, mask[x], mask[table[x]]) for x in frame.elements]
    report = []
    for x, mx, tx in rows:
        if mx & ~tx:
            report.append("not inflationary at %r" % x)
        if image[tx] != tx:
            report.append("not idempotent at %r" % x)
        for y, my, ty in rows:
            if not mx & ~my and tx & ~ty:
                report.append("not monotone on (%r, %r)" % (x, y))
            if image[mx & my] != tx & ty:
                report.append("does not preserve the meet of (%r, %r)" % (x, y))
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
    els = sorted(frame.elements)
    masks = [frame._mask[x] for x in els]
    bit = {m: 1 << i for i, m in enumerate(masks)}
    # set masks over the sorted elements: the meets of s with each element,
    # and all x -> s at once
    meet = [[bit[a & b] for b in masks] for a in masks]
    implies = [sum({bit[frame._implies(x, y)] for x in masks}) for y in masks]
    top = bit[frame._mask[frame.top]]

    def close(mask):
        mask |= top
        members = bits_of(mask)
        todo = list(members)
        while todo:
            s = todo.pop()
            row = meet[s]
            new = implies[s]
            for u in members:
                new |= row[u]
            new &= ~mask
            if new:
                mask |= new
                added = bits_of(new)
                members += added
                todo += added
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
    __slots__ = ("base", "frame", "nuclei", "alpha", "alpha_complement", "__weakref__")

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
    The bound is checked on every call.  The assembly is built once per
    frame and kept while anything holds it: the frame holds it only weakly,
    as it points back to the frame, and sigma has the space hold it.
    """
    if len(frame) > max_size:
        raise ResourceLimitError(
            "assembly bound exceeded: %d > %d" % (len(frame), max_size),
            bound_name="max-frame",
            bound_value=max_size,
        )
    asm = None if frame._assembly is None else frame._assembly()
    if asm is None:
        asm = _build_assembly(frame)
        frame._assembly = weakref.ref(asm)
    return asm


def _build_assembly(frame):
    by_label = {}
    for s in _sublocales(frame):
        nu = Nucleus(
            frame, {x: frame.meet_many(t for t in s if frame.leq(x, t)) for x in frame.elements}
        )
        if nu.label in by_label:
            raise InputError("two nuclei share the label %s" % nu.label)
        by_label[nu.label] = nu
    # nu <= mu pointwise iff each mask of mu's table contains nu's: with a
    # table's masks packed side by side into one int, that is one test
    mask = frame._mask
    width = mask[frame.top].bit_length()
    packed = {
        a: sum(mask[nu.table[x]] << width * i for i, x in enumerate(frame.elements))
        for a, nu in by_label.items()
    }
    names = sorted(by_label)
    up = [sum(1 << j for j, b in enumerate(names) if not packed[a] & ~packed[b]) for a in names]
    nframe = FiniteFrame(FinitePoset.from_masks(names, up))
    # closed and open nuclei are among those just validated: look them up
    by_table = {tuple(nu.table[y] for y in frame.elements): a for a, nu in by_label.items()}

    def label_of(op, x):
        table = tuple(op(x, y) for y in frame.elements)
        assert table in by_table, "y |-> %s(%r, y) is not a sublocale nucleus" % (op.__name__, x)
        return by_table[table]

    alpha = FrameHom(frame, nframe, {x: label_of(frame.join, x) for x in frame.elements})
    alpha_complement = {x: label_of(frame.heyting, x) for x in frame.elements}
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
    asm = space._assembly = assembly(frame, max_size=max_size)
    skula_frame, _slabels = FiniteFrame.from_sets(space.skula_opens())
    phi = FrameHom(
        frame, skula_frame, {x: set_label(labels[x]) for x in frame.elements}
    )
    psi = universal_factorization(asm, phi, check_unique=check_unique)
    return psi, psi.is_isomorphism(), asm
