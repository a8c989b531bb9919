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
from functools import reduce
from itertools import product
from operator import or_
from types import MappingProxyType

from .errors import InputError, ResourceLimitError
from .poset import FinitePoset, bits_of
from .spectral import SpectralSpace
from .values import Immutable

ASSEMBLY_MAX = 16
HOM_SEARCH_MAX = 200000


def set_label(s):
    return "{%s}" % ",".join(sorted(s))


class FiniteFrame(Immutable):
    # _mask: element -> mask over J; _masks: the masks in element order;
    # _element: mask -> element; _irreducible: the join-irreducibles' masks
    # in element order (bit t of a mask stands for the t-th); _implication:
    # x -> y keyed by x minus y, a memo filled as arguments arrive.  _cache
    # keeps the primes' masks and a weak reference to the assembly
    __slots__ = (
        "order", "bottom", "top", "_mask", "_masks", "_element", "_irreducible", "_implication",
    )

    def __init__(self, order):
        if not isinstance(order, FinitePoset):
            raise InputError("FiniteFrame wants a FinitePoset")
        els = order.elements
        if not els:
            raise InputError("a frame is nonempty")
        down = order._down
        # x is join-irreducible iff it has exactly one lower cover, that is
        # iff the down-set of x without x is a principal down-set
        principal = set(down)
        joinirr = [i for i, d in enumerate(down) if (d ^ 1 << i) in principal]
        masks = [sum(1 << t for t, j in enumerate(joinirr) if d >> j & 1) for d in down]
        element = dict(zip(masks, els))
        irreducible = tuple(masks[j] for j in joinirr)
        # Birkhoff on two clauses; _reflects_covers's docstring has the proof
        if not (
            len(element) == len(els)
            and _reflects_covers(masks, irreducible, element, order)
        ):
            raise InputError(_refusal(order))
        self._freeze(
            order=order,
            bottom=element[0],
            top=element[(1 << len(irreducible)) - 1],
            _mask=dict(zip(els, masks)),
            _masks=tuple(masks),
            _element=element,
            _irreducible=irreducible,
            _implication={},
        )

    @classmethod
    def from_sets(cls, sets):
        """Frame of a family of sets ordered by inclusion (the family must be
        closed under the induced meets/joins, which the validator enforces).
        Two different sets with one label are refused."""
        sets = list(dict.fromkeys(map(frozenset, sets)))
        bit = {p: 1 << i for i, p in enumerate(set().union(*sets))}
        return cls._from_family([sum(bit[p] for p in s) for s in sets], sets)

    @classmethod
    def _from_family(cls, masks, sets):
        """from_sets of distinct sets given with their point masks."""
        labels, mask_of = {}, {}
        for m, s in zip(masks, sets):
            name = set_label(s)
            if labels.setdefault(name, s) != s:
                raise InputError("two sets share the label %s" % name)
            mask_of[name] = m
        names = sorted(labels)
        masks = [mask_of[a] for a in names]
        # the sets containing a set are those containing each of its points
        up = [(1 << len(names)) - 1] * len(names)
        for i in range(max(masks, default=0).bit_length()):
            containing = sum(1 << j for j, m in enumerate(masks) if m >> i & 1)
            up = [u & containing if m >> i & 1 else u for u, m in zip(up, masks)]
        return cls(FinitePoset.from_masks(names, up)), labels

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
        table = self._implication
        if outside not in table:
            table[outside] = sum(1 << t for t, j in enumerate(self._irreducible) if not j & outside)
        return table[outside]

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
        """Prime elements p != top: x ∧ y <= p forces x <= p or y <= p."""
        return sorted(self._element[p] for p in self._prime_masks())

    def _prime_masks(self):
        """The primes by Birkhoff duality, indexed by t in J: p_t has mask J
        minus ↑t, and x <= p_t iff t is not in D(x), so p_t is prime.  Each
        prime p is one p_t: two minimal s, t outside D(p) would give D(p) ∪ ↓s
        and D(p) ∪ ↓t, neither below p, meeting in D(p).  p_s <= p_t iff s <= t."""
        irreducible = self._irreducible
        return self._cached(
            "primes",
            lambda: tuple(
                sum(1 << s for s, j in enumerate(irreducible) if not j >> t & 1)
                for t in range(len(irreducible))
            ),
        )

    def min_primes(self, x):
        """Minimal primes above x."""
        return sorted(self._element[p] for p in self._min_primes(self._mask[x]))

    def _min_primes(self, x):
        """The p_t for the minimal t outside D(x), those with D(x) plus t a
        down-set, as x <= p_t iff t is not in D(x) and p_s <= p_t iff s <= t."""
        return [p for t, p in enumerate(self._prime_masks()) if not x >> t & 1 and x | 1 << t in self._element]

    def essential_primes(self, x):
        """Primes in min_primes(x) whose removal changes the meet: all, as
        with T the minimal t outside D(x) they meet to J minus ↑T = D(x), and
        T is an antichain, so leaving out p_t puts t in the meet."""
        return self.min_primes(x)

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
    whose strict down-set is already in, so only those steps are checked.

    With distinct masks that decides the order-isomorphism, bounds included.
    A minimal element has no join-irreducible below it, so mask 0: it is the
    one minimal element, the bottom.  Each down-set of J is reached from 0
    by such steps, each landing above the last, so it is a mask, and mask J
    lies above all: the top.  Masks are down-sets of J, so they biject onto
    them.  Conversely this walk and a count of the down-sets force distinct
    masks, so no count is made."""
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
    """Why an order is not a distributive lattice: no bottom or no top, else
    the first pair without a meet or a join, else non-distributivity."""
    down, up = order._down, order._up
    everything = (1 << len(order.elements)) - 1
    if everything not in up or everything not in down:
        return "lattice is not bounded"
    downs, ups = set(down), set(up)
    for i, x in enumerate(order.elements):
        for j, y in enumerate(order.elements):
            if down[i] & down[j] not in downs or up[i] & up[j] not in ups:
                return "not a lattice: meet/join fails on (%r, %r)" % (x, y)
    return "lattice is not distributive"


class FrameHom(Immutable):
    """A map of frames preserving bottom, top, binary meets and binary joins
    (for finite frames this is full frame-hom strength).

    Meets are checked against every prime m only: by Birkhoff each y is a
    meet of primes, the top (the empty meet) is kept by the top check, and
    for y = y' ∧ m, f(x ∧ y) = f(x ∧ y') ∧ f(m) = f(x) ∧ f(y') ∧ f(m) =
    f(x) ∧ f(y) by induction on y'.  Dually for joins, against every
    join-irreducible and the bottom.  Only a failure walks the pairs.

    One prime less would do (validate_nucleus, with f(top) = top), or one
    join-irreducible t: y with t maximal in D(y) is t ∨ (y ∧ p_t), so f(y) >=
    f(t).  Both stay, as the map comes from outside.  Two less would not: on
    the four-element Boolean frame, send both atoms to top (or bottom)."""

    # _image: the target mask of each source element, in source element order
    __slots__ = ("source", "target", "mapping", "_image")

    def __init__(self, source, target, mapping):
        if mapping.keys() != source._mask.keys():
            raise InputError("hom mapping must be defined on exactly the source")
        if not target._mask.keys() >= set(mapping.values()):
            raise InputError("hom image leaves the target")
        if mapping[source.bottom] != target.bottom:
            raise InputError("hom does not preserve bottom")
        if mapping[source.top] != target.top:
            raise InputError("hom does not preserve top")
        image = {source._mask[x]: target._mask[mapping[x]] for x in source.elements}
        if not _keeps_pairs(image, source._prime_masks(), source._irreducible):
            # the first failing pair names the law; the pairs (b, a) repeat
            # (a, b), and pairs with bottom (mask 0) or top always hold
            top = source._mask[source.top]
            pairs = [(a, fa) for a, fa in image.items() if 0 < a < top]
            for k, (a, fa) in enumerate(pairs):
                for b, fb in pairs[k:]:
                    if image[a & b] != fa & fb:
                        raise InputError("hom does not preserve meets")
                    if image[a | b] != fa | fb:
                        raise InputError("hom does not preserve joins")
        mapping = MappingProxyType(dict(mapping))
        self._freeze(source=source, target=target, mapping=mapping, _image=tuple(image.values()))

    def __call__(self, x):
        return self.mapping[x]

    def is_injective(self):
        return len(set(self.mapping.values())) == len(self.mapping)

    def is_surjective(self):
        return set(self.mapping.values()) == set(self.target.elements)

    def is_isomorphism(self):
        return self.is_injective() and self.is_surjective()


def _keeps_pairs(image, meets, joins=()):
    """Whether image keeps each x ∧ m, m in meets, and x ∨ j, j in joins."""
    for m in meets:
        fm = image[m]
        for a, fa in image.items():
            if image[a & m] != fa & fm:
                return False
    for j in joins:
        fj = image[j]
        for a, fa in image.items():
            if image[a | j] != fa | fj:
                return False
    return True


class Nucleus(Immutable):
    """An inflationary, monotone, idempotent, meet-preserving self-map."""

    __slots__ = ("frame", "table", "label")

    def __init__(self, frame, table):
        ok, report = validate_nucleus(frame, table)
        if not ok:
            raise InputError("not a nucleus: " + "; ".join(report))
        table = MappingProxyType(dict(table))
        fixed = sorted(x for x in frame.elements if table[x] == x)
        self._freeze(frame=frame, table=table, label="nu(%s)" % "|".join(fixed))

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
    """Check the four nucleus axioms on the frame's masks; (ok, report).

    The verdict needs inflation and idempotence at every x and ν(x ∧ m) =
    ν(x) ∧ ν(m) at every x and prime m.  By Birkhoff each y is a meet of
    primes; the top (the empty meet) is kept as inflation makes ν(top) = top,
    and for y = y' ∧ m, ν(x ∧ y) = ν(x ∧ y') ∧ ν(m) = ν(x) ∧ ν(y') ∧ ν(m) =
    ν(x) ∧ ν(y) by induction on y'.  So x <= y gives ν(x) = ν(x) ∧ ν(y):
    monotone.  Only a failure checks all four at every x and pair (x, y).

    One prime m = p_t less would do, but the table comes from outside: y is
    the meet of its minimal primes, so peeling gives ν(x ∧ y) = ν(x) ∧ ν(y)
    unless m is one; then y = m ∧ (y ∨ t), m not one for y ∨ t: ν(y) <= ν(m).
    Not two: on the 3-point discrete opens, {a} fixed, ∅ to {a}, rest to top."""
    if set(table) != set(frame.elements):
        return False, ["table must be defined on exactly the frame"]
    mask = frame._mask
    strays = [x for x in frame.elements if table[x] not in mask]
    if strays:
        return False, ["value %r at %r is not a frame element" % (table[x], x) for x in strays]
    image = [mask[table[x]] for x in frame.elements]
    # visit in the frame's element order, so the report lists failures in it
    by_mask = dict(zip(frame._masks, image))
    settled = all(not mx & ~tx and by_mask[tx] == tx for mx, tx in by_mask.items())
    if settled and _keeps_pairs(by_mask, frame._prime_masks()):
        return True, []
    rows = list(zip(frame.elements, frame._masks, image))
    report = []
    for x, mx, tx in rows:
        if mx & ~tx:
            report.append("not inflationary at %r" % x)
        if by_mask[tx] != tx:
            report.append("not idempotent at %r" % x)
        for y, my, ty in rows:
            if not mx & ~my and tx & ~ty:
                report.append("not monotone on (%r, %r)" % (x, y))
            if by_mask[mx & my] != tx & ty:
                report.append("does not preserve the meet of (%r, %r)" % (x, y))
    return not report, report


def closed_nucleus(frame, x):
    return Nucleus(frame, {y: frame.join(x, y) for y in frame.elements})


def open_nucleus(frame, x):
    return Nucleus(frame, {y: frame.heyting(x, y) for y in frame.elements})


def _sublocales(frame):
    """Fixed-point sets of all nuclei, as masks over the frame's element
    positions: the closed sets of "contains top, closed under meets,
    contains x -> s for every x" (Picado-Pultr, Frames and Locales, III),
    enumerated by Ganter's NextClosure.

    The closure of A is the set of meets of the x -> a, a in A: those
    contain top (a -> a) and A (top -> a), and y -> (meet of M) is the meet
    of the y -> m, with y -> (x -> a) = (y ∧ x) -> a."""
    masks = frame._masks
    bit_of = {m: 1 << i for i, m in enumerate(masks)}
    top = frame._mask[frame.top]
    # all x -> a at once, as a set mask over the positions, keyed by a's bit
    implies = {bit_of[a]: sum({bit_of[frame._implies(x, a)] for x in masks}) for a in masks}

    def close(mask):
        generators = 0
        while mask:
            low = mask & -mask
            generators |= implies[low]
            mask ^= low
        # the meets of the generators met so far, as masks and as positions
        found, reached = [top], bit_of[top]
        while generators:
            g = masks[(generators & -generators).bit_length() - 1]
            for f in found[:]:
                if not reached & bit_of[f & g]:
                    reached |= bit_of[f & g]
                    found.append(f & g)
            generators &= ~reached
        return reached

    full = (1 << len(masks)) - 1
    closed = close(0)
    found = [closed]
    while closed != full:
        for i in reversed(range(len(masks))):
            bit = 1 << i
            if closed & bit:
                continue
            candidate = close(closed & (bit - 1) | bit)
            if candidate & (bit - 1) == closed & (bit - 1):
                closed = candidate
                found.append(closed)
                break
    return found


class AssemblyResult(Immutable):
    # nuclei: label -> nucleus; alpha: base -> frame; alpha_complement: base -> label
    __slots__ = ("base", "frame", "nuclei", "alpha", "alpha_complement", "__weakref__")


def assembly(frame, max_size=ASSEMBLY_MAX):
    """The frame of all nuclei, ordered pointwise.

    Every nucleus is the closure x |-> meet{s in S : x <= s} onto its
    fixed-point set S, and the fixed-point sets are exactly the sublocales.
    The bound is checked on every call.  The assembly is built once per
    frame and kept while anything holds it: the frame's cache holds it only
    weakly, as it points back to the frame, and sigma has the space keep it.
    """
    if len(frame) > max_size:
        raise ResourceLimitError(
            "assembly bound exceeded: %d > %d" % (len(frame), max_size),
            bound_name="max-frame",
            bound_value=max_size,
        )
    kept = frame._cache.get("assembly")
    asm = kept and kept()
    if asm is None:
        asm = _build_assembly(frame)
        frame._cache["assembly"] = weakref.ref(asm)
    return asm


def _build_assembly(frame):
    els, masks = frame.elements, frame._masks
    top = frame._mask[frame.top]
    # x goes to the meet of the fixed points above it: with the values
    # packed w bits apart, a fixed point f is written into the slots of the
    # elements below it, and all slots are met at once
    w, n = top.bit_length() or 1, len(masks)
    slot = (1 << w) - 1
    below = [sum(1 << w * j for j in bits_of(d)) for d in frame.order._down]
    everything = sum(slot << w * j for j in range(n))
    by_label, by_values, fixed = {}, {}, {}
    for s in _sublocales(frame):
        values = everything
        for i in bits_of(s):
            values &= masks[i] * below[i] | everything & ~(slot * below[i])
        table = {x: frame._element[values >> w * j & slot] for j, x in enumerate(els)}
        nu = Nucleus(frame, table)
        if nu.label in by_label:
            raise InputError("two nuclei share the label %s" % nu.label)
        by_label[nu.label] = nu
        by_values[values] = nu.label
        fixed[nu.label] = s
    # nu <= mu pointwise iff Fix(mu) ⊆ Fix(nu) (Picado-Pultr, Frames and
    # Locales, III): if nu <= mu and mu(m) = m then m <= nu(m) <= mu(m) = m;
    # conversely mu(x) is fixed by nu, so nu(x) <= nu(mu(x)) = mu(x)
    names = sorted(by_label)
    up = [sum(1 << j for j, b in enumerate(names) if not fixed[b] & ~fixed[a]) for a in names]
    nframe = FiniteFrame(FinitePoset.from_masks(names, up))

    # closed and open nuclei are among those just validated: look them up
    def label_of(name, op, x):
        values = sum(op(frame._mask[x], m) << w * j for j, m in enumerate(masks))
        assert values in by_values, "y |-> %s(%r, y) is not a sublocale nucleus" % (name, x)
        return by_values[values]

    alpha = FrameHom(frame, nframe, {x: label_of("join", or_, x) for x in els})
    alpha_complement = MappingProxyType({x: label_of("heyting", frame._implies, x) for x in els})
    for x in frame.elements:
        assert nframe.complement(alpha(x)) == alpha_complement[x], (
            "open nucleus is not the complement of the closed one"
        )
    nuclei = MappingProxyType(by_label)
    return AssemblyResult._assembled(
        base=frame, frame=nframe, nuclei=nuclei, alpha=alpha, alpha_complement=alpha_complement
    )


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


def _kept_frame(space, key, family):
    """The frame of the sets family() gives as (masks, sets), with labels:
    built once per space and kept by it under key; the labels come as a copy."""
    frame, labels = space._cached(key, lambda: FiniteFrame._from_family(*family()))
    return frame, dict(labels)


def frame_of(space):
    """Frame of opens (= down-sets) of a finite spectral space, with set
    labels, kept by the space."""
    return _kept_frame(space, "opens", lambda: space.order._family(False))


def thomason_frame(space):
    """Frame of Thomason (= up-) sets of a finite spectral space."""
    return _kept_frame(space, "thomason", lambda: space.order._family(True))


def localizing_frame(space):
    """Frame of the localizing subsets: the Skula opens of the Hochster dual,
    generated (and checked to be the full powerset elsewhere, not assumed).
    The dual's opens and closeds are the space's closeds and opens, and the
    topology generated does not depend on the order of its subbasis, so they
    are the Skula opens the space keeps."""
    return _kept_frame(space, "localizing", space._skula)


def spc(frame):
    """Point space of a frame: primes under the restricted order, together
    with the comparison hom x |-> D(x) and its spatiality verdict."""
    primes = frame.primes()
    space = SpectralSpace(frame.order.restrict(primes))
    mapping = {x: set_label(p for p in primes if not frame.leq(x, p)) for x in frame.elements}
    lam = FrameHom(frame, frame_of(space)[0], mapping)
    return space, lam, lam.is_isomorphism()


def frame_homs(source, target):
    """All frame homs source -> target, each listed once, read off the
    Birkhoff dual (Davey-Priestley, ch. 5).  For a join-irreducible t of the
    target, {x : t <= f(x)} is a prime filter of the source, so it is ↑g(t)
    for exactly one join-irreducible g(t); s <= t gives ↑g(t) ⊆ ↑g(s), so g
    is order-preserving.  Conversely such a g gives the hom whose f(x) has
    the mask {t : g(t) in D(x)}, a down-set as g is order-preserving.  So
    the search runs over the order-preserving maps g from the target's
    join-irreducibles to the source's, bounded by their count
    |J(source)|^|J(target)|, and every candidate still goes through
    FrameHom.  The homs come sorted by the images of the source's
    join-irreducibles, the first varying slowest.  Intended for desk-scale
    uniqueness checks only."""
    src_irr, tgt_irr = source._irreducible, target._irreducible
    total = len(src_irr) ** len(tgt_irr)
    if total > HOM_SEARCH_MAX:
        raise ResourceLimitError(
            "frame hom search bound exceeded: %d > %d" % (total, HOM_SEARCH_MAX),
            bound_name="hom_search",
            bound_value=HOM_SEARCH_MAX,
        )
    # the pairs s < t of the target's join-irreducibles, which g must keep
    below = [(s, t) for t, j in enumerate(tgt_irr) for s in bits_of(j) if s != t]
    downs = [bits_of(m) for m in source._masks]
    irreducible_at = [source._masks.index(j) for j in src_irr]
    position = {m: k for k, m in enumerate(target._masks)}
    found = []
    for g in product(range(len(src_irr)), repeat=len(tgt_irr)):
        if not all(src_irr[g[t]] >> g[s] & 1 for s, t in below):
            continue
        # f(x) is the union over s in D(x) of the fibre of g over s
        fibre = [0] * len(src_irr)
        for t, s in enumerate(g):
            fibre[s] |= 1 << t
        image = [reduce(or_, map(fibre.__getitem__, d), 0) for d in downs]
        found.append((tuple(position[image[i]] for i in irreducible_at), image))
    found.sort()
    return [
        FrameHom(source, target, dict(zip(source.elements, map(target._element.__getitem__, image))))
        for _key, image in found
    ]


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
    # phi and the complements of its values, as masks of the target
    image = dict(zip(frame.elements, phi._image))
    top = target._mask[target.top]
    comp = []
    for x, m in image.items():
        if top & ~m not in target._element:
            raise InputError("phi is not complemented at %r" % x)
        comp.append(top & ~m)
    mapping = {}
    for label, nu in asm.nuclei.items():
        mapping[label] = target._element[
            reduce(or_, [image[nu.table[x]] & c for x, c in zip(frame.elements, comp)], 0)
        ]
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
    localizing frame, where every singleton is open.  Returns (hom,
    is_isomorphism, assembly_result); the assembly is the one
    ``assembly(frame_of(space)[0])`` returns, which the space keeps."""
    frame = frame_of(space)[0]
    asm = assembly(frame, max_size=max_size)
    space._cached("assembly", lambda: asm)
    # both frames label a set by set_label, so phi is the identity on labels
    phi = FrameHom(frame, localizing_frame(space)[0], {x: x for x in frame.elements})
    psi = universal_factorization(asm, phi, check_unique=check_unique)
    return psi, psi.is_isomorphism(), asm
