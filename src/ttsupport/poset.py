"""Finite posets with string-labelled elements.

The order is held as bitmasks over element positions: bit j of the up-mask
of element i is set when elements[i] <= elements[j], and the down-masks are
the transpose.  Point sets are masks inside the package and frozensets of
labels at the API.  Constructors validate reflexivity, antisymmetry and
transitivity on the masks; ``FinitePoset.from_pairs`` takes an arbitrary
generating relation and closes it up first.
"""

from itertools import permutations

from .errors import InputError

ENUMERATION_MAX = 6

# poset counts up to isomorphism for n = 1..6, used as a cross-check
_POSET_COUNTS = (1, 2, 5, 16, 63, 318)


class FinitePoset:
    __slots__ = ("elements", "_pos", "_down", "_up", "_relation", "_families")

    def __init__(self, elements, relation):
        elements = tuple(elements)
        self._set_order(elements, _pair_masks(elements, relation))

    @classmethod
    def from_masks(cls, elements, up):
        """Build from one up-mask per element (bit j of up[i] set means
        elements[i] <= elements[j]), validated like the relation form."""
        self = cls.__new__(cls)
        self._set_order(tuple(elements), list(up))
        return self

    def _set_order(self, elements, up):
        pos = _positions(elements)
        if any(u >> len(elements) for u in up):
            raise InputError("up-mask mentions a position past the elements")
        # one pass over the pairs a <= b: transpose into down-masks, and
        # collect everything above something above a, which transitivity
        # keeps inside up[a]
        down = [0] * len(elements)
        reach = []
        for a, u in enumerate(up):
            bit, above, rest = 1 << a, 0, u
            while rest:
                low = rest & -rest
                b = low.bit_length() - 1
                down[b] |= bit
                above |= up[b]
                rest ^= low
            reach.append(above)
        for i, e in enumerate(elements):
            if not up[i] >> i & 1:
                raise InputError("relation is not reflexive at %r" % e)
        for i, e in enumerate(elements):
            both = up[i] & down[i] & ~(1 << i)
            if both:
                raise InputError("antisymmetry fails on %r, %r" % (e, elements[bits_of(both)[0]]))
        for a, above in enumerate(reach):
            if above != up[a]:
                b = next(b for b in bits_of(up[a]) if up[b] & ~up[a])
                c = bits_of(up[b] & ~up[a])[0]
                raise InputError(
                    "transitivity fails on %r <= %r <= %r" % (elements[a], elements[b], elements[c])
                )
        self.elements = elements
        self._pos = pos
        self._up = tuple(up)
        self._down = tuple(down)
        self._relation = None
        self._families = {}

    @classmethod
    def from_pairs(cls, elements, pairs):
        """Build from a generating set of a <= b pairs (reflexive-transitive
        closure is computed; antisymmetry of the closure is then validated)."""
        elements = tuple(elements)
        up = [u | 1 << i for i, u in enumerate(_pair_masks(elements, pairs))]
        # Warshall: after round k, up[i] holds everything reachable via 0..k
        for k in range(len(up)):
            for i in range(len(up)):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        return cls.from_masks(elements, up)

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or set(obj) != {"elements", "leq"}:
            raise InputError('poset JSON must have exactly the keys "elements" and "leq"')
        elements = obj["elements"]
        leq = obj["leq"]
        if not isinstance(elements, list) or not isinstance(leq, list):
            raise InputError("malformed poset JSON")
        if not all(isinstance(e, str) for e in elements):
            raise InputError('"elements" must be strings')
        for entry in leq:
            if not (isinstance(entry, list) and len(entry) == 2) or not all(
                isinstance(e, str) for e in entry
            ):
                raise InputError('"leq" entries must be [a, b] pairs of strings')
        return cls.from_pairs(elements, leq)

    def to_json(self):
        return {
            "elements": sorted(self.elements),
            "leq": sorted([a, b] for a, b in self.relation if a != b),
        }

    @property
    def relation(self):
        """The order as a frozenset of (a, b) pairs meaning a <= b."""
        if self._relation is None:
            els = self.elements
            self._relation = frozenset(
                (els[i], els[j]) for i, u in enumerate(self._up) for j in bits_of(u)
            )
        return self._relation

    def leq(self, a, b):
        pos = self._pos
        return a in pos and b in pos and bool(self._up[pos[a]] >> pos[b] & 1)

    def mask_of(self, points):
        """The bitmask of a set of elements."""
        out = 0
        for p in points:
            out |= 1 << self._position(p)
        return out

    def set_of(self, mask):
        """The elements of a bitmask, as a frozenset."""
        return frozenset(self.elements[i] for i in bits_of(mask))

    def down_set(self, p):
        return self.set_of(self._down[self._position(p)])

    def up_set(self, p):
        return self.set_of(self._up[self._position(p)])

    def _position(self, p):
        if p not in self._pos:
            raise InputError("unknown element %r" % p)
        return self._pos[p]

    def opposite(self):
        return FinitePoset.from_masks(self.elements, self._down)

    def restrict(self, subset):
        subset = frozenset(subset)
        if not subset <= set(self.elements):
            raise InputError("restriction to non-elements")
        keep = [i for i, e in enumerate(self.elements) if e in subset]
        up = [sum(1 << t for t, j in enumerate(keep) if self._up[i] >> j & 1) for i in keep]
        return FinitePoset.from_masks([self.elements[i] for i in keep], up)

    def is_down_set(self, s):
        m = self.mask_of(s)
        return all(not self._down[i] & ~m for i in bits_of(m))

    def is_up_set(self, s):
        m = self.mask_of(s)
        return all(not self._up[i] & ~m for i in bits_of(m))

    def down_set_masks(self):
        """All down-sets as masks, in the order of down_sets()."""
        return self._family(False)[0]

    def up_set_masks(self):
        return self._family(True)[0]

    def down_sets(self):
        """All down-sets, sorted for determinism; enumerated once per poset,
        returned as a fresh list."""
        return list(self._family(False)[1])

    def up_sets(self):
        return list(self._family(True)[1])

    def _family(self, up):
        """All up-sets (up true) or down-sets, built once and sorted by
        point set: (masks, frozensets)."""
        if up not in self._families:
            self._families[up] = union_family(self._up if up else self._down, self.elements)
        return self._families[up]

    def canonical_key(self):
        """Isomorphism invariant: lexicographically smallest relation matrix
        over all relabellings.  Only relabellings compatible with the
        (|down-set|, |up-set|) profile of each element are tried."""
        return _canonical_key(self._up, self._down, {})

    def is_isomorphic_to(self, other):
        return (
            len(self.elements) == len(other.elements)
            and self.canonical_key() == other.canonical_key()
        )

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and set(self.elements) == set(other.elements)
            and self.relation == other.relation
        )

    def __hash__(self):
        return hash((frozenset(self.elements), self.relation))

    def __repr__(self):
        strict = sorted((a, b) for a, b in self.relation if a != b)
        return "FinitePoset(%r, %r)" % (sorted(self.elements), strict)


def _positions(elements):
    """Each label's position, once the labels are checked to be distinct
    strings."""
    if len(set(elements)) != len(elements):
        raise InputError("duplicate element labels")
    if not all(isinstance(e, str) for e in elements):
        raise InputError("element labels must be strings")
    return {e: i for i, e in enumerate(elements)}


def _pair_masks(elements, pairs):
    """The up-masks of the pairs a <= b, once the labels are checked."""
    pos = _positions(elements)
    up = [0] * len(elements)
    for a, b in pairs:
        if a not in pos or b not in pos:
            raise InputError("relation mentions unknown element %r" % ((a, b),))
        up[pos[a]] |= 1 << pos[b]
    return up


def bits_of(mask):
    """Positions of the set bits, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def unions_of(masks, stop):
    """The set of all unions of the masks, the empty union 0 included, or
    enough of them: enumeration ends once at least stop are found; the
    family only grows, so a count below stop is exact."""
    found = {0}
    for m in masks:
        found |= {f | m for f in found}
        if len(found) >= stop:
            break
    return found


def union_family(masks, labels):
    """All unions of the masks, the empty union included, as (masks, sets
    of labels) sorted by (size, sorted labels); bit i of a mask stands for
    labels[i].  Each set is the union of a smaller one and a mask's.
    Its key has bit n - 1 - r for the r-th label in sorted order: of two
    sets of one size, the one with the first label where they differ sorts
    first and has the larger key."""
    n = len(labels)
    key_bit = {i: 1 << n - 1 - r for r, i in enumerate(sorted(range(n), key=labels.__getitem__))}
    found = {0: (0, frozenset())}
    for m in masks:
        bits = bits_of(m)
        k, piece = sum(key_bit[i] for i in bits), frozenset(labels[i] for i in bits)
        for fk, (f, s) in list(found.items()):
            if fk | k not in found:
                found[fk | k] = (f | m, s | piece)
    ranked = sorted(found, key=lambda k: (k.bit_count() << n) - k)  # by size, then largest key
    return tuple(zip(*map(found.get, ranked)))


def _grouped_orders(groups):
    """All element orderings that permute only within each group."""
    if not groups:
        yield ()
        return
    head, rest = groups[0], groups[1:]
    for tail in _grouped_orders(rest):
        for perm in permutations(head):
            yield perm + tail


def _canonical_key(up, down, rows):
    """canonical_key of the order with these up- and down-masks; rows keeps
    each relabelling's permuted up-mask rows, for reuse across calls."""
    n = len(up)
    profile = [(down[i].bit_count(), up[i].bit_count()) for i in range(n)]
    groups = {}
    for i in range(n):
        groups.setdefault(profile[i], []).append(i)
    # the n*n matrix read row by row as one binary number: the smallest
    # number is the lexicographically smallest matrix.  An order is dropped
    # at the first row where its code exceeds that prefix of the best code.
    best = None
    for order in _grouped_orders([groups[k] for k in sorted(groups)]):
        code, rest = 0, n * n
        permuted = rows.setdefault(order, {})
        for i in order:
            row = up[i]
            if row not in permuted:
                bits = 0
                for j in order:
                    bits = bits << 1 | row >> j & 1
                permuted[row] = bits
            code = code << n | permuted[row]
            rest -= n
            if best is not None and code > best >> rest:
                break
        else:
            best = code
    bits = tuple(best >> k & 1 for k in reversed(range(n * n)))
    return (n, tuple(sorted(profile)), bits)


# layer n of the enumeration, once built
_ENUM_CACHE = {}


def enumerate_posets(n):
    """All posets on n labelled points up to isomorphism (labels p0..p{n-1}).

    Built by extending each (n-1)-point poset with a fresh point attached to
    every compatible (down-set, up-set) pair, then deduplicating by canonical
    key.  The key is read off each candidate's masks; only the first
    candidate of each class becomes a (validated) FinitePoset.  Enumeration
    resumes from the largest layer already built.  Deterministic output
    order.
    """
    if not isinstance(n, int) or not 1 <= n <= ENUMERATION_MAX:
        raise InputError("enumerate_posets requires 1 <= n <= %d" % ENUMERATION_MAX)
    if not _ENUM_CACHE:
        _ENUM_CACHE[1] = (FinitePoset(("p0",), {("p0", "p0")}),)
    k = max(k for k in _ENUM_CACHE if k <= n)
    while k < n:
        k += 1
        new, rows = {}, {}
        fresh = 1 << (k - 1)
        elements = tuple("p%d" % i for i in range(k))
        for base in _ENUM_CACHE[k - 1]:
            up, down = base._up, base._down
            for d in base.down_set_masks():
                # transitivity through the new point needs d <= u pointwise:
                # u inside the up-set of every point of d
                below = fresh - 1
                for a in bits_of(d):
                    below &= up[a]
                for u in base.up_set_masks():
                    if d & u or u & ~below:
                        continue
                    ups = tuple(m | fresh if d >> a & 1 else m for a, m in enumerate(up))
                    downs = tuple(m | fresh if u >> b & 1 else m for b, m in enumerate(down))
                    key = _canonical_key(ups + (u | fresh,), downs + (d | fresh,), rows)
                    if key not in new:
                        new[key] = ups + (u | fresh,)
        layer = tuple(FinitePoset.from_masks(elements, new[key]) for key in sorted(new))
        assert len(layer) == _POSET_COUNTS[k - 1], "poset enumeration miscounted"
        _ENUM_CACHE[k] = layer
    return list(_ENUM_CACHE[n])
