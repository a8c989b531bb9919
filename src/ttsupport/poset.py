"""Finite posets with string-labelled elements.

The order relation is stored as a frozenset of (a, b) pairs meaning a <= b.
Constructors validate reflexivity, antisymmetry and transitivity;
``FinitePoset.from_pairs`` takes an arbitrary generating relation and closes
it up first.
"""

from itertools import permutations

from .errors import InputError

ENUMERATION_MAX = 6

# poset counts up to isomorphism for n = 1..6, used as a cross-check
_POSET_COUNTS = (1, 2, 5, 16, 63, 318)


class FinitePoset:
    __slots__ = ("elements", "relation", "_down", "_up", "_down_sets", "_up_sets")

    def __init__(self, elements, relation):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise InputError("duplicate element labels")
        if not all(isinstance(e, str) for e in elements):
            raise InputError("element labels must be strings")
        relation = frozenset((a, b) for a, b in relation)
        universe = set(elements)
        for a, b in relation:
            if a not in universe or b not in universe:
                raise InputError("relation mentions unknown element %r" % ((a, b),))
        for e in elements:
            if (e, e) not in relation:
                raise InputError("relation is not reflexive at %r" % e)
        for a, b in relation:
            if a != b and (b, a) in relation:
                raise InputError("antisymmetry fails on %r, %r" % (a, b))
        for a, b in relation:
            for c in elements:
                if (b, c) in relation and (a, c) not in relation:
                    raise InputError("transitivity fails on %r <= %r <= %r" % (a, b, c))
        self.elements = elements
        self.relation = relation
        self._down = {e: frozenset(a for a in elements if (a, e) in relation) for e in elements}
        self._up = {e: frozenset(b for b in elements if (e, b) in relation) for e in elements}
        self._down_sets = self._up_sets = None

    @classmethod
    def from_pairs(cls, elements, pairs):
        """Build from a generating set of a <= b pairs (reflexive-transitive
        closure is computed; antisymmetry of the closure is then validated)."""
        elements = tuple(elements)
        rel = {(e, e) for e in elements}
        rel.update((a, b) for a, b in pairs)
        changed = True
        while changed:
            changed = False
            for a, b in list(rel):
                for b2, c in list(rel):
                    if b == b2 and (a, c) not in rel:
                        rel.add((a, c))
                        changed = True
        return cls(elements, rel)

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

    def leq(self, a, b):
        return (a, b) in self.relation

    def down_set(self, p):
        if p not in self._down:
            raise InputError("unknown element %r" % p)
        return self._down[p]

    def up_set(self, p):
        if p not in self._up:
            raise InputError("unknown element %r" % p)
        return self._up[p]

    def opposite(self):
        return FinitePoset(self.elements, frozenset((b, a) for a, b in self.relation))

    def restrict(self, subset):
        subset = frozenset(subset)
        if not subset <= set(self.elements):
            raise InputError("restriction to non-elements")
        keep = tuple(e for e in self.elements if e in subset)
        return FinitePoset(keep, {(a, b) for a, b in self.relation if a in subset and b in subset})

    def is_down_set(self, s):
        s = frozenset(s)
        return all(self._down[e] <= s for e in s)

    def is_up_set(self, s):
        s = frozenset(s)
        return all(self._up[e] <= s for e in s)

    def down_sets(self):
        """All down-sets, sorted for determinism; enumerated once per poset,
        returned as a fresh list."""
        if self._down_sets is None:
            self._down_sets = _unions_of(self.elements, self._down)
        return list(self._down_sets)

    def up_sets(self):
        if self._up_sets is None:
            self._up_sets = _unions_of(self.elements, self._up)
        return list(self._up_sets)

    def canonical_key(self):
        """Isomorphism invariant: lexicographically smallest relation matrix
        over all relabellings.  Only relabellings compatible with the
        (|down-set|, |up-set|) profile of each element are tried."""
        n = len(self.elements)
        profile = {e: (len(self._down[e]), len(self._up[e])) for e in self.elements}
        groups = {}
        for e in self.elements:
            groups.setdefault(profile[e], []).append(e)
        ordered_groups = [groups[k] for k in sorted(groups)]
        best = None
        for labels in _grouped_orders(ordered_groups):
            bits = tuple(
                1 if (labels[i], labels[j]) in self.relation else 0
                for i in range(n)
                for j in range(n)
            )
            if best is None or bits < best:
                best = bits
        return (n, tuple(sorted(profile.values())), best)

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


def _set_key(s):
    return (len(s), tuple(sorted(s)))


def _unions_of(elements, generators):
    """All unions of the generator sets (the empty union included), as a
    sorted tuple."""
    sets = {frozenset()}
    for e in elements:
        sets |= {s | generators[e] for s in sets}
    return tuple(sorted(sets, key=_set_key))


def _grouped_orders(groups):
    """All element orderings that permute only within each group."""
    if not groups:
        yield ()
        return
    head, rest = groups[0], groups[1:]
    for tail in _grouped_orders(rest):
        for perm in permutations(head):
            yield perm + tail


_ENUM_CACHE = {}


def enumerate_posets(n):
    """All posets on n labelled points up to isomorphism (labels p0..p{n-1}).

    Built by extending each (n-1)-point poset with a fresh point attached to
    every compatible (down-set, up-set) pair, then deduplicating by canonical
    key.  Deterministic output order.
    """
    if not isinstance(n, int) or not 1 <= n <= ENUMERATION_MAX:
        raise InputError("enumerate_posets requires 1 <= n <= %d" % ENUMERATION_MAX)
    if n in _ENUM_CACHE:
        return list(_ENUM_CACHE[n])
    layer = [FinitePoset(("p0",), {("p0", "p0")})]
    for k in range(2, n + 1):
        new = {}
        fresh = "p%d" % (k - 1)
        for base in layer:
            downs = base.down_sets()
            ups = base.up_sets()
            for d in downs:
                for u in ups:
                    if d & u:
                        continue
                    # transitivity through the new point needs d <= u pointwise
                    if any(not base.leq(a, b) for a in d for b in u):
                        continue
                    rel = set(base.relation)
                    rel.add((fresh, fresh))
                    rel.update((a, fresh) for a in d)
                    rel.update((fresh, b) for b in u)
                    p = FinitePoset(base.elements + (fresh,), rel)
                    key = p.canonical_key()
                    if key not in new:
                        new[key] = p
        layer = [new[k2] for k2 in sorted(new)]
        _ENUM_CACHE[k] = list(layer)
    assert len(layer) == _POSET_COUNTS[n - 1], "poset enumeration miscounted"
    _ENUM_CACHE[n] = list(layer)
    return list(layer)
