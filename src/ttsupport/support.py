"""Support of complexes over the supported base rings.

The small support of a complex is computed pointwise: localize at a
candidate prime, tensor with the stable two-term complex R -> R[1/x] for
generators x of the prime, and ask whether any cohomology survives.  Over
the integers the support of a complex with free cohomology ranks is
cofinite, so descriptors carry generic/cofinite flags instead of trying to
list infinitely many points.

Every support here is one pointwise routine over the ring interface of
``homalg``, fed by its membership test at a closed prime: the ring lists
its candidate closed primes (``closed_primes``), says whether it has a
generic point (``has_generic``), localizes (``localized_at``), names the
Koszul generators of a prime (``koszul_elements``) and tests residue fields
(``residue_nonzero``).  Complexes are immutable, so each keeps its small
(per sequence length), big and Foxby supports once computed.
"""

from dataclasses import dataclass

from .errors import InputError
from .homalg import (
    IntegersLocalized,
    ModularIntegers,
    cone,
    hom_complex_h0,
    identity_blocks,
    koszul_stable,
    localize,
    localize_by_element,
    over_ring,
    restrict_modulus,
    restrict_to_integers,
)
from .poset import FinitePoset
from .smith import factorize
from .spectral import SpectralSpace


# ---------------------------------------------------------------------------
# the prime spectrum


@dataclass(frozen=True)
class SpecOf:
    """Prime spectrum data of a base ring.  For finite spectra the space is
    materialized; for integer flavours the closed points form an infinite
    discrete crowd under a single generic point and only a description is
    kept."""

    ring: object
    space: object  # SpectralSpace or None when infinite
    closed_points: tuple  # labels, () when infinite
    has_generic: bool
    description: str


def prime_label(p):
    return "m" if p == "m" else "(%d)" % p


def spec(ring):
    closed, description = ring.spectrum()
    if closed is None:
        return SpecOf(ring, None, (), ring.has_generic, description)
    labels = tuple(prime_label(p) for p in closed)
    generic = ("(0)",) if ring.has_generic else ()
    leq = {(a, a) for a in generic + labels} | {(g, b) for g in generic for b in labels}
    space = SpectralSpace(FinitePoset(generic + labels, leq))
    return SpecOf(ring, space, labels, ring.has_generic, description)


# ---------------------------------------------------------------------------
# support descriptors


@dataclass(frozen=True)
class SupportDescriptor:
    """A subset of the spectrum: an explicit set of closed primes, or (for
    the integer flavours) 'generic point plus all closed points except the
    listed exceptions'."""

    generic: bool = False
    cofinite: bool = False
    explicit: frozenset = frozenset()
    exceptions: frozenset = frozenset()

    def __post_init__(self):
        if self.cofinite and self.explicit:
            raise InputError("cofinite descriptors list exceptions, not members")
        if not self.cofinite and self.exceptions:
            raise InputError("exceptions only make sense for cofinite descriptors")
        if self.exceptions & self.explicit:
            raise InputError("exception set must be disjoint from explicit primes")

    @property
    def is_empty(self):
        return not self.generic and not self.cofinite and not self.explicit

    def contains(self, p):
        if p == 0:
            return self.generic
        if self.cofinite:
            return p not in self.exceptions
        return p in self.explicit

    def closed_set(self):
        assert not self.cofinite, "cofinite support has no finite closed list"
        return self.explicit

    def __str__(self):
        if self.cofinite:
            body = "all closed points" + (
                " except {%s}" % ",".join(prime_label(p) for p in sorted(self.exceptions))
                if self.exceptions
                else ""
            )
        else:
            body = "{%s}" % ",".join(
                prime_label(p) for p in sorted(self.explicit, key=str)
            )
        return ("(0) + " if self.generic else "") + body


# ---------------------------------------------------------------------------
# candidate primes


def candidate_primes(cx):
    """Closed points where the complex can have support; see the ring's
    closed_primes."""
    return cx.ring.closed_primes(cx)


def _generic(cx):
    """Whether the generic point (0) lies in the support: the ring has one
    and C ⊗ Q, i.e. the free cohomology rank, is nonzero."""
    return cx.ring.has_generic and any(cx.cohomology(i).rank for i in cx.degrees())


# ---------------------------------------------------------------------------
# the three supports


def _pointwise(cx, member):
    """The support whose closed points are the candidate primes q with
    member(q), plus the generic point when _generic(cx)."""
    candidates = candidate_primes(cx)
    if _generic(cx):
        # sequences inside (0) are zero; K(0) ⊗ C_0 = C ⊗ Q = C ⊗^L k(0).
        # Every closed point survives: torsion candidates pass the test and
        # at torsion-free primes the free rank keeps the localization alive
        assert all(member(q) for q in candidates)
        return SupportDescriptor(generic=True, cofinite=True)
    return SupportDescriptor(explicit=frozenset(q for q in candidates if member(q)))


def small_support(cx, sequence_length=1):
    """Pointwise stable-Koszul support.

    At a closed candidate prime q the test tensors the localized complex
    with R -> R[1/x] for every sequence of generators x of length up to
    sequence_length (a maximal ideal here is principal, so checking the
    generator once decides it; longer sequences are for cross-checks).
    Each complex computes it once per sequence_length."""
    return cx._cached(
        ("small_support", sequence_length),
        lambda: _pointwise(cx, lambda q: _in_support(cx, q, sequence_length)),
    )


def _in_support(cx, q, sequence_length):
    local = localize(cx, q)
    verdicts = []
    for x in cx.ring.koszul_elements(q):
        current = local
        for _ in range(max(1, sequence_length)):
            current = koszul_stable(x, current)
            verdicts.append(not current.is_acyclic())
    assert len(set(verdicts)) == 1, "Koszul rounds or generators disagree"
    return verdicts[0]


def big_support(cx):
    """Localization support: primes where the localized complex is not
    acyclic.  No Koszul tensor involved.  Computed once per complex."""
    return cx._cached(
        "big_support", lambda: _pointwise(cx, lambda q: not localize(cx, q).is_acyclic())
    )


def foxby_support(cx):
    """Residue-field support: primes p with C ⊗^L k(p) not acyclic.
    Computed once per complex."""
    return cx._cached(
        "foxby_support", lambda: _pointwise(cx, lambda q: cx.ring.residue_nonzero(cx, q))
    )


def detect_vanishing(cx):
    """Support-theoretic zero test: True iff the small support is empty."""
    return small_support(cx).is_empty


# ---------------------------------------------------------------------------
# weakly associated primes


def weakly_associated(module):
    """Primes attached to a module through its canonical decomposition: the
    prime carrying its free rank (the generic point, or the maximal ideal
    over the local nilpotent algebra), and every prime dividing an
    invariant factor (each such prime is minimal over the annihilator of
    the corresponding cyclic summand's generator).  Canonical forms have
    unit primes stripped already."""
    canon = module.canonical()
    out = {module.rank_prime} if canon.rank else set()
    for d in canon.factors:
        out.update(factorize(d))
    out.update(q for q, _m in canon.divisible)
    return frozenset(out)


# ---------------------------------------------------------------------------
# compatibility checks


def localize_support_check(cx, invert):
    """Inverting a finite prime set W cuts the support down to the primes
    outside W: supp(C[W^{-1}]) = supp(C) minus V-of-W.  Returns (ok, both
    descriptors).  A prime made a unit is no point of Spec Z[1/S], so
    after is read through the localized ring: a cofinite descriptor's "all
    closed points" names only the primes that are still points."""
    ring = cx.ring
    if not isinstance(ring, IntegersLocalized) or ring.at_prime is not None:
        raise InputError("localization check is for the plain integer flavours")
    invert = frozenset(invert)
    localized = over_ring(cx, IntegersLocalized(inverted=ring.inverted | invert))
    before = small_support(cx)
    after = small_support(localized)
    sample = set(candidate_primes(cx)) | invert
    ok = all(
        (not localized.ring.is_unit_prime(p) and after.contains(p))
        == (before.contains(p) and p not in invert)
        for p in sample
    ) and after.generic == before.generic
    return ok, before, after


def base_change_check(cx, source):
    """Restriction of scalars compatibility: the support computed over the
    source ring equals the (label-preserving) image of the support over the
    quotient ring.  source is either "Z" (for complexes over Z/n) or an
    integer N (for restriction Z/n -> Z/N with n | N)."""
    ring = cx.ring
    if not isinstance(ring, ModularIntegers):
        raise InputError("base change check starts from a Z/n complex")
    upstairs = small_support(cx).closed_set()
    if source == "Z":
        restricted = restrict_to_integers(cx)
    else:
        restricted = restrict_modulus(cx, source)
    downstairs = small_support(restricted)
    assert not downstairs.cofinite and not downstairs.generic
    return upstairs == downstairs.closed_set(), upstairs, downstairs.closed_set()


# ---------------------------------------------------------------------------
# torsion / localization functors over Z/n and the property suite


def crt_element(ring, v_primes):
    """x with x ≡ 0 at the p-parts inside V and x ≡ 1 outside; then the
    vanishing locus of x is exactly V."""
    if not isinstance(ring, ModularIntegers):
        raise InputError("CRT elements live in Z/n")
    v_primes = set(v_primes)
    n = ring.n
    x = 0
    for p in ring.prime_divisors():
        pk = ring.residue_modulus(p)
        rest = n // pk
        if p not in v_primes:
            # add the idempotent-ish piece congruent to 1 mod p^k, 0 elsewhere
            inv = pow(rest, -1, pk)
            x += rest * inv
    return x % n


def torsion_functor(cx, v_primes):
    """Γ_V as the stable Koszul complex on a defining element of V."""
    return koszul_stable(crt_element(cx.ring, v_primes), cx)


def localization_functor(cx, v_primes):
    """L_V as localization away from V."""
    return localize_by_element(cx, crt_element(cx.ring, v_primes))


def main1_property_suite(cx, v_primes, other=None, scalar=0):
    """Named checks tying supports to the torsion/localization triangle over
    Z/n.  Returns a dict name -> bool.  other (a second complex) feeds the
    triangle and orthogonality items; scalar builds the cone over
    multiplication by that scalar when other is the same shape."""
    ring = cx.ring
    if not isinstance(ring, ModularIntegers):
        raise InputError("the property suite runs over Z/n")
    v_primes = frozenset(v_primes)
    supp = small_support(cx).closed_set()
    gamma = torsion_functor(cx, v_primes)
    ell = localization_functor(cx, v_primes)
    out = {}
    out["torsion_support"] = small_support(gamma).closed_set() == supp & v_primes
    out["localized_support"] = small_support(ell).closed_set() == supp - v_primes
    out["supp_in_v_iff_localization_dies"] = (supp <= v_primes) == ell.is_acyclic()
    out["supp_misses_v_iff_torsion_dies"] = (not supp & v_primes) == gamma.is_acyclic()
    big = big_support(cx).closed_set()
    out["small_inside_big"] = supp <= big
    out["big_inside_small"] = big <= supp
    if other is not None:
        supp2 = small_support(other).closed_set()
        zero_blocks = {}
        mapped = cone(zero_blocks, other, cx)  # triangle C -> cone -> other[1]
        out["triangle_union"] = small_support(mapped).closed_set() <= supp | supp2
    if scalar:
        mapped = cone(identity_blocks(cx, scalar), cx, cx)
        out["triangle_scalar"] = small_support(mapped).closed_set() <= supp
    return out


def orthogonality_check(cx, other, v_primes):
    """With supp(first) inside V and supp(second) missing V, every shifted
    Hom group in the window (-2, 2) vanishes.  Returns (applicable, ok, result)."""
    first = torsion_functor(cx, v_primes)
    second = localization_functor(other, v_primes)
    s1 = small_support(first).closed_set()
    s2 = small_support(second).closed_set()
    applicable = s1 <= frozenset(v_primes) and not (s2 & frozenset(v_primes))
    res = hom_complex_h0(first, second, window=(-2, 2))
    ok = bool(res.certified and res.all_vanish)
    return applicable, ok, res
