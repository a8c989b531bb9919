"""Rings, finitely presented modules, cochain complexes and their cohomology.

Three base ring flavours are supported, each behind one ring interface:

* ``IntegersLocalized`` -- the integers with a finite set of primes
  inverted, or ("at_prime" form) with every prime except one inverted.
  Modules are presented by integer matrices; inverted primes are stripped
  from invariant factors at canonicalization time.
* ``ModularIntegers`` -- Z/n.  Modules are presented by integer matrices
  with n*I folded in implicitly.
* ``LocalNilpotentAlgebra`` -- a truncated polynomial algebra
  F_p[x_1,...]/(x_i^{e_i}); modules are finite dimensional F_p vector
  spaces with commuting nilpotent generator actions.

Every ring answers the questions that localization, the stable Koszul
tensor and the supports in ``support`` ask of it, so none of those branches
on the flavour:

* ``zero_module()`` and ``module_from_json(raw)`` build its modules;
* ``spectrum()`` gives its closed points (None when infinitely many) and a
  description, ``has_generic`` says whether Spec has a generic point (0),
  and ``closed_primes(cx)`` lists the closed points where a complex can have
  support;
* ``localized_at(p)`` is the ring at a prime, ``koszul_elements(p)``
  generates the prime, ``_koszul_stable(x, cx)`` tensors with R -> R[1/x];
* ``residue_nonzero(cx, p)`` tests C ⊗^L k(p) != 0;
* over the integer flavours ``is_unit_prime(q)`` says whether the prime q
  is a unit and ``is_unit(x)`` whether the integer x is; over the local
  nilpotent algebra ``element_is_unit(x)`` says it for an element.

Modules share the generator count ``ngens``; the algebra behind validation
and cohomology sits in the two module classes.  Z/n with two or more primes
p | n (``ring.crt_primes``) is the product of its localizations Z/p^k,
p^k || n (CRT), so its modules and complexes are computed there: a complex
is validated through its localization at each p | n, and its cohomology and
a module's ``canonical()`` recombine the local answers.
Over a prime field F_p (``ring.field_prime``) a presented module is computed
from ranks over F_p, the algebra the local nilpotent flavour runs on too;
over the other integer flavours, Z/p^k included, from Smith forms, a
complex's cohomology from the diagonals of its free model over Z.

Modules and complexes are immutable, and their matrices are tuples of row
tuples.  So each answer derived from one is computed once and kept on it: a
presented module's relation form (a Smith form and a basis of the relations,
or their rank mod p, behind validation, ``canonical()``, ``is_zero`` and the
free model) and its localizations, and a complex's cohomology groups, its
localization at each prime and by each element (keyed by the part of the
modulus that survives), its free model and that model's Smith diagonals,
over a prime field its map ranks rank_p[d_i | R_(i+1)], and, through
``support``, its supports.  Each ring builds its zero module once.  The
constructors validate outside input; shifts, direct sums, cones (certified
by their blocks), derived-Hom complexes (certified by d_P^2 = 0),
localizations and ring changes of valid complexes are valid by
construction, each proved in its docstring, and are assembled.

Differentials raise degree by one.  d(a ⊗ b) = da ⊗ b + (-1)^|a| a ⊗ db is
the sign rule used for the two-term tensor constructions below.
"""

from itertools import chain, combinations, product
from math import gcd, prod
from types import MappingProxyType

from .errors import InputError, ResourceLimitError
from .smith import (
    block_diag,
    block_matrix,
    diagonal,
    divide_diagonal,
    factorize,
    fp_kernel,
    fp_reduce,
    hstack,
    identity,
    kernel_basis,
    lattice_form,
    mat_mul,
    mat_vec,
    quotient_generators,
    rank_p,
    smith_normal_form,
    transpose,
    zeros,
)
from .values import Immutable, Record, derived

HOM_GENS_MAX = 800


def _is_prime(q):
    return isinstance(q, int) and q >= 2 and list(factorize(q)) == [q]


def _prime_part(d, primes):
    """The largest divisor of d built from the given primes."""
    part = 1
    for q in primes:
        while d % q == 0:
            part *= q
            d //= q
    return part


# ---------------------------------------------------------------------------
# rings


class _IntegerFlavour(Record):
    """Ring interface shared by the flavours whose modules are presented by
    integer matrices."""

    def zero_module(self):
        return self._zero_module

    @derived
    def _zero_module(self):
        """The zero module, built once per ring object."""
        return PresentedModule(self, 0, [])

    def module_from_json(self, raw):
        # the constructor refuses anything but a list of integer rows
        return PresentedModule(self, len(raw) if isinstance(raw, list) else 0, raw)

    def koszul_elements(self, q):
        """Generators of the prime q: q itself."""
        return (q,)

    def residue_nonzero(self, cx, p):
        return derived_tensor_residue(cx, p).is_nonzero


class IntegersLocalized(_IntegerFlavour):
    __slots__ = ("inverted", "at_prime")

    has_generic = True
    crt_primes = None
    field_prime = None

    def __init__(self, inverted=frozenset(), at_prime=None):
        inverted = frozenset(inverted)
        if at_prime is not None:
            if not _is_prime(at_prime):
                raise InputError("at_prime must be prime")
            if inverted:
                raise InputError("at_prime form keeps no explicit inverted set")
        elif not all(_is_prime(q) for q in inverted):
            raise InputError("inverted set must consist of primes")
        self._freeze(inverted=inverted, at_prime=at_prime)

    @property
    def modulus(self):
        return 0

    def is_unit_prime(self, q):
        """Whether the prime q is inverted (ring interface)."""
        if self.at_prime is not None:
            return q != self.at_prime
        return q in self.inverted

    def is_unit(self, x):
        """Whether the integer x is a unit: nonzero with every prime factor
        inverted (ring interface)."""
        if not isinstance(x, int):
            raise InputError("ring elements here are integers")
        if x == 0:
            return False
        return all(self.is_unit_prime(q) for q in factorize(x))

    def localized_at(self, p):
        """Every prime except p becomes a unit; matrices are unchanged and
        canonicalization does the stripping."""
        if p == 0:
            raise InputError("use derived_tensor_residue for the generic point")
        if self.is_unit_prime(p):
            raise InputError("cannot localize at an already inverted prime")
        return IntegersLocalized(at_prime=p)

    def spectrum(self):
        if self.at_prime is not None:
            return (self.at_prime,), "local, one closed point"
        return None, "generic point plus all primes outside the inverted set"

    def closed_primes(self, cx):
        """Non-unit primes dividing any matrix entry of the complex or any
        invariant factor of its cohomology.  Outside this set localization
        kills every presentation entry's torsion, so membership is decided
        by the free ranks alone."""
        seen = set()
        for mat in (*(m.rel for m in cx.modules), *cx.differentials):
            for v in chain.from_iterable(mat):
                if v:
                    seen.update(factorize(v))
        for i in cx.degrees():
            for f in cx.cohomology(i).factors:
                seen.update(factorize(f))
        return tuple(sorted(q for q in seen if not self.is_unit_prime(q)))

    def _koszul_stable(self, x, cx):
        return _koszul_symbolic(x, cx)

    def strip_units(self, d):
        """Remove unit-prime parts from an invariant factor."""
        assert d > 0
        if self.at_prime is not None:
            return _prime_part(d, (self.at_prime,))
        return d // _prime_part(d, self.inverted)

    def label(self):
        if self.at_prime is not None:
            return "Z_(%d)" % self.at_prime
        if self.inverted:
            return "Z[1/%s]" % ",".join(str(q) for q in sorted(self.inverted))
        return "Z"

    def to_json(self):
        if self.at_prime is not None:
            return {"type": "Z", "at_prime": self.at_prime}
        return {"type": "Z", "inverted": sorted(self.inverted)}


class ModularIntegers(_IntegerFlavour):
    __slots__ = ("n",)

    has_generic = False

    def __init__(self, n):
        if not isinstance(n, int) or n < 2:
            raise InputError("ModularIntegers wants n >= 2")
        self._freeze(n=n)

    @property
    def modulus(self):
        return self.n

    def prime_divisors(self):
        return tuple(sorted(self._prime_powers()))

    @derived
    def _factors(self):
        """factorize(n), or None when n is too large to factor."""
        try:
            return factorize(self.n)
        except ResourceLimitError:
            return None

    def _prime_powers(self):
        """factorize(n), taken once; for an n too large to factor, factorize
        raises its ResourceLimitError again."""
        return factorize(self.n) if self._factors is None else self._factors

    @derived
    def _local_rings(self):
        """Z/p^k for each p^k || n, one ring object per prime."""
        return {p: ModularIntegers(p**k) for p, k in self._prime_powers().items()}

    @derived
    def crt_primes(self):
        """The primes p | n when there are two or more: Z/n is then the
        product of the Z/p^k, p^k || n.  None for a prime power and for an
        n too large to factor."""
        f = self._factors
        return tuple(sorted(f)) if f and len(f) > 1 else None

    @derived
    def field_prime(self):
        """n when it is prime, so that Z/n is the field F_n; else None."""
        return self.n if self._factors == {self.n: 1} else None

    def is_unit_prime(self, q):
        """Whether the prime q is a unit mod n, as it is when q ∤ n (ring
        interface)."""
        return self.n % q != 0

    def is_unit(self, x):
        """Whether the integer x is a unit mod n (ring interface)."""
        if not isinstance(x, int):
            raise InputError("ring elements here are integers")
        return gcd(x, self.n) == 1

    def residue_modulus(self, p):
        """p-part p^k of n."""
        f = self._prime_powers()
        if type(p) is not int or p not in f:
            raise InputError("%r does not divide the modulus" % (p,))
        return p ** f[p]

    def coprime_part(self, x):
        """Largest divisor n' of n coprime to x; inverting x lands in Z/n'."""
        out = 1
        for p, k in self._prime_powers().items():
            if x % p != 0:
                out *= p**k
        return out

    def strip_units(self, d):
        return d

    def spectrum(self):
        return self.prime_divisors(), "finite discrete"

    def closed_primes(self, cx):
        return self.prime_divisors()

    def localized_at(self, p):
        """Z/p^k, the p-part of the modulus, the same object on every call."""
        self.residue_modulus(p)  # refuses what does not divide n
        return self._local_rings[p]

    def _koszul_stable(self, x, cx):
        if not isinstance(x, int):
            raise InputError("elements of Z/n are integers")
        # a nilpotent x makes C[1/x] = 0
        loc = localize_by_element(cx, x) if self.coprime_part(x) != 1 else None
        return _localization_cone(cx, loc)

    def label(self):
        return "Z/%d" % self.n

    def to_json(self):
        return {"type": "Z/n", "n": self.n}


class LocalNilpotentAlgebra(Record):
    __slots__ = ("p", "generators")  # generators: (name, exponent >= 2) pairs

    has_generic = False
    crt_primes = None

    def __init__(self, p, generators):
        if not _is_prime(p):
            raise InputError("characteristic must be prime")
        gens = tuple((n, e) for n, e in generators)
        if not all(type(n) is str and type(e) is int for n, e in gens):
            raise InputError("generator names must be strings and exponents integers")
        if not gens:
            raise InputError("a local nilpotent ring needs at least one generator")
        if any(e < 2 for _n, e in gens):
            raise InputError("nilpotency exponents must be >= 2")
        if len({n for n, _e in gens}) != len(gens):
            raise InputError("duplicate generator names")
        self._freeze(p=p, generators=gens)

    def monomials(self):
        """Exponent tuples of the monomial basis, lexicographic."""
        return list(product(*(range(e) for _n, e in self.generators)))

    @property
    def dim(self):
        return prod(e for _n, e in self.generators)

    def multiplication_matrix(self, name):
        """Matrix of multiplication by the generator on the monomial basis."""
        mons = self.monomials()
        idx = {m: i for i, m in enumerate(mons)}
        gi = [n for n, _e in self.generators].index(name)
        mat = zeros(len(mons), len(mons))
        for m in mons:
            bumped = list(m)
            bumped[gi] += 1
            if bumped[gi] < self.generators[gi][1]:
                mat[idx[tuple(bumped)]][idx[m]] = 1
        return mat

    def element_is_unit(self, x):
        """Ring elements are given as a constant (int), a generator name, or
        a coefficient vector over the monomial basis.  A nonzero constant
        term (the first: the basis is lexicographic) means unit; everything
        else is nilpotent (the ring is local).  The flavour's unit test in
        the ring interface."""
        if isinstance(x, int):
            return x % self.p != 0
        if isinstance(x, str):
            if x not in [n for n, _e in self.generators]:
                raise InputError("unknown generator %r" % x)
            return False
        vec = list(x)
        if len(vec) != self.dim:
            raise InputError("element vector has the wrong length")
        return vec[0] % self.p != 0

    def zero_module(self):
        return self._zero_module

    @derived
    def _zero_module(self):
        """The zero module, built once per ring object."""
        return LnaModule(self, 0, {n: [] for n, _e in self.generators})

    def module_from_json(self, raw):
        dim = _json_key(raw, "dim", "module")
        actions = _json_key(raw, "actions", "module")
        if type(dim) is not int or dim < 0 or not isinstance(actions, dict):
            raise InputError("module key 'dim' must be a count and 'actions' an object")
        return LnaModule(self, dim, actions)

    def spectrum(self):
        return ("m",), "one-point local"

    def closed_primes(self, cx):
        return ("m",)

    def localized_at(self, p):
        """The ring is local: at its only prime, the token "m", nothing
        changes."""
        if p != "m":
            raise InputError("the only prime here is the maximal ideal token 'm'")
        return self

    def koszul_elements(self, q):
        return tuple(n for n, _e in self.generators)

    def _koszul_stable(self, x, cx):
        # R[1/x] is R for a unit and 0 for a nilpotent
        return _localization_cone(cx, cx if self.element_is_unit(x) else None)

    def residue_nonzero(self, cx, p):
        """Over a local ring a bounded complex is residue-acyclic iff it is
        acyclic, and cohomology here is plain linear algebra."""
        return not cx.is_acyclic()

    def label(self):
        return "F%d[%s]/(%s)" % (
            self.p,
            ",".join(n for n, _e in self.generators),
            ",".join("%s^%d" % (n, e) for n, e in self.generators),
        )

    def to_json(self):
        return {
            "type": "local_nilpotent",
            "p": self.p,
            "generators": [[n, e] for n, e in self.generators],
        }


def _json_key(obj, key, what):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError("%s JSON needs the key %r" % (what, key))
    return obj[key]


def _json_ints(raw, what):
    """raw itself if it is a list (or tuple) of integers, else InputError."""
    if not isinstance(raw, (list, tuple)) or not all(type(x) is int for x in raw):
        raise InputError("%s must be a list of integers" % what)
    return raw


def _frozen(mat):
    """A matrix of integers, already checked, as a tuple of row tuples."""
    return tuple(map(tuple, mat))


def _json_int_matrix(raw, what):
    """raw as a tuple of integer row tuples, if it is a list (or tuple) of
    rows of integers, else InputError."""
    if not isinstance(raw, (list, tuple)):
        raise InputError("%s must be a list of rows of integers" % what)
    return tuple(tuple(_json_ints(row, "each row of " + what)) for row in raw)


def ring_from_json(obj):
    t = _json_key(obj, "type", "ring")
    if t == "Z":
        inverted = _json_ints(obj.get("inverted", []), "ring key 'inverted'")
        return IntegersLocalized(inverted=frozenset(inverted), at_prime=obj.get("at_prime"))
    if t == "Z/n":
        return ModularIntegers(_json_key(obj, "n", "Z/n ring"))
    if t == "local_nilpotent":
        p = _json_key(obj, "p", "local_nilpotent ring")
        gens = _json_key(obj, "generators", "local_nilpotent ring")
        if not isinstance(gens, list) or not all(
            isinstance(g, list) and len(g) == 2 for g in gens
        ):
            raise InputError("ring key 'generators' must be a list of [name, exponent] pairs")
        return LocalNilpotentAlgebra(p, tuple((n, e) for n, e in gens))
    raise InputError("unknown ring type %r" % (t,))


# ---------------------------------------------------------------------------
# canonical forms


class CanonicalModule(Record):
    """Isomorphism-class data of a module: invariant factors, free rank and
    (for the symbolic localization calculus) divisible p-power-torsion parts
    recorded as (prime, multiplicity) pairs."""

    __slots__ = ("factors", "rank", "divisible")

    rank_prime = 0  # free rank lives at the generic point

    def __init__(self, factors=(), rank=0, divisible=()):
        self._freeze(factors=factors, rank=rank, divisible=divisible)

    @property
    def is_zero(self):
        return not self.factors and self.rank == 0 and not self.divisible

    def canonical(self):
        return self


def canonical_module(ring, factors, rank, divisible=()):
    stripped = []
    for d in factors:
        d2 = ring.strip_units(d)
        if d2 != 1:
            stripped.append(d2)
    div = tuple(sorted((q, m) for q, m in divisible if m > 0))
    return CanonicalModule(tuple(sorted(stripped)), rank, div)


def _crt_canonical(ring, parts):
    """The Z/n module whose localizations at the primes p | n are the
    modules parts (CRT): its i-th largest invariant factor is the product
    of the i-th largest factors of the parts."""
    desc = [c.factors[::-1] for c in parts]
    top = max(map(len, desc), default=0)
    return canonical_module(ring, [prod(f[i] for f in desc if i < len(f)) for i in range(top)], 0)


# ---------------------------------------------------------------------------
# presented modules (integer flavours)


class PresentedModule(Immutable):
    """coker of an integer matrix (rows = generators, columns = relations),
    over an integer-flavoured base ring."""

    __slots__ = ("ring", "ngens", "rel")

    rank_prime = 0
    _MAP_ERROR = "differential not well defined at slot %d"

    def __init__(self, ring, ngens, rel):
        if isinstance(ring, LocalNilpotentAlgebra):
            raise InputError("use LnaModule over a local nilpotent algebra")
        if type(ngens) is not int or ngens < 0:
            raise InputError("the generator count must be a nonnegative integer")
        rel = _json_int_matrix(rel, "complex key 'modules'")
        if rel and len(rel) != ngens:
            raise InputError("presentation must have one row per generator")
        if rel and len({len(r) for r in rel}) > 1:
            raise InputError("ragged presentation")
        self._freeze(ring=ring, ngens=ngens, rel=rel if rel else ((),) * ngens)

    @classmethod
    def free(cls, ring, rank):
        return cls(ring, rank, [])

    @classmethod
    def cyclic(cls, ring, d):
        return cls(ring, 1, [[d]])

    @property
    def nrels(self):
        return len(self.rel[0]) if self.ngens and self.rel else 0

    def relation_columns(self):
        """Columns generating the relation lattice, modulus included."""
        cols = [[self.rel[i][j] for i in range(self.ngens)] for j in range(self.nrels)]
        m = self.ring.modulus
        if m:
            cols += [[m if i == j else 0 for i in range(self.ngens)] for j in range(self.ngens)]
        return cols

    def _form(self):
        """``lattice_form`` of the relation columns A: (diag, U, basis).
        When no explicit relation is nonzero, A spans the columns of
        modulus·I (or nothing), their own Smith form and basis, and U = I is
        given as None."""

        def compute():
            cols = self.relation_columns()
            if not any(map(any, self.rel)):
                m = self.ring.modulus
                return ((m,) * self.ngens if m else ()), None, cols[self.nrels :]
            return lattice_form(cols)

        return self._cached("form", compute)

    def _coordinates(self, vecs):
        """Each vector's coordinates y in the form's basis U^-1·D (so
        U·v = D·y), None for one outside the relation lattice."""
        diag, u, _basis = self._form()
        return [divide_diagonal(diag, v if u is None else mat_vec(u, v)) for v in vecs]

    def _fp_rank(self):
        """rank_p of the explicit relations over F_p; the relations p·I
        vanish mod p."""
        return self._cached("fp_rank", lambda: rank_p(self.rel, self.ring.field_prime))

    def localized(self, p):
        """The same presentation over the ring localized at p, built once:
        over a Z/n split by CRT, the relation form lives on it."""
        return self._cached(("localized", p), lambda: self._with(ring=self.ring.localized_at(p)))

    def canonical(self):
        """H^0 of the module placed in degree 0: the complex owns the ring
        dispatch (CRT split, ranks over F_p, Smith diagonals)."""
        return self._cached("canonical", lambda: module_complex(self).cohomology(0))

    @property
    def is_zero(self):
        return self.canonical().is_zero

    def direct_sum(self, other):
        """The direct sum; a summand without generators leaves the other one
        itself, relation form included."""
        assert self.ring == other.ring
        if not other.ngens:
            return self
        if not self.ngens:
            return other
        rel = _frozen(block_diag([self.rel, other.rel]))
        return self._with(ngens=self.ngens + other.ngens, rel=rel)

    def _kills(self, vecs):
        """Whether every vector (on the generators) is zero in the module:
        over F_p, iff no vector raises the rank of the relations mod p; else
        iff each has coordinates in the relation form's basis."""
        p = self.ring.field_prime
        if p:
            return (
                not any(x % p for v in vecs for x in v)
                or rank_p(hstack(self.rel, transpose(vecs)), p) == self._fp_rank()
            )
        return None not in self._coordinates(vecs)

    def _accepts(self, d, src):
        """Whether d carries the relations of src into those of self."""
        return self._kills([mat_vec(d, col) for col in src.relation_columns()])

    def _homology(self, cx, i):
        """H^i(cx), self its module in degree i.  Over F_p, from dimensions:
        with R the relations of a module, Z the preimage of R_next under d_i
        and B the span of R_here and im d_(i-1),
            dim Z = g - (rank_p[d_i | R_next] - rank_p R_next),
            dim B = rank_p[R_here | d_(i-1)] = rank_p[d_(i-1) | R_here],
        the last a column permutation of the matrix H^(i-1) takes for its
        cycles: ``_fp_map_rank`` takes each such rank once per complex.
        Else from the free model P: ker δ_i is pure in P^i, so H^i is
        Z^(rank P^i - rank δ_i - rank δ_(i-1)) ⊕ the torsion of coker δ_(i-1)."""
        g = self.ngens
        if g == 0:
            return canonical_module(self.ring, (), 0)
        p = self.ring.field_prime
        if p:
            z = g - _fp_map_rank(cx, i) + cx.module(i + 1)._fp_rank()
            dim = z - _fp_map_rank(cx, i - 1)
            assert dim >= 0, "image larger than the kernel mod %d" % p
            return canonical_module(self.ring, (p,) * dim, 0)
        k = i - cx.min_deg + 1  # ranks[k] = rank P^i, deltas[k] = δ_i
        into, out = _smith_diagonal(cx, k - 1), _smith_diagonal(cx, k)
        rank = _free_model(cx)[0][k] - len(into) - len(out)
        assert not (rank and self.ring.modulus), "free rank over Z/n"
        return canonical_module(self.ring, into, rank)

    def to_json(self):
        return [list(row) for row in self.rel]

    def __repr__(self):
        c = self.canonical()
        return "PresentedModule(%s, factors=%r, rank=%d)" % (
            self.ring.label(),
            c.factors,
            c.rank,
        )


# ---------------------------------------------------------------------------
# modules over a local nilpotent algebra


class LnaModule(Immutable):
    """Finite dimensional F_p vector space with commuting nilpotent actions
    of the algebra generators."""

    __slots__ = ("ring", "dim", "actions")

    rank_prime = "m"  # canonical() reports the dimension as its rank
    _MAP_ERROR = "differential is not module-linear at slot %d"

    def __init__(self, ring, dim, actions):
        if not isinstance(ring, LocalNilpotentAlgebra):
            raise InputError("LnaModule wants a LocalNilpotentAlgebra")
        p = ring.p
        actions = {
            n: tuple(
                tuple(x % p for x in row) for row in _json_int_matrix(a, "module key 'actions'")
            )
            for n, a in actions.items()
        }
        if set(actions) != {n for n, _e in ring.generators}:
            raise InputError("need one action per algebra generator")
        for name, e in ring.generators:
            a = actions[name]
            if len(a) != dim or any(len(r) != dim for r in a):
                raise InputError("action matrix shape mismatch")
            # a nilpotent dim x dim matrix has a^dim = 0, so a^min(e, dim) decides
            power = a
            for _ in range(min(e, dim) - 1):
                power = [[x % p for x in row] for row in mat_mul(power, a)]
            if any(x % p for row in power for x in row):
                raise InputError("action violates the nilpotency exponent of %s" % name)
        for a, b in combinations(actions.values(), 2):
            ab, ba = mat_mul(a, b), mat_mul(b, a)
            if any((x - y) % p for ra, rb in zip(ab, ba) for x, y in zip(ra, rb)):
                raise InputError("generator actions do not commute")
        self._freeze(ring=ring, dim=dim, actions=MappingProxyType(actions))

    @classmethod
    def free(cls, ring, rank):
        """R^rank.  The generators' multiplication matrices on the monomial
        basis commute, as R is commutative and associative (x(ym) = y(xm)),
        and satisfy x^e = 0, as x^e is zero in R; so do their block diagonal
        copies, and the module is assembled without the checks."""
        actions = {
            n: _frozen(block_diag([ring.multiplication_matrix(n)] * rank))
            for n, _e in ring.generators
        }
        return cls._assembled(ring=ring, dim=ring.dim * rank, actions=MappingProxyType(actions))

    @property
    def ngens(self):
        """Size of the action matrices, under the name PresentedModule uses."""
        return self.dim

    def canonical(self):
        return CanonicalModule((), self.dim, ())

    @property
    def is_zero(self):
        return self.dim == 0

    def _kills(self, vecs):
        p = self.ring.p
        return not any(x % p for v in vecs for x in v)

    def _accepts(self, d, src):
        """Whether d commutes with every generator action."""
        for n in src.actions:
            left, right = mat_mul(d, src.actions[n]), mat_mul(self.actions[n], d)
            if not self._kills([[x - y for x, y in zip(a, b)] for a, b in zip(left, right)]):
                return False
        return True

    def _homology(self, cx, i):
        """H^i(cx) = ker(d_i) / im(d_(i-1)) mod p, with the induced actions.

        Each action a commutes with d_i and d_(i-1), the complex's maps being
        module maps, so it keeps the kernel and the image and induces a map
        on their quotient, whose matrix in the coset basis is read below.
        Inducing keeps products: the induced maps commute as ab = ba, and
        the power a^e = 0 induces zero.  So the module is assembled without
        the checks."""
        p = self.ring.p
        g = self.dim
        if g == 0:
            return self.ring.zero_module()
        ker = fp_kernel(cx.differential(i), g, p)
        cols = [[x % p for x in col] for col in transpose(cx.differential(i - 1))] + ker
        # the pivot columns of [im d_(i-1) | ker]: a basis of the image, then the
        # kernel vectors that extend it greedily to a basis of the kernel
        _rref, pivots = fp_reduce(transpose(cols), p)
        first_ker = len(cols) - len(ker)
        coset = [cols[c] for c in pivots if c >= first_ker]
        if not coset:
            return self.ring.zero_module()
        # one reduction of [coset + image basis | act * coset] per generator:
        # the basis columns are independent, so row r < len(coset) holds the
        # coset coordinates of each act * v past the basis columns
        basis = coset + [cols[c] for c in pivots if c < first_ker]
        actions = {}
        for name, act in self.actions.items():
            rref, pivots = fp_reduce(transpose(basis + [mat_vec(act, v) for v in coset]), p)
            assert len(pivots) == len(basis), "vector left the kernel subquotient"
            actions[name] = _frozen(row[len(basis) :] for row in rref[: len(coset)])
        return self._with(dim=len(coset), actions=MappingProxyType(actions))

    def direct_sum(self, other):
        """The direct sum; a zero-dimensional summand leaves the other itself."""
        assert self.ring == other.ring
        if not other.dim:
            return self
        if not self.dim:
            return other
        # block diagonal actions of two nilpotent, commuting families are
        # nilpotent to the same exponents and commute
        actions = {n: _frozen(block_diag([a, other.actions[n]])) for n, a in self.actions.items()}
        return self._with(dim=self.dim + other.dim, actions=MappingProxyType(actions))

    def to_json(self):
        return {
            "dim": self.dim,
            "actions": {n: [list(row) for row in self.actions[n]] for n in sorted(self.actions)},
        }

    def __repr__(self):
        return "LnaModule(dim=%d)" % self.dim


# ---------------------------------------------------------------------------
# cochain complexes


class ChainComplex(Immutable):
    """Bounded cochain complex.  modules[k] sits in degree min_deg + k and
    differentials[k] maps it to modules[k+1] (matrix rows = target
    generators).  Cohomology, localizations and supports are computed once
    per complex and kept on it.

    The constructor validates outside input (``_validate``): over a Z/n
    split by CRT, ``localize(self, p)`` for each p | n in increasing order,
    so a complex with faults at several primes is refused with the first
    fault of the smallest such prime.  Shifts, direct sums, cones, Hom
    complexes, localizations and ring changes of valid complexes are
    assembled."""

    __slots__ = ("ring", "min_deg", "modules", "differentials")

    def __init__(self, ring, min_deg, modules, differentials):
        differentials = [_json_int_matrix(d, "complex key 'differentials'") for d in differentials]
        if len(differentials) != max(len(modules) - 1, 0):
            raise InputError("need exactly len(modules) - 1 differentials")
        if type(min_deg) is not int:
            raise InputError("the lowest degree must be an integer")
        modules = tuple(modules)
        for m in modules:
            if not isinstance(m, (PresentedModule, LnaModule)) or m.ring != ring:
                raise InputError("module/ring mismatch in complex")
        slots = zip(differentials, modules, modules[1:])
        shaped = tuple(_shaped(d, tgt.ngens, src.ngens) for d, src, tgt in slots)
        self._freeze(ring=ring, min_deg=min_deg, modules=modules, differentials=shaped)
        for local in [localize(self, p) for p in ring.crt_primes or ()] or [self]:
            _validate(local.modules, local.differentials)

    # -- structure ----------------------------------------------------------

    @property
    def max_deg(self):
        return self.min_deg + len(self.modules) - 1

    def degrees(self):
        return range(self.min_deg, self.max_deg + 1)

    def module(self, i):
        k = i - self.min_deg
        if 0 <= k < len(self.modules):
            return self.modules[k]
        return self.ring.zero_module()

    def differential(self, i):
        k = i - self.min_deg
        if 0 <= k < len(self.differentials):
            return self.differentials[k]
        return zeros(self.module(i + 1).ngens, self.module(i).ngens)

    def shift(self, s):
        """Same complex moved so old degree i sits in degree i - s; valid as
        self is."""
        return self._with(min_deg=self.min_deg - s)

    def direct_sum(self, other):
        """The direct sum, valid block by block: each module's relations are
        its summands' side by side, and each map, as each d^2, is block
        diagonal."""
        assert self.ring == other.ring
        lo = min(self.min_deg, other.min_deg)
        hi = max(self.max_deg, other.max_deg)
        mods = tuple(self.module(i).direct_sum(other.module(i)) for i in range(lo, hi + 1))
        diffs = []
        for i in range(lo, hi):
            # explicit shapes: a 0-row block would otherwise lose its width
            ra, ca = self.module(i + 1).ngens, self.module(i).ngens
            rb, cb = other.module(i + 1).ngens, other.module(i).ngens
            parts = [(0, 0, self.differential(i)), (ra, ca, other.differential(i))]
            diffs.append(_frozen(block_matrix(ra + rb, ca + cb, parts)))
        return self._with(min_deg=lo, modules=mods, differentials=tuple(diffs))

    # -- cohomology ---------------------------------------------------------

    def cohomology(self, i):
        def compute():
            primes = self.ring.crt_primes
            if primes:
                return _crt_canonical(self.ring, [localize(self, p).cohomology(i) for p in primes])
            return self.module(i)._homology(self, i)

        return self._cached(("cohomology", i), compute)

    def cohomology_all(self):
        return {i: self.cohomology(i) for i in self.degrees()}

    def is_acyclic(self):
        return all(self.cohomology(i).is_zero for i in self.degrees())

    # -- JSON ---------------------------------------------------------------

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "degrees": [self.min_deg, self.max_deg],
            "modules": [m.to_json() for m in self.modules],
            "differentials": [[list(row) for row in d] for d in self.differentials],
        }

    @classmethod
    def from_json(cls, obj):
        required = {"ring", "degrees", "modules", "differentials"}
        if not isinstance(obj, dict) or not required <= set(obj):
            raise InputError("complex JSON needs ring/degrees/modules/differentials")
        ring = ring_from_json(obj["ring"])
        degrees = _json_ints(obj["degrees"], "complex key 'degrees'")
        if len(degrees) != 2:
            raise InputError("complex key 'degrees' must be [lowest, highest]")
        lo, hi = degrees
        raw_modules = obj["modules"]
        if not isinstance(raw_modules, list) or len(raw_modules) != hi - lo + 1:
            raise InputError("degree range and module count disagree")
        modules = [ring.module_from_json(m) for m in raw_modules]
        diffs = obj["differentials"]
        if not isinstance(diffs, list):
            raise InputError("complex key 'differentials' must be a list of matrices")
        return cls(ring, lo, modules, diffs)

    def __repr__(self):
        return "ChainComplex(%s, degrees %d..%d)" % (
            self.ring.label(),
            self.min_deg,
            self.max_deg,
        )


def _validate(modules, differentials):
    """InputError at the first slot where a differential is misshaped (None)
    or not well defined, or where d_(k+1) d_k does not vanish."""
    for k, d in enumerate(differentials):
        src, tgt = modules[k], modules[k + 1]
        if d is None:
            raise InputError("differential shape mismatch at slot %d" % k)
        if src.ngens and tgt.ngens and not tgt._accepts(d, src):
            raise InputError(tgt._MAP_ERROR % k)
    for k in range(len(differentials) - 1):
        src, mid, far = modules[k : k + 3]
        if src.ngens and mid.ngens and far.ngens:
            square = mat_mul(differentials[k + 1], differentials[k])
            if not far._kills(transpose(square)):
                raise InputError("d^2 != 0 between slots %d and %d" % (k, k + 2))


def _shaped(d, rows, cols):
    """d as an exact rows x cols matrix, None if it has another shape; an
    empty matrix stands for the zero map only when rows or cols is 0."""
    if not d and not (rows and cols):
        return ((0,) * cols,) * rows
    if len(d) != rows or any(len(r) != cols for r in d):
        return None
    return d


# ---------------------------------------------------------------------------
# zero / free complex helpers


def zero_complex(ring, degree=0):
    return ChainComplex(ring, degree, [ring.zero_module()], [])


def module_complex(module, degree=0):
    """The module placed in a single degree."""
    return ChainComplex(module.ring, degree, [module], [])


def cone(f_blocks, src, tgt):
    """Total complex of a chain map f: src -> tgt, i.e. degree i part
    src^i ⊕ tgt^{i-1} with d(c, e) = (dc, f(c) - de).

    f_blocks maps degree i to the matrix of f in that degree (missing
    degrees mean zero).  A block sits at a degree of the cone and is
    tgt^i x src^i, shaped as a differential is; anything else is refused,
    naming the degree.

    The cone is certified by its blocks.  Its differential is
    d_i = [[d_src, 0], [f_i, -d_tgt]], so
        d_(i+1) d_i = [[d_src d_src, 0], [f_(i+1) d_src - d_tgt f_i, d_tgt d_tgt]],
    and the relations of src^i ⊕ tgt^(i-1) are the two summands' relations
    side by side (over the local nilpotent algebra the generators act block
    by block), so a vector of the sum lies in them iff each part lies in its
    summand's.  src and tgt are valid complexes: d_src and d_tgt carry
    relations into relations and their squares vanish in their targets.
    Hence d_i is well defined iff f_i carries the relations of src^i into
    those of tgt^i, and d_(i+1) d_i vanishes iff f_(i+1) d_src - d_tgt f_i
    vanishes in tgt^(i+1): the literal validation of the cone passes exactly
    when these two checks pass at every degree.  Over a Z/n split by CRT the
    literal validation runs at each p | n, so both checks do too, on the
    localizations of src and tgt at p.  A cone whose blocks fail is
    validated literally, and refused with the message of its first fault."""
    assert src.ring == tgt.ring
    ring = src.ring
    lo = min(src.min_deg, tgt.min_deg + 1)
    hi = max(src.max_deg, tgt.max_deg + 1)
    blocks = {}
    for i, f in f_blocks.items():
        if type(i) is not int or not lo <= i <= hi:
            raise InputError("chain map block at degree %r is outside the cone" % (i,))
        sc, tc = src.module(i).ngens, tgt.module(i).ngens
        f = _shaped(_json_int_matrix(f, "chain map block at degree %d" % i), tc, sc)
        if f is None:
            raise InputError("chain map block at degree %d must be %d x %d" % (i, tc, sc))
        if sc and tc:
            blocks[i] = f
    modules = tuple(src.module(i).direct_sum(tgt.module(i - 1)) for i in range(lo, hi + 1))
    diffs = []
    for i in range(lo, hi):
        sc, tc = src.module(i).ngens, tgt.module(i - 1).ngens
        sn, tn = src.module(i + 1).ngens, tgt.module(i).ngens
        minus_d = [[-v for v in row] for row in tgt.differential(i - 1)]
        parts = [(0, 0, src.differential(i)), (sn, 0, blocks.get(i, ())), (sn, sc, minus_d)]
        diffs.append(_frozen(block_matrix(sn + tn, sc + tc, parts)))
    primes = ring.crt_primes or ()
    pairs = [(localize(src, p), localize(tgt, p)) for p in primes] or [(src, tgt)]
    if not all(_is_chain_map(blocks, s, t, lo, hi) for s, t in pairs):
        return ChainComplex(ring, lo, modules, diffs)
    return ChainComplex._assembled(ring=ring, min_deg=lo, modules=modules, differentials=tuple(diffs))


def _is_chain_map(blocks, src, tgt, lo, hi):
    """Whether the blocks, over a ring not split by CRT, pass the two checks
    that certify their cone (see ``cone``) in degrees lo .. hi - 1."""
    return all(
        _carries_relations(blocks, src, tgt, i) and _commutes(blocks, src, tgt, i)
        for i in range(lo, hi)
    )


def _carries_relations(blocks, src, tgt, i):
    """Whether f_i carries the relations of src^i into those of tgt^i; a
    zero block, and a side without generators, carry them trivially."""
    return i not in blocks or tgt.module(i)._accepts(blocks[i], src.module(i))


def _commutes(blocks, src, tgt, i):
    """Whether f_(i+1) d_src - d_tgt f_i vanishes in tgt^(i+1)."""
    if i not in blocks and i + 1 not in blocks:
        return True
    # a nonzero block has generators on both sides, so each product below
    # has its full shape: tgt^(i+1) x src^i
    diff = zeros(tgt.module(i + 1).ngens, src.module(i).ngens)
    if i + 1 in blocks:
        diff = mat_mul(blocks[i + 1], src.differential(i))
    if i in blocks:
        right = mat_mul(tgt.differential(i), blocks[i])
        diff = [[x - y for x, y in zip(a, b)] for a, b in zip(diff, right)]
    return not any(map(any, diff)) or tgt.module(i + 1)._kills(transpose(diff))


def identity_blocks(cx, c=1):
    """Blocks of c times the identity chain map on cx, for ``cone``."""
    return {
        i: [[c * v for v in row] for row in identity(cx.module(i).ngens)]
        for i in cx.degrees()
    }


# ---------------------------------------------------------------------------
# localization


def localize(cx, p):
    """Localize a complex at a prime p of its ring, once per complex and p:
    its modules localized, the same differentials.  ring.localized_at(p)
    names the local ring and refuses primes it does not have.  Valid as cx
    is: a local module keeps its parent's relations (and gains p^k·I over
    Z/n, p^k || n), so maps still carry relations into relations and each
    d^2 still vanishes."""
    ring = cx.ring.localized_at(p)
    if ring == cx.ring:
        return cx
    return cx._cached(
        ("localize", p),
        lambda: cx._with(ring=ring, modules=tuple(m.localized(p) for m in cx.modules)),
    )


def over_ring(cx, ring, kill=0):
    """cx with its presented modules moved over ring; kill > 0 adds the
    relation kill * e_i on every generator e_i.  Every caller keeps
    c = gcd(new modulus, kill) a divisor of the old modulus, so each
    relation lattice L becomes L + c·Z^g, which any map carries into c·Z^g:
    maps stay well defined and each d^2 still vanishes."""
    c = gcd(ring.modulus, kill)
    assert gcd(c, cx.ring.modulus) == c, "over_ring would drop relations"
    mods = []
    for m in cx.modules:
        killed = [[kill * v for v in row] for row in identity(m.ngens)] if kill else []
        mods.append(m._with(ring=ring, rel=_frozen(hstack(m.rel, killed))))
    return cx._with(ring=ring, modules=tuple(mods))


def localize_by_element(cx, x):
    """C[1/x] for Z/n: the coprime-to-x part n' of the modulus survives.
    It depends on x through n' alone, so each complex builds it once per n'."""
    ring = cx.ring
    if not isinstance(ring, ModularIntegers):
        raise InputError("element localization is a Z/n construction here")
    n2 = ring.coprime_part(x)
    if n2 == 1:
        return zero_complex(ring, cx.min_deg)
    # kill the part of the modulus that x inverts
    return cx._cached(("by_element", n2), lambda: over_ring(cx, ring, n2))


def restrict_to_integers(cx):
    """Restriction of scalars along Z -> Z/n: same generators, relations
    extended by n times each generator."""
    ring = cx.ring
    if not isinstance(ring, ModularIntegers):
        raise InputError("integer restriction starts from Z/n")
    return over_ring(cx, IntegersLocalized(), ring.n)


def restrict_modulus(cx, n):
    """Restriction of scalars along Z/n -> Z/m for m | n."""
    ring = cx.ring
    if not isinstance(ring, ModularIntegers) or n % ring.n:
        raise InputError("restriction needs the old modulus to divide the new one")
    return over_ring(cx, ModularIntegers(n), ring.n)


# ---------------------------------------------------------------------------
# stable Koszul complexes


class SymbolicComplex(Immutable):
    """Cohomology-level stand-in for complexes whose terms live over ever
    larger localizations of the integers.  Stores one CanonicalModule per
    degree (with divisible parts); supports further koszul_stable rounds."""

    __slots__ = ("ring", "h")

    def __init__(self, ring, h):
        self._freeze(ring=ring, h=MappingProxyType(dict(h)))

    def degrees(self):
        return sorted(self.h)

    def cohomology(self, i):
        return self.h.get(i, CanonicalModule())

    def cohomology_all(self):
        return {i: self.cohomology(i) for i in self.degrees()}

    def is_acyclic(self):
        return all(v.is_zero for v in self.h.values())

    def __repr__(self):
        return "SymbolicComplex(%s, %r)" % (self.ring.label(), dict(self.h))


def koszul_stable(x, cx):
    """Tensor the complex with R -> R[1/x] (R in degree 0, R[1/x] in
    degree 1) and totalize.

    Over Z/n and over a local nilpotent algebra, R[1/x] is again a finitely
    presented quotient and the result is an honest complex.  Over localized
    integers R[1/x] is not finitely presented and the result is returned as
    a SymbolicComplex carrying cohomology only; see the long exact sequence
    bookkeeping in _koszul_symbolic.
    """
    return cx.ring._koszul_stable(x, cx)


def _localization_cone(cx, loc):
    """Cone of cx -> loc = cx[1/x], loc None when cx[1/x] = 0 and otherwise
    the identity on the generators of cx.  The cone of C -> 0 is C itself,
    bar the zero degree it adds above a one-degree C."""
    if loc is None:
        if len(cx.modules) > 1:
            return cx
        loc = zero_complex(cx.ring, cx.min_deg)
    return cone(identity_blocks(loc), cx, loc)


def _koszul_symbolic(x, cx):
    """H(cx ⊗ (R -> R[1/x])) in degrees min ... max + 1, by the long exact
    sequence.  A unit x needs no case of its own: no prime of x is live, so
    each kernel and cokernel below is zero, as R[1/x] = R kills cx."""
    ring = cx.ring
    if not isinstance(x, int):
        raise InputError("elements here are integers")
    h = cx.cohomology_all()
    degs = list(cx.degrees())
    if x == 0:
        # R[1/0] = 0, the tensor changes nothing
        return SymbolicComplex(ring, h)
    live = sorted(q for q in factorize(x) if not ring.is_unit_prime(q))
    out = {}
    lo = min(degs) if degs else 0
    hi = max(degs) if degs else 0
    for i in range(lo, hi + 2):
        here = h.get(i, CanonicalModule())
        below = h.get(i - 1, CanonicalModule())
        # kernel of H^i -> H^i[1/x]: the x-primary part (finite and divisible)
        parts = (_prime_part(d, live) for d in here.factors)
        factors = [part for part in parts if part != 1]
        divis = {q: m for q, m in here.divisible if q in live}
        # cokernel of H^{i-1} -> H^{i-1}[1/x]: (R[1/x]/R)^rank, one divisible
        # q-power-torsion summand per live prime per free generator
        for q in live:
            divis[q] = divis.get(q, 0) + below.rank
        out[i] = canonical_module(ring, factors, 0, divis.items())
    return SymbolicComplex(ring, out)


# ---------------------------------------------------------------------------
# residue fields


class ResidueOutcome(Record):
    """Dimensions of the cohomology of C ⊗^L k(p): prime is 0 for the
    generic point, else the prime, and dims is ((degree, dim), ...)."""

    __slots__ = ("prime", "dims")

    def __init__(self, prime, dims):
        self._freeze(prime=prime, dims=dims)

    @property
    def is_nonzero(self):
        return any(d for _i, d in self.dims)


def derived_tensor_residue(cx, p):
    """Derived tensor with the residue field at p over an integer flavour.

    For p = 0 this is C ⊗ Q, so the dimensions are the free ranks of the
    cohomology.  For a prime it is P ⊗ F_p, P the free model of C restricted
    to Z (``_free_model``), for degrees min_deg - 1 .. max_deg: dim H^j =
    rank P^j - rank_p δ_j - rank_p δ_(j-1), each rank certified mod p (all
    zero at a prime that is a unit of the ring).
    """
    ring = cx.ring
    if not isinstance(ring, _IntegerFlavour):
        raise InputError("residue calculus is set up over the integer flavours")
    if p == 0:
        dims = tuple((i, cx.cohomology(i).rank) for i in cx.degrees())
        return ResidueOutcome(0, dims)
    if not _is_prime(p):
        raise InputError("p must be zero or a prime")
    if ring.is_unit_prime(p):
        return ResidueOutcome(p, tuple((i, 0) for i in range(cx.min_deg - 1, cx.max_deg + 1)))
    if ring.crt_primes:
        # over Z/n split by CRT, the parts at the other primes q | n vanish
        # after ⊗^L F_p
        return derived_tensor_residue(localize(cx, p), p)
    ranks, deltas = _free_model(cx)
    # out[k] and out[k + 1]: rank_p of δ into and out of the degree of ranks[k]
    out = [0, *(rank_p(d, p) for d in deltas), 0]
    dims = tuple(
        (cx.min_deg - 1 + k, rank - out[k] - out[k + 1]) for k, rank in enumerate(ranks)
    )
    return ResidueOutcome(p, dims)


def _free_model(cx):
    """A complex P of free Z-modules quasi-isomorphic to cx restricted to Z,
    built once per complex: (ranks, deltas), ranks[k] the rank of P in degree
    min_deg - 1 + k and deltas[k] P's differential out of that degree.

    With R_k the basis of module k's relation form (modulus columns
    included), the lifts e_k and h_k are the coordinates that solve
    d_k R_k = R_(k+1) e_k and d_(k+1) d_k = R_(k+2) h_k; they exist as cx
    passed validation, and are unique as R_k has full rank.  Then
    P^k = Z^g_k ⊕ Z^r_(k+1) with δ_k = [[d_k, R_(k+1)], [-h_k, -e_(k+1)]]
    is the totalization of the resolutions 0 -> Z^r_k -> Z^g_k -> M_k -> 0.
    Both lift identities are asserted over Z, and they force δ^2 = 0 (a
    missing module reads as zero, so they hold at every k):
    δ_(k+1) δ_k = [[d_(k+1) d_k - R_(k+2) h_k, d_(k+1) R_(k+1) - R_(k+2) e_(k+1)],
    [-h_(k+1) d_k + e_(k+2) h_k, -h_(k+1) R_(k+1) + e_(k+2) e_(k+1)]].  The top
    blocks vanish by the two identities.  Times R_(k+3) the bottom blocks are
    -d_(k+2) d_(k+1) d_k + d_(k+2) R_(k+2) h_k = 0 and
    -d_(k+2) d_(k+1) R_(k+1) + d_(k+2) R_(k+2) e_(k+1) = 0, by the identities
    for R_(k+3) h_(k+1) and R_(k+3) e_(k+2), then for R_(k+2) h_k and
    R_(k+2) e_(k+1); R_(k+3) has full column rank, so they are zero."""

    def compute():
        n = len(cx.modules)
        # per module k = 0 .. n-1; the two zeros padded on read as "no
        # module" at k = n, n + 1 and, from the end, at k = -1
        g = [m.ngens for m in cx.modules] + [0, 0]
        bases = [m._form()[2] for m in cx.modules] + [[], []]
        r = [len(b) for b in bases]
        big_r = [_from_columns(b, gk) for b, gk in zip(bases, g)]
        minus_e, minus_h = {}, {}
        for t in range(1, n):
            # coordinates in R_t: e_(t-1), then h_(t-2)
            d = cx.differentials[t - 1]
            rhs = [mat_vec(d, c) for c in bases[t - 1]]
            if t >= 2:
                before = cx.differentials[t - 2]
                rhs += [mat_vec(d, [row[j] for row in before]) for j in range(g[t - 2])]
            lifts = cx.modules[t]._coordinates(rhs)
            exact = None not in lifts and [mat_vec(big_r[t], x) for x in lifts] == rhs
            assert exact, "lift identity fails"
            minus_e[t - 1] = _from_columns([[-v for v in x] for x in lifts[: r[t - 1]]], r[t])
            minus_h[t - 2] = _from_columns([[-v for v in x] for x in lifts[r[t - 1] :]], r[t])
        deltas = []
        for k in range(-1, n - 1):
            blocks = [(0, g[k], big_r[k + 1]), (g[k + 1], g[k], minus_e.get(k + 1, []))]
            if k >= 0:
                blocks += [(0, 0, cx.differentials[k]), (g[k + 1], 0, minus_h.get(k, []))]
            deltas.append(block_matrix(g[k + 1] + r[k + 2], g[k] + r[k + 1], blocks))
        return [g[k] + r[k + 1] for k in range(-1, n)], deltas

    return cx._cached("free_model", compute)


def _smith_diagonal(cx, k):
    """The nonzero Smith diagonal of the free model's δ_k, once per complex;
    a zero δ takes no Smith form."""

    def compute():
        deltas = _free_model(cx)[1]
        if k >= len(deltas) or not any(map(any, deltas[k])):
            return ()
        return tuple(e for e in diagonal(smith_normal_form(deltas[k])[0]) if e)

    return cx._cached(("smith_diagonal", k), compute)


def _fp_map_rank(cx, i):
    """rank_p[d_i | R_(i+1)] over the prime field F_p, R_(i+1) the relations
    of the module in degree i + 1, once per complex."""
    return cx._cached(
        ("fp_map_rank", i),
        lambda: rank_p(hstack(cx.differential(i), cx.module(i + 1).rel), cx.ring.field_prime),
    )


def _from_columns(cols, height):
    """The height x len(cols) matrix with the given columns."""
    return [[c[i] for c in cols] for i in range(height)]


# ---------------------------------------------------------------------------
# derived Hom over Z/n


class HomExtResult(Record):
    """Derived Hom groups over a window of degrees: groups is ((degree,
    CanonicalModule), ...), and note is "" for a certified answer, else it
    names the bound that was hit."""

    __slots__ = ("window", "groups", "certified", "note")

    def __init__(self, window, groups, certified, note=""):
        self._freeze(window=window, groups=groups, certified=certified, note=note)

    @property
    def all_vanish(self):
        """Every group in the window is zero, and the answer is certified."""
        return self.certified and all(g.is_zero for _i, g in self.groups)


def hom_complex_h0(s_cx, t_cx, window=(0, 0), gens_bound=HOM_GENS_MAX):
    """Hom groups [S, T[k]] in the derived category of Z/n for k in the
    window, via a truncated degreewise-free resolution of S.

    The modulus splits into prime-power blocks; each block is resolved and
    the block answers are recombined by CRT into invariant-factor form, as
    cohomology does.  The truncation depth is chosen from the window, so the
    answer is certified exact unless the generator-count bound is hit, in
    which case the result recombines the blocks it finished and says so
    instead of guessing.

    A block where every module of the local source, or every module of the
    local target, is zero is the zero group in every degree, with no
    resolution: each Hom module is a direct sum of copies of the target's
    modules, and a source whose modules are all zero is the zero complex,
    quasi-isomorphic to the zero resolution.  Such a block never meets the
    bound.  A side that is acyclic but not zero takes the full route.
    """
    ring = s_cx.ring
    if not isinstance(ring, ModularIntegers) or t_cx.ring != ring:
        raise InputError("derived Hom is set up over a shared Z/n")
    lo_k, hi_k = window
    if lo_k > hi_k:
        raise InputError("empty window")
    primes = ring.prime_divisors()  # a modulus too large to factor is no window problem
    blocks, note = [], ""
    try:
        for p in primes:
            s_p, t_p = localize(s_cx, p), localize(t_cx, p)
            if _all_zero(s_p) or _all_zero(t_p):
                blocks.append(dict.fromkeys(range(lo_k, hi_k + 1), CanonicalModule()))
            else:
                blocks.append(_hom_block(s_p, t_p, lo_k, hi_k, gens_bound))
    except ResourceLimitError as exc:
        note = "%s: the %s bound %d was hit" % (exc, exc.bound_name, exc.bound_value)
    groups = tuple(
        (k, _crt_canonical(ring, [block[k] for block in blocks])) for k in range(lo_k, hi_k + 1)
    )
    return HomExtResult((lo_k, hi_k), groups, not note, note)


def _all_zero(cx):
    """Whether every module of the complex is zero."""
    return all(m.is_zero for m in cx.modules)


def _hom_block(s_cx, t_cx, lo_k, hi_k, gens_bound):
    """Hom groups [S, T[k]], k in lo_k .. hi_k, over a local ring Z/q, q a
    prime power: the cohomology of Hom(P, T), P a free resolution of S.

    Hom(P, T) is certified by d_P^2 = 0 and assembled.  T is a localization
    of a validated complex, so its d_T blocks carry its relations and d_T^2
    vanishes in T.  Each d_P block of δ is an integer combination of copies
    of a single module T^(j+k), so it carries relations into relations too,
    and δ is well defined.  The cross terms of δ^2 cancel:
    (δ^2 φ)_j = d_T^2 φ_j − φ_(j+2) d_P^2.  The first term vanishes in T, and
    the second does when d_P^(j+1) d_P^j ≡ 0 modulo q, which is asserted
    for each pair of consecutive resolution degrees: the literal validation
    of Hom(P, T) would then pass."""
    ring = s_cx.ring
    res = _free_resolution(s_cx, t_cx.min_deg - hi_k - 2, gens_bound)
    for j in res:
        if j + 1 in res:
            square = mat_mul(res[j + 1][1], res[j][1])
            assert not any(v % ring.modulus for row in square for v in row), "d_P^2 != 0"
    hom_lo, hom_hi = lo_k - 1, hi_k + 1
    # Hom^k(P, T) is the direct sum over j of rank(P^j) copies of T^{j+k};
    # layouts[k] lists its nonzero summands (j, rank, T^{j+k})
    layouts = {}
    mods = []
    for k in range(hom_lo, hom_hi + 1):
        layout = []
        for j, (rank, _d) in sorted(res.items()):
            tm = t_cx.module(j + k)
            if rank and tm.ngens:
                layout.append((j, rank, tm))
        total_gens = sum(rank * tm.ngens for _j, rank, tm in layout)
        if total_gens > gens_bound:
            raise ResourceLimitError("hom module too large", "hom_gens", gens_bound)
        rel = block_diag([tm.rel for _j, rank, tm in layout for _ in range(rank)])
        layouts[k] = layout
        mods.append(PresentedModule(ring, total_gens, rel))
    diffs = []
    for k in range(hom_lo, hom_hi):
        diffs.append(_frozen(_hom_differential(layouts[k], layouts[k + 1], t_cx, res, k)))
    hom_cx = ChainComplex._assembled(
        ring=ring, min_deg=hom_lo, modules=tuple(mods), differentials=tuple(diffs)
    )
    return {k: hom_cx.cohomology(k) for k in range(lo_k, hi_k + 1)}


def _offsets(layout):
    """Position of each summand's first generator, and the generator total."""
    out = {}
    pos = 0
    for j, rank, tm in layout:
        out[j] = pos
        pos += rank * tm.ngens
    return out, pos


def _hom_differential(src_layout, tgt_layout, t_cx, res, k):
    """(δφ)_j = d_T ∘ φ_j − (−1)^k φ_{j+1} ∘ d_P."""
    src_pos, src_total = _offsets(src_layout)
    tgt_pos, tgt_total = _offsets(tgt_layout)
    sign = 1 if k % 2 else -1  # (−1)^{k+1}
    blocks = []
    for j, rank, tm in tgt_layout:
        if j in src_pos:
            # d_T acts on each of the rank copies separately
            blocks.append((tgt_pos[j], src_pos[j], block_diag([t_cx.differential(j + k)] * rank)))
        if j + 1 in src_pos:
            # d_P mixes the copies: (−1)^{k+1} (d_Pᵀ ⊗ I)
            d_pt = transpose(res[j][1])  # rank(P^j) x rank(P^{j+1})
            g = tm.ngens
            kron = [
                [sign * v if r == c else 0 for v in row for c in range(g)]
                for row in d_pt
                for r in range(g)
            ]
            blocks.append((tgt_pos[j], src_pos[j + 1], kron))
    return block_matrix(tgt_total, src_total, blocks)


def _free_resolution(s_cx, cutoff, gens_bound):
    """Degreewise-free complex P with a quasi-isomorphism onto S, built top
    down: P^i covers the pullback of (S^i --d--> S^{i+1} <--f-- Z^{i+1}(P)).
    Returns {degree: (rank, d_to_next (rank_{i+1} x rank_i))} for degrees
    cutoff..max; cohomology is trustworthy above the cutoff."""
    ring = s_cx.ring
    res = {}
    f_up = []  # f: P^{i+1} -> S^{i+1}
    for i in range(s_cx.max_deg, cutoff - 1, -1):
        s_i, s_up = s_cx.module(i), s_cx.module(i + 1)
        r_up, d_up = res.get(i + 1, (0, []))
        r_upup = res.get(i + 2, (0, []))[0]
        # kernel of (s, y) -> (d_S s - f y, d_P y) inside S^i ⊕ P^{i+1}
        sg = s_i.ngens
        amb = sg + r_up
        minus_f = [[-v for v in row] for row in f_up]
        phi = block_matrix(
            s_up.ngens + r_upup,
            amb,
            [(0, 0, s_cx.differential(i)), (0, sg, minus_f), (s_up.ngens, sg, d_up)],
        )
        # module-level kernel: the kernel of [phi | -T], T the relation columns
        # of S^{i+1} ⊕ P^{i+2}, cut to its first amb coordinates
        tgt_cols = s_up.direct_sum(PresentedModule.free(ring, r_upup)).relation_columns()
        big = hstack(phi, _from_columns([[-v for v in c] for c in tgt_cols], len(phi)))
        k_gens = [v[:amb] for v in kernel_basis(big, ncols=amb + len(tgt_cols))]
        src_cols = s_i.direct_sum(PresentedModule.free(ring, r_up)).relation_columns()
        gens = quotient_generators(k_gens, src_cols)
        if len(gens) > gens_bound:
            raise ResourceLimitError("resolution rank too large", "hom_gens", gens_bound)
        gens_mat = _from_columns(gens, amb)
        res[i] = (len(gens), gens_mat[sg:])
        f_up = gens_mat[:sg]
    return res

