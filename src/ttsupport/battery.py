"""Seeded random instances and the acceptance battery.

The battery rows returned by run_battery drive both the command-line
``suite`` subcommand and the acceptance tests; every check is deterministic
given the seed.
"""

import functools
import json
import random

from .errors import InputError
from .smith import diagonal, identity, mat_mul, smith_normal_form, zeros
from .poset import enumerate_posets
from .spectral import SpectralSpace
from .frames import sigma
from .homalg import (
    ChainComplex,
    IntegersLocalized,
    LnaModule,
    LocalNilpotentAlgebra,
    ModularIntegers,
    PresentedModule,
    cone,
    identity_blocks,
    module_complex,
)
from .support import (
    detect_vanishing,
    foxby_support,
    main1_property_suite,
    orthogonality_check,
    small_support,
    spec,
    weakly_associated,
)
from .axioms import canonical_datum, construct_eta, eta_is_unique

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 200
# Largest --samples the CLI accepts: the suite holds 7 * samples complexes,
# and its time, about 10 s at the default, grows linearly
SAMPLES_MAX = 2000
POSET_BOUND = 4
ZSET_POSET_BOUND = 6
ENTRY_BOUND = 10
SNF_ENTRY_BOUND = 50
SNF_MATRICES = 1000
MODULI = (4, 6, 8, 9, 12)
ORTHOGONALITY_PAIRS = 6


def ring_classes():
    rings = [IntegersLocalized()]
    rings.extend(ModularIntegers(n) for n in MODULI)
    rings.append(LocalNilpotentAlgebra(2, (("x", 2), ("y", 3))))
    return rings


# ---------------------------------------------------------------------------
# random instances


def _nonzero(rng):
    v = 0
    while v == 0:
        v = rng.randint(-ENTRY_BOUND, ENTRY_BOUND)
    return v


def _random_matrix(rng, rows, cols):
    return [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(cols)] for _ in range(rows)]


@functools.singledispatch
def _random_piece(ring, rng):
    """One building block with d^2 = 0 by construction; returns (length,
    maker).  This one draws over the integer flavours; the local nilpotent
    algebra registers its own, which draws a different random stream."""
    kind = rng.randrange(4)
    if kind == 0:
        # a cyclic module concentrated in one degree
        d = rng.randint(0, ENTRY_BOUND)
        return 1, lambda deg: module_complex(PresentedModule.cyclic(ring, d), deg)
    if kind == 1:
        # two free modules joined by a random matrix
        return _pid_piece_two_term(ring, rng)
    if kind == 2:
        # R --(a,b)--> R^2 --(-b,a)--> R, exact composition for any a, b
        a, b = _nonzero(rng), _nonzero(rng)
        return 3, lambda deg: ChainComplex(
            ring,
            deg,
            [PresentedModule.free(ring, 1), PresentedModule.free(ring, 2), PresentedModule.free(ring, 1)],
            [[[a], [b]], [[-b, a]]],
        )
    # acyclic: the cone over the identity of a two-term piece
    _len2, maker = _pid_piece_two_term(ring, rng)

    def make(deg):
        base = maker(deg)
        return cone(identity_blocks(base), base, base)

    return 3, make


def _pid_piece_two_term(ring, rng):
    r1, r2 = rng.randint(1, 2), rng.randint(1, 2)
    mat = _random_matrix(rng, r2, r1)
    return 2, lambda deg: ChainComplex(
        ring,
        deg,
        [PresentedModule.free(ring, r1), PresentedModule.free(ring, r2)],
        [mat],
    )


def _lna_element_matrix(ring, rng, allow_unit=False):
    """Multiplication matrix of a random ring element; a polynomial in the
    generator matrices, so it commutes with every module action."""
    mats = [ring.multiplication_matrix(n) for n, _e in ring.generators]
    dim = ring.dim
    out = identity(dim) if allow_unit and rng.random() < 0.25 else zeros(dim, dim)
    for m in mats:
        if rng.random() < 0.7:
            c = rng.randint(1, ring.p - 1) if ring.p > 2 else 1
            out = [[out[i][j] + c * m[i][j] for j in range(dim)] for i in range(dim)]
    if len(mats) >= 2 and rng.random() < 0.4:
        prod = mat_mul(mats[0], mats[1])
        out = [[out[i][j] + prod[i][j] for j in range(dim)] for i in range(dim)]
    return out


@_random_piece.register
def _lna_piece(ring: LocalNilpotentAlgebra, rng):
    kind = rng.randrange(4)
    dim = ring.dim
    if kind == 0:
        return 1, lambda deg: module_complex(LnaModule.free(ring, 1), deg)
    if kind == 1:
        a = _lna_element_matrix(ring, rng, allow_unit=True)
        return 2, lambda deg: ChainComplex(
            ring, deg, [LnaModule.free(ring, 1), LnaModule.free(ring, 1)], [a]
        )
    if kind == 2:
        a = _lna_element_matrix(ring, rng)
        b = _lna_element_matrix(ring, rng)
        d0 = [row[:] for row in a] + [row[:] for row in b]
        d1 = [[-b[r][c] for c in range(dim)] + [a[r][c] for c in range(dim)] for r in range(dim)]
        return 3, lambda deg: ChainComplex(
            ring,
            deg,
            [LnaModule.free(ring, 1), LnaModule.free(ring, 2), LnaModule.free(ring, 1)],
            [d0, d1],
        )
    a = _lna_element_matrix(ring, rng, allow_unit=True)

    def make(deg):
        base = ChainComplex(
            ring, deg, [LnaModule.free(ring, 1), LnaModule.free(ring, 1)], [a]
        )
        return cone(identity_blocks(base), base, base)

    return 3, make


def random_complex(ring, rng):
    """A bounded complex spanning at most four degrees, assembled from
    blocks that each satisfy d^2 = 0 individually."""
    out = None
    for _ in range(rng.randint(1, 2)):
        length, maker = _random_piece(ring, rng)
        deg = rng.randint(-2, 2 - length)
        piece = maker(deg)
        out = piece if out is None else out.direct_sum(piece)
    return out


def instances(ring, count, seed):
    rng = random.Random("%s|%s" % (seed, ring.label()))
    return [random_complex(ring, rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# the criteria


def _row(ident, name, bad, detail):
    """The one place a battery row is built: it passes exactly when no case
    is bad, and then reports detail; otherwise it names the first three bad
    cases."""
    return {
        "id": ident,
        "name": name,
        "passed": not bad,
        "detail": "failed on %s" % bad[:3] if bad else detail,
    }


def _spaces(max_points):
    for n in range(1, max_points + 1):
        for order in enumerate_posets(n):
            yield SpectralSpace(order)


def _space_pool(max_points):
    """Every space with at most max_points points, with its sigma result
    (hom, verdict, assembly); the assembly's base is the frame of opens.  No
    frame on n points has more than 2**n elements, so the bound never
    refuses."""
    return [
        (space,) + sigma(space, max_size=2 ** len(space.points))
        for space in _spaces(max_points)
    ]


def criterion_nucleus_count(spaces, **_kw):
    bad = [
        repr(space.order)
        for space, _psi, _iso, asm in spaces
        if len(asm.nuclei) != 2 ** len(space.points)
    ]
    return _row(1, "nucleus count 2^n", bad, "%d spaces checked" % len(spaces))


def criterion_sigma_iso(spaces, **_kw):
    bad = [repr(space.order) for space, _psi, is_iso, _asm in spaces if not is_iso]
    return _row(2, "sigma isomorphism", bad, "%d spaces checked" % len(spaces))


def _disagreements(spaces, conditions):
    """Each pool space whose conditions(space, is_iso, assembly) do not all
    agree, with those conditions."""
    bad = []
    for space, _psi, is_iso, asm in spaces:
        conds = conditions(space, is_iso, asm)
        if len(set(conds)) != 1:
            bad.append((repr(space.order), conds))
    return bad


def _weakly_scattered_conditions(space, is_iso, asm):
    """The five equivalent conditions: sigma being an isomorphism, from the
    space pool, and four computed independently of it.  They stay as the
    paper's, though (d) and (e) hold on every finite frame by Birkhoff
    (FiniteFrame.essential_primes), and (b) on every finite T0 space."""
    frame = asm.base
    cond_b = space.is_weakly_scattered()
    cond_c = all(
        space.closure(space.weakly_isolated_points(c)) == c
        for c in space.closeds()
    )
    cond_d = all(frame.essential_primes(x) for x in frame.elements if x != frame.top)
    cond_e = all(
        frame.meet_many(frame.essential_primes(x)) == x
        for x in frame.elements
        if x != frame.top
    )
    return is_iso, cond_b, cond_c, cond_d, cond_e


def _scattered_conditions(space, _is_iso, asm):
    return (
        space.is_scattered(),
        space.is_weakly_scattered() and space.is_t_half(),
        space.cb_rank() is not None,
        asm.frame.is_boolean(),
    )


def criterion_weakly_scattered_equivalences(spaces, **_kw):
    return _row(
        3,
        "weakly-scattered equivalences",
        _disagreements(spaces, _weakly_scattered_conditions),
        "%d spaces, 5 conditions each" % len(spaces),
    )


def criterion_scattered_equivalences(spaces, **_kw):
    return _row(
        4,
        "scattered equivalences",
        _disagreements(spaces, _scattered_conditions),
        "%d spaces, 4 conditions each" % len(spaces),
    )


def criterion_zset_maximality(**_kw):
    checked, bad = 0, []
    for space in _spaces(ZSET_POSET_BOUND):
        thomason = space.thomason_sets()
        for p in space.points:
            z = space.z_set(p)
            ok = (
                space.is_thomason(z)
                and p not in z
                and all(v <= z for v in thomason if p not in v)
            )
            checked += 1
            if not ok:
                bad.append((repr(space.order), p))
    return _row(5, "Z(p) maximality", bad, "%d point checks" % checked)


def _all_instances(seed, samples):
    return [(ring, instances(ring, samples, seed)) for ring in ring_classes()]


def _pool_row(ident, name, pool, fails):
    """The row of a check that runs on each complex of the pool: a bad case
    is (ring label, index) of a complex on which fails is true."""
    bad = [
        (ring.label(), k)
        for ring, batch in pool
        for k, cx in enumerate(batch)
        if fails(cx)
    ]
    return _row(ident, name, bad, "%d instances" % sum(len(batch) for _ring, batch in pool))


def criterion_vanishing(pool, **_kw):
    return _pool_row(
        6,
        "empty support iff acyclic",
        pool,
        lambda cx: detect_vanishing(cx) != cx.is_acyclic(),
    )


def criterion_noetherian_agreement(pool, **_kw):
    return _pool_row(
        7,
        "small equals residue-field support over Z",
        [(ring, batch) for ring, batch in pool if ring.has_generic],
        lambda cx: small_support(cx) != foxby_support(cx),
    )


def _bottom_primes_escape_support(cx):
    """Whether a weakly associated prime of the lowest nonzero cohomology of
    cx lies outside its small support."""
    ass = _bottom_cohomology_primes(cx)
    supp = small_support(cx)
    return not all(supp.contains(p) for p in ass)


def _bottom_cohomology_primes(cx):
    for i in cx.degrees():
        h = cx.cohomology(i)
        if not h.is_zero:
            return weakly_associated(h)
    return frozenset()


def criterion_weak_associated_inclusion(pool, **_kw):
    return _pool_row(
        8,
        "bottom weakly-associated primes inside support",
        pool,
        _bottom_primes_escape_support,
    )


def criterion_property_suite(pool, seed=DEFAULT_SEED, **_kw):
    checked, ortho_checked, bad = 0, 0, []
    batches = dict(pool)
    for n in (6, 12):
        ring = ModularIntegers(n)
        batch = batches[ring]
        rng = random.Random("%s|suite|%d" % (seed, n))
        for k, cx in enumerate(batch):
            other = batch[(k + 1) % len(batch)]
            results = main1_property_suite(
                cx, {2}, other=other, scalar=_nonzero(rng)
            )
            checked += 1
            failing = [name for name, ok in results.items() if not ok]
            if failing:
                bad.append((ring.label(), k, failing))
        for k in range(min(ORTHOGONALITY_PAIRS, len(batch) - 1)):
            applicable, ok, _res = orthogonality_check(batch[k], batch[k + 1], {2})
            ortho_checked += 1
            if not (applicable and ok):
                bad.append((ring.label(), k, "orthogonality"))
    return _row(
        9,
        "torsion/localization property suite",
        bad,
        "%d suites, %d orthogonality pairs" % (checked, ortho_checked),
    )


def criterion_eta_factorization(spaces, seed=DEFAULT_SEED, **_kw):
    bad = []
    # the pool's spaces keep the frames sigma built
    data = [canonical_datum(space) for space, *_sigma in spaces if len(space.points) <= 3]
    finite = [r for r in ring_classes() if not r.has_generic] + [IntegersLocalized(at_prime=2)]
    data.extend(canonical_datum(spec(ring).space) for ring in finite)
    for datum in data:
        reason = None
        try:
            result = construct_eta(datum, seed=seed)
            ok = result.hom is not None and eta_is_unique(datum, result)
        except Exception as exc:
            ok = False
            reason = "%s: %s" % (type(exc).__name__, exc)
        if not ok:
            where = repr(datum.space.order)
            bad.append(where if reason is None else "%s (%s)" % (where, reason))
    return _row(10, "eta exists and is unique", bad, "%d data" % len(data))


def criterion_snf_selfcheck(seed=DEFAULT_SEED, **_kw):
    rng = random.Random("%s|snf" % seed)
    bad = []
    for k in range(SNF_MATRICES):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [
            [rng.randint(-SNF_ENTRY_BOUND, SNF_ENTRY_BOUND) for _ in range(cols)]
            for _ in range(rows)
        ]
        d, u, v = smith_normal_form(a)
        if mat_mul(mat_mul(u, a), v) != d:
            bad.append(k)
            continue
        diag = diagonal(d)
        if any((x == 0 and y != 0) or (x != 0 and y % x) for x, y in zip(diag, diag[1:])):
            bad.append(k)
    return _row(11, "Smith form self-check", bad, "%d matrices" % SNF_MATRICES)


def criterion_generator_determinism(pool, seed=DEFAULT_SEED, samples=DEFAULT_SAMPLES, **_kw):
    """The instance stream itself is reproducible: the run's pool, after
    every other criterion has used it, matches a fresh draw, ring class by
    ring class.  Byte-identical output of the command-line suite is asserted
    on top of this in the test suite."""

    def dump(batch):
        return json.dumps([cx.to_json() for cx in batch], sort_keys=True)

    bad = [
        ring.label()
        for (ring, batch), (_ring, fresh) in zip(pool, _all_instances(seed, samples))
        if dump(batch) != dump(fresh)
    ]
    return _row(12, "seeded reproducibility", bad, "instance streams identical for seed %s" % seed)


CRITERIA = (
    criterion_nucleus_count,
    criterion_sigma_iso,
    criterion_weakly_scattered_equivalences,
    criterion_scattered_equivalences,
    criterion_zset_maximality,
    criterion_vanishing,
    criterion_noetherian_agreement,
    criterion_weak_associated_inclusion,
    criterion_property_suite,
    criterion_eta_factorization,
    criterion_snf_selfcheck,
    criterion_generator_determinism,
)


def run_battery(seed=DEFAULT_SEED, samples=DEFAULT_SAMPLES):
    if samples < 1:
        raise InputError("need at least one sample per ring")
    spaces = _space_pool(POSET_BOUND)
    pool = _all_instances(seed, samples)
    return [fn(seed=seed, samples=samples, spaces=spaces, pool=pool) for fn in CRITERIA]
