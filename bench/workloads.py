"""Seeded inputs, timed items and output checks of the library workloads.

Each workload is a list of items built from the seed (``make_items``).  Its
``RUN`` function sends one item through the library and returns the answer
in a canonical, label-sorted form (hashed into the item digest) together
with the raw outputs that its ``CHECK`` function cross-checks.  The
cross-checks hold for every seed and use only the benchmark's own integer
arithmetic or relations between independently computed answers.
"""

import hashlib
import json
import random

# the library is called through its modules, so the traced run sees these
# calls through the same bindings it wraps
from ttsupport import axioms, battery, frames, homalg, poset, smith, spectral, support
from ttsupport.errors import ResourceLimitError

# spaces: every poset up to six points; assembly and sigma on the spaces with
# at most ASSEMBLY_POINTS points, under the CLI's default --max-frame; eta up
# to ETA_POINTS points.  Six-point spaces get no assembly: 178 of them fit
# --max-frame, at about 1.3 s each for assembly plus sigma.
POSET_COUNTS = (1, 2, 5, 16, 63, 318)
ASSEMBLY_POINTS = 5
MAX_FRAME = 16
ETA_POINTS = 3

# complexes: instances per ring class; Z/6 and Z/12 items also run the
# property suite with their neighbour.  foxby_support runs on every ring
# class but Z/n: there it restricts to Z and takes the derived tensor with
# a residue field, whose Smith forms blow up on about one complex in 2000
# (17 s, and over 150 s, on complexes of 7 to 12 generators), so a seeded
# pass would now and then never end.  The battery, too, asks for Foxby
# support over Z only (criterion 7).
COMPLEXES_PER_RING = 15
SUITE_MODULI = (6, 12)

# matrices: SEEDED_PER_SHAPE seeded matrices per shape with up to SEEDED_ROWS
# rows and up to MAX_DIM columns, plus the fixed FIXED_SHAPES (see
# matrix_items)
MAX_DIM = 10
SEEDED_ROWS = 8
SEEDED_PER_SHAPE = 2
FIXED_SHAPES = [(9, c) for c in range(1, MAX_DIM + 1)] + [(MAX_DIM, MAX_DIM)]
ENTRY_BOUND = 50
RHS_PER_ITEM = 3
LATTICE_ROWS = 6


def digest(answer):
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# spaces


def space_items(seed, max_points=len(POSET_COUNTS)):
    """One item per poset up to six points: its enumeration index and a seeded
    relabelling of its points; the order of the items is shuffled too."""
    rng = random.Random("spaces|%s" % seed)
    items = []
    for n, count in enumerate(POSET_COUNTS[:max_points], start=1):
        for k in range(count):
            names = ["q%d" % i for i in range(n)]
            rng.shuffle(names)
            items.append({"n": n, "index": k, "names": names})
    rng.shuffle(items)
    return items


def enumerate_all(items):
    """The timed first step of a spaces pass: every poset size the items use."""
    return {n: poset.enumerate_posets(n) for n in range(1, max(it["n"] for it in items) + 1)}


def _relabelled_json(order, names):
    rename = dict(zip(order.elements, names))
    pairs = sorted((rename[a], rename[b]) for a, b in order.relation if a != b)
    return {"elements": sorted(names), "leq": [list(p) for p in pairs]}


def space_inputs(posets, items):
    """Poset JSON for every item, made from the enumeration's output."""
    return [_relabelled_json(posets[it["n"]][it["index"]], it["names"]) for it in items]


def _sets(family):
    return sorted(sorted(s) for s in family)


def run_space(obj, seed):
    space = spectral.SpectralSpace(poset.FinitePoset.from_json(obj))
    points = sorted(space.points)
    answer = {
        "thomason": _sets(space.thomason_sets()),
        "z": {p: sorted(space.z_set(p)) for p in points},
        "skula": _sets(space.skula_opens()),
        "cb_rank": space.cb_rank(),
        "scattered": space.is_scattered(),
        "weakly_scattered": space.is_weakly_scattered(),
        "t_half": space.is_t_half(),
    }
    frame, _labels = frames.frame_of(space)
    answer["frame_size"] = len(frame)
    answer["primes"] = sorted(frame.primes())
    answer["essential"] = {x: sorted(frame.essential_primes(x)) for x in sorted(frame.elements)}
    raw = {"points": len(points), "primes": len(answer["primes"])}
    if len(points) <= ASSEMBLY_POINTS:
        try:
            asm = frames.assembly(frame, max_size=MAX_FRAME)
        except ResourceLimitError:
            answer["assembly"] = "refused"
        else:
            _psi, is_iso, _asm = frames.sigma(space)
            answer["assembly"] = len(asm.nuclei)
            answer["sigma_iso"] = is_iso
            raw["nuclei"] = len(asm.nuclei)
            raw["sigma_iso"] = is_iso
    if len(points) <= ETA_POINTS:
        datum = axioms.canonical_datum(space)
        result = axioms.construct_eta(datum, seed=seed)
        unique = axioms.eta_is_unique(datum, result)
        answer["eta"] = [result.hom is not None, unique]
        raw["eta"] = result.hom is not None and unique
    return answer, raw


def check_space(_obj, _answer, raw):
    bad = []
    if raw["primes"] != raw["points"]:
        bad.append("frame of opens has %d primes for %d points" % (raw["primes"], raw["points"]))
    if "nuclei" in raw and raw["nuclei"] != 2 ** raw["points"]:
        bad.append("%d nuclei, not 2^%d" % (raw["nuclei"], raw["points"]))
    if raw.get("sigma_iso") is False:
        bad.append("sigma is not an isomorphism")
    if raw.get("eta") is False:
        bad.append("eta missing or not unique")
    return bad


def check_enumeration(posets):
    return [
        "%d posets on %d points, expected %d" % (len(found), n, POSET_COUNTS[n - 1])
        for n, found in posets.items()
        if len(found) != POSET_COUNTS[n - 1]
    ]


# ---------------------------------------------------------------------------
# complexes


def complex_items(seed, per_ring=COMPLEXES_PER_RING):
    """battery.instances over every ring class, as complex JSON.

    Items over Z/6 and Z/12 carry their neighbour and a nonzero scalar for
    the property suite, as criterion 9 of the battery pairs them.  They take
    two thirds of a pass, and their cost varies with the complex by a factor
    of ten: drawn from the seed, they made pass times differ by 22%
    (interquartile range over median) from seed to seed.  So, like the
    heavy matrices of matrix_items, they come from a fixed seed, the
    battery's default, and every run carries the same property-suite work;
    the seed draws the complexes over the other five ring classes."""
    rng = random.Random("complexes|%s" % battery.DEFAULT_SEED)
    items = []
    for ring in battery.ring_classes():
        suite = isinstance(ring, homalg.ModularIntegers) and ring.n in SUITE_MODULI
        source = battery.DEFAULT_SEED if suite else seed
        batch = [cx.to_json() for cx in battery.instances(ring, per_ring, source)]
        for k, obj in enumerate(batch):
            item = {"ring": ring.label(), "complex": obj}
            if suite:
                item["neighbour"] = batch[(k + 1) % len(batch)]
                item["scalar"] = rng.choice([-1, 1]) * rng.randint(1, battery.ENTRY_BOUND)
            items.append(item)
    return items


def _module_answer(h):
    c = h if isinstance(h, homalg.CanonicalModule) else h.canonical()
    return [list(c.factors), c.rank, [list(x) for x in c.divisible]]


def _descriptor_answer(desc):
    return {
        "generic": desc.generic,
        "cofinite": desc.cofinite,
        "explicit": sorted(support.prime_label(p) for p in desc.explicit),
        "exceptions": sorted(support.prime_label(p) for p in desc.exceptions),
    }


def run_complex(item, _seed):
    cx = homalg.ChainComplex.from_json(item["complex"])
    cohomology = cx.cohomology_all()
    small = support.small_support(cx)
    answer = {
        "cohomology": {str(i): _module_answer(h) for i, h in sorted(cohomology.items())},
        "small": _descriptor_answer(small),
        "big": _descriptor_answer(support.big_support(cx)),
        "vanishes": support.detect_vanishing(cx),
    }
    if not isinstance(cx.ring, homalg.ModularIntegers):
        answer["foxby"] = _descriptor_answer(support.foxby_support(cx))
    bottom = next((h for _i, h in sorted(cohomology.items()) if not h.is_zero), None)
    wass = support.weakly_associated(bottom) if bottom is not None else frozenset()
    answer["weakly_associated"] = sorted(support.prime_label(p) for p in wass)
    raw = {
        "integers": isinstance(cx.ring, homalg.IntegersLocalized),
        "acyclic": all(h.is_zero for h in cohomology.values()),
        "small": small,
        "wass": wass,
    }
    if "neighbour" in item:
        other = homalg.ChainComplex.from_json(item["neighbour"])
        results = support.main1_property_suite(cx, {2}, other=other, scalar=item["scalar"])
        answer["suite"] = results
        raw["suite_failed"] = sorted(k for k, ok in results.items() if not ok)
    return answer, raw


def check_complex(_item, answer, raw):
    bad = []
    if answer["vanishes"] != raw["acyclic"]:
        bad.append("empty support disagrees with acyclicity")
    if raw["integers"] and answer["small"] != answer["foxby"]:
        bad.append("small and residue-field support differ over Z")
    if not all(raw["small"].contains(p) for p in raw["wass"]):
        bad.append("bottom weakly-associated prime outside the support")
    if raw.get("suite_failed"):
        bad.append("property suite failed: %s" % ", ".join(raw["suite_failed"]))
    return bad


# ---------------------------------------------------------------------------
# matrices


def _matrix(rng, rows, cols):
    return [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(cols)] for _ in range(rows)]


def matrix_items(seed, max_dim=MAX_DIM, seeded_rows=SEEDED_ROWS, fixed_shapes=FIXED_SHAPES):
    """Seeded matrices of every shape up to SEEDED_ROWS x MAX_DIM, and one
    matrix with fixed entries for each of FIXED_SHAPES.

    From nine rows on, the Smith form's transform entries blow up (U and V
    reach 10^5 bits at ten rows) and the cost of one matrix depends on its
    entries by a factor of up to 40: a 9 x 8 matrix takes 0.02 s to 0.6 s per
    Smith form, a 10 x 10 one 1 s to 8 s, and an item computes three.  Drawn
    from the seed, those few matrices would make the pass time a lottery, so
    they come from a fixed stream and every run carries the same blow-up.  A
    full set of ten-row shapes would take over half a minute per pass, so
    only 10 x 10 is kept.  The seed draws every other matrix and every
    right-hand side."""
    rng = random.Random("matrices|%s" % seed)
    fixed = random.Random("matrices|fixed")
    shapes = [(r, c) for r in range(1, seeded_rows + 1) for c in range(1, max_dim + 1)]
    matrices = [_matrix(rng, r, c) for r, c in shapes for _ in range(SEEDED_PER_SHAPE)]
    matrices += [_matrix(fixed, r, c) for r, c in fixed_shapes]
    items = []
    for a in matrices:
        xs = [[rng.randint(-5, 5) for _ in range(len(a[0]))] for _ in range(RHS_PER_ITEM)]
        items.append({"a": a, "rhs": [mat_vec(a, x) for x in xs]})
    rng.shuffle(items)
    return items


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a, x):
    return [sum(p * q for p, q in zip(row, x)) for row in a]


# two primes near 2^61: a determinant that is +-1 mod both is +-1 unless it is
# congruent to +-1 modulo their product by accident
CHECK_PRIMES = (2305843009213693951, 2305843009213693921)


def rational_rank(a):
    """Rank over Q by fraction-free elimination."""
    m = [row[:] for row in a]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f, g = m[r][col], m[rank][col]
            m[r] = [x * g - y * f for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def det_mod(a, p):
    """Determinant of a square matrix modulo a prime p."""
    m = [[x % p for x in row] for row in a]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def run_matrix(item, _seed):
    """SNF, solving, kernel and lattice operations on one matrix.  The
    lattice operations use its first LATTICE_ROWS rows: lattice_basis inverts
    the Smith transform, which takes over ten seconds from eight rows on."""
    a = item["a"]
    d, u, v = smith.smith_normal_form(a)
    xs = smith.solve_int(a, item["rhs"])
    kernel = smith.kernel_basis(a)
    top = a[:LATTICE_ROWS]
    gens = [list(col) for col in zip(*top)]
    lattice = smith.lattice_basis(gens, len(top))
    doubled = [[2 * x for x in g] for g in gens]
    quotient = smith.quotient_invariants(lattice, doubled) if lattice else ((), 0)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    answer = {
        "diagonal": diag,
        "solvable": xs is not None,
        "kernel_rank": len(kernel),
        "lattice_rank": len(lattice),
        "quotient": [list(quotient[0]), quotient[1]],
    }
    raw = {"d": d, "u": u, "v": v, "xs": xs, "kernel": kernel, "lattice": lattice}
    return answer, raw


def check_matrix(item, answer, raw):
    a = item["a"]
    d, u, v = raw["d"], raw["u"], raw["v"]
    rows, cols = len(a), len(a[0])
    bad = []
    if mat_mul(mat_mul(u, a), v) != d:
        bad.append("U*A*V != D")
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        bad.append("D is not diagonal")
    diag = answer["diagonal"]
    for x, y in zip(diag, diag[1:]):
        if x < 0 or (x == 0 and y != 0) or (x != 0 and y % x):
            bad.append("diagonal is not a divisibility chain")
            break
    rank = sum(1 for x in diag if x)
    if rank != rational_rank(a):
        bad.append("D has the wrong rank")
    if any(det_mod(w, p) not in (1, p - 1) for w in (u, v) for p in CHECK_PRIMES):
        bad.append("U or V is not unimodular")
    if raw["xs"] is None:
        bad.append("solve_int found no solution of a consistent system")
    elif [mat_vec(a, x) for x in raw["xs"]] != item["rhs"]:
        bad.append("A*X != B")
    if len(raw["kernel"]) != cols - rank or any(any(mat_vec(a, k)) for k in raw["kernel"]):
        bad.append("kernel basis wrong")
    # the doubled generators span 2L, and L/2L is (Z/2)^rank L
    top_rank = len(raw["lattice"])
    if top_rank != rational_rank(a[:LATTICE_ROWS]):
        bad.append("lattice basis has the wrong rank")
    if answer["quotient"] != [[2] * top_rank, 0]:
        bad.append("L/2L is not (Z/2)^%d" % top_rank)
    return bad


# ---------------------------------------------------------------------------
# dispatch


# --smoke: inputs small enough for the benchmark's own tests
SMOKE = {
    "spaces": {"max_points": 3},
    "complexes": {"per_ring": 2},
    "matrices": {"max_dim": 3, "seeded_rows": 3, "fixed_shapes": [(3, 3)]},
}


MAKE = {"spaces": space_items, "complexes": complex_items, "matrices": matrix_items}
RUN = {"spaces": run_space, "complexes": run_complex, "matrices": run_matrix}
CHECK = {"spaces": check_space, "complexes": check_complex, "matrices": check_matrix}


def make_items(workload, seed, smoke=False):
    return MAKE[workload](seed, **(SMOKE[workload] if smoke else {}))
