"""Exact matrix routines: over the integers, Smith normal form and lattice
arithmetic; over a prime field F_p, row reduction, kernels and ranks.

Matrices are lists of rows of Python ints (arbitrary precision).  Everything
here is exact; there is no floating point anywhere in the package.  Under
SELF_CHECK every Smith form computed is certified by its transforms and every
F_p rank by a nonsingular minor and a full set of kernel vectors.  The last
SMITH_MEMO certified Smith forms are kept, keyed by the matrix's content, and
a repeated matrix gets fresh copies of its kept form.
"""

import operator

from .errors import InputError, ResourceLimitError

# Every Smith form computed verifies U*A*V == D, the divisibility chain and
# unimodularity paperwork.  The inputs this package sees are tiny, so the
# self-check is kept on unconditionally.
SELF_CHECK = True

# How many certified Smith forms smith_normal_form keeps: a localization over
# Z has its parent's differentials, and a solve or a kernel often follows a
# form of the same matrix.  A small bound keeps the memory flat.
SMITH_MEMO = 8
_memo = {}  # content of A -> (D, U, V) as tuples of row tuples, least recent first

# Largest trial divisor in factorize: a larger remaining part may not be
# prime, so it is refused instead of trial-dividing without end.
FACTOR_TRIAL_MAX = 10**6


def zeros(m, n):
    return [[0] * n for _ in range(m)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in range(len(a))]
    n_inner = len(b)
    assert all(len(row) == n_inner for row in a)
    cols = len(b[0])
    out = []
    # row-sparse: the relation and transform matrices here are mostly zero,
    # so only nonzero pairs contribute a product
    for row in a:
        out_row = [0] * cols
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        out_row[j] += x * y
        out.append(out_row)
    return out


def mat_vec(a, v):
    return [sum(map(operator.mul, row, v)) for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def hstack(a, b):
    if not a:
        return [list(row) for row in b]
    if not b:
        return [list(row) for row in a]
    assert len(a) == len(b)
    return [[*ra, *rb] for ra, rb in zip(a, b)]


def block_matrix(rows, cols, blocks):
    """rows x cols matrix, zero except for each (r, c, mat) of blocks, whose
    top-left entry lands at (r, c).  Blocks must fit and must not overlap."""
    out = zeros(rows, cols)
    for r0, c0, mat in blocks:
        for r, row in enumerate(mat):
            assert c0 + len(row) <= cols, "block runs past the last column"
            out[r0 + r][c0 : c0 + len(row)] = row
    return out


def block_diag(blocks):
    placed = []
    r = c = 0
    for b in blocks:
        placed.append((r, c, b))
        r += len(b)
        c += len(b[0]) if b else 0
    return block_matrix(r, c, placed)


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b == g, g a gcd of a and b (possibly negative)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _clearing_step(a, b):
    """(a11, a12, a21, a22) with a11*a22 - a12*a21 == 1 taking the pair
    (a, b), a != 0, to (a11*a + a12*b, 0): a plain subtraction when a divides
    b, else the extended-gcd step, whose new pivot gcd(a, b) is smaller than
    |a|."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g, s, t = _xgcd(a, b)
    return s, t, -(b // g), a // g


def smith_normal_form(a):
    """Return (d, u, v) with u*a*v == d in Smith normal form.

    d is diagonal with nonnegative entries satisfying d[0] | d[1] | ... ;
    u and v are unimodular.  The lists are the caller's own: a matrix whose
    form is kept gets fresh copies of it, and only forms certified under
    SELF_CHECK are kept.
    """
    key = tuple(map(tuple, a))
    form = _memo.pop(key, None)
    if form is None:
        d, u, v = _smith_form(a)
        if SELF_CHECK:
            _keep(key, (tuple(map(tuple, d)), tuple(map(tuple, u)), tuple(map(tuple, v))))
        return d, u, v
    _keep(key, form)
    d, u, v = form
    return list(map(list, d)), list(map(list, u)), list(map(list, v))


def _keep(key, form):
    _memo[key] = form
    if len(_memo) > SMITH_MEMO:
        del _memo[next(iter(_memo))]


def _smith_form(a):
    """smith_normal_form's (d, u, v), computed and certified under SELF_CHECK."""
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise InputError("ragged matrix")
    d = [list(row) for row in a]
    u = identity(m)
    v = identity(n)

    def rows(i, j, a11, a12, a21, a22):
        # rows i, j of d and u become a11*row_i + a12*row_j and
        # a21*row_i + a22*row_j, a unimodular step.  For i == j the second
        # write wins, which makes (-1, 0, 0, -1) a sign flip of row i.
        for mat in (d, u):
            ri, rj = mat[i], mat[j]
            for k in range(len(ri)):
                p, q = ri[k], rj[k]
                ri[k] = a11 * p + a12 * q
                rj[k] = a21 * p + a22 * q

    def cols(i, j, a11, a12, a21, a22):  # the same step on columns i, j of d and v
        for mat in (d, v):
            for row in mat:
                p, q = row[i], row[j]
                row[i] = a11 * p + a12 * q
                row[j] = a21 * p + a22 * q

    t = 0
    while True:
        # locate a pivot: the first entry of smallest nonzero absolute value
        # in the submatrix; a unit cannot be beaten, so the search stops there
        pivot = None
        best = 0
        for i in range(t, m):
            for j in range(t, n):
                x = d[i][j]
                if x and (not best or abs(x) < best):
                    pivot, best = (i, j), abs(x)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        if pivot[0] != t:
            rows(t, pivot[0], 0, 1, 1, 0)
        if pivot[1] != t:
            cols(t, pivot[1], 0, 1, 1, 0)
        while True:
            # clear column t below the pivot, then row t to its right; only an
            # extended-gcd column step can refill column t, and it shrinks
            # the pivot
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    rows(t, i, *_clearing_step(d[t][t], d[i][t]))
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    cols(t, j, *_clearing_step(d[t][t], d[t][j]))
            if any(d[i][t] for i in range(t + 1, m)):
                continue
            # pivot must divide the rest of the submatrix for the
            # divisibility chain d[t] | d[t+1] | ...
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            rows(t, offender, 1, 1, 0, 1)  # fold the offending row into row t
        if d[t][t] < 0:
            rows(t, t, -1, 0, 0, -1)
        t += 1

    if SELF_CHECK:
        _verify_snf(a, d, u, v)
    return d, u, v


def _verify_snf(a, d, u, v):
    m = len(a)
    n = len(a[0]) if m else 0
    assert mat_mul(mat_mul(u, a), v) == d, "U*A*V != D"
    diag = diagonal(d)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0, "off-diagonal junk in SNF"
    assert all(e >= 0 for e in diag), "negative entry on the diagonal"
    for e, f in zip(diag, diag[1:]):
        if e == 0:
            assert f == 0, "zero before nonzero on diagonal"
        else:
            assert f % e == 0, "divisibility chain broken"
    assert abs(_det_unimodular(u)) == 1, "U not unimodular"
    assert abs(_det_unimodular(v)) == 1, "V not unimodular"


def _det_unimodular(a):
    """Determinant by fraction-free Bareiss elimination (exact).

    A pivot row whose sign differs from the previous pivot's is negated (and
    the sign of the result flipped back).  When the pivot p then equals
    the previous pivot, Bareiss's update (x*p - c*r) / p is x - c*r/p, an
    exact division: rows with c == 0 and columns where the pivot row is zero
    stay as they are, so only the pivot row's nonzero columns are touched.
    The permuted unit-triangular transforms of the Smith form take that
    branch at every step."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = m[k]
        p = pivot_row[k]
        if p == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
            pivot_row = m[k]
            p = pivot_row[k]
        if (p < 0) != (prev < 0):
            pivot_row = m[k] = [-x for x in pivot_row]
            p = -p
            sign = -sign
        if p == prev:
            for row in m[k + 1 :]:
                c = row[k]
                if c:
                    for j in range(k + 1, n):
                        r = pivot_row[j]
                        if r:
                            row[j] -= c * r // p
        else:
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * p - m[i][k] * pivot_row[j]) // prev
                m[i][k] = 0
        prev = p
    return sign * m[n - 1][n - 1]


def diagonal(d):
    m = len(d)
    n = len(d[0]) if m else 0
    return [d[i][i] for i in range(min(m, n))]


def kernel_basis(a, ncols=None):
    """Columns (as a list of column vectors) of a basis of {x : a x = 0}."""
    if not a or not a[0]:
        return identity(ncols if ncols is not None else (len(a[0]) if a else 0))
    d, _u, v = smith_normal_form(a)
    n = len(a[0])
    rank = sum(1 for e in diagonal(d) if e)
    basis = []
    for j in range(rank, n):
        basis.append([v[i][j] for i in range(n)])
    return basis


def divide_diagonal(diag, ub):
    """y with diag[i] * y[i] == ub[i] for every i, when ub is zero past the
    nonzero invariant factors diag and each of them divides; else None."""
    if any(ub[len(diag):]) or any(x % e for x, e in zip(ub, diag)):
        return None
    return [x // e for x, e in zip(ub, diag)]


def solve_int(a, b_cols):
    """Solve a X = B over the integers; B given as list of column vectors.

    Returns the columns of one solution X, or None when no integer solution
    exists.
    """
    d, u, v = smith_normal_form(a)
    diag = [e for e in diagonal(d) if e != 0]
    xs = []
    for b in b_cols:
        y = divide_diagonal(diag, mat_vec(u, b))
        if y is None:
            return None
        xs.append(mat_vec(v, y + [0] * (len(v) - len(y))))
    return xs


def lattice_form(gens):
    """(diag, u, basis) of one Smith form U*A*V = D of the matrix A whose
    columns are gens: diag its nonzero invariant factors and basis the first
    r = len(diag) columns of A*V = U^-1*D, a basis of the lattice K that
    gens span.  A column l lies in K iff divide_diagonal(diag, U*l) is not
    None, and that is its coordinates in basis.  Without gens u is None."""
    if not gens:
        return (), None, []
    a = transpose(gens)
    d, u, v = smith_normal_form(a)
    diag = tuple(e for e in diagonal(d) if e != 0)
    return diag, u, transpose(mat_mul(a, [row[: len(diag)] for row in v]))


def lattice_basis(gens, ambient_dim):
    """Basis (list of column vectors) of the lattice spanned by the given
    column vectors inside Z^ambient_dim."""
    return lattice_form(gens)[2]


def _quotient_form(k_gens, l_gens):
    """(basis, diag, u): a basis of the lattice K that k_gens span, and the
    diagonal and U of one Smith form U*C*V = D of the coordinates C of
    l_gens in that basis (diag = [] and u = None when C has no entries)."""
    k_diag, k_u, basis = lattice_form(k_gens)
    coords = [divide_diagonal(k_diag, l if k_u is None else mat_vec(k_u, l)) for l in l_gens]
    assert None not in coords, "L not inside K"
    if not basis or not coords:
        return basis, [], None
    d, u, _v = smith_normal_form(transpose(coords))
    return basis, diagonal(d), u


def quotient_invariants(k_gens, l_gens):
    """Invariant factors and free rank of K/L for lattices L <= K <= Z^n.

    k_gens: generating columns of K (a basis will do).  l_gens: generating
    columns of L (must lie in K).  Returns (factors, rank) with factors the
    invariant factors > 1 in increasing order.
    """
    basis, diag, _u = _quotient_form(k_gens, l_gens)
    nonzero = [e for e in diag if e != 0]
    factors = tuple(sorted(e for e in nonzero if e != 1))
    return factors, len(basis) - len(nonzero)


def quotient_generators(k_gens, l_gens):
    """Minimal generators of K/L as ambient columns, len(factors) + rank of
    them for quotient_invariants' (factors, rank).  With B the basis of K and
    U*C*V = D as in _quotient_form, the columns g_j of B*U^-1 are a basis of
    K in which the d_j*g_j span L: each g_j with d_j = 1 lies in L.  U is
    unimodular, so its own Smith form is U'*U*V' = I and U^-1 = V'*U'."""
    basis, diag, u = _quotient_form(k_gens, l_gens)
    if u is None:
        return basis
    _d, u2, v2 = smith_normal_form(u)
    uinv = mat_mul(v2, u2)
    assert mat_mul(u, uinv) == identity(len(u)), "U*U^-1 != I"
    gens = transpose(mat_mul(transpose(basis), uinv))
    return [g for j, g in enumerate(gens) if j >= len(diag) or diag[j] != 1]


# ---------------------------------------------------------------------------
# linear algebra over F_p


def fp_reduce(mat, p):
    """Row reduce mod a prime p: (rref, pivots), the nonzero rows of the
    reduced echelon form of mat and their pivot columns.  Under SELF_CHECK
    the rank len(pivots) is certified by _verify_fp_rank."""
    rref, pivots, pivot_rows = _fp_eliminate(mat, p)
    if SELF_CHECK:
        _verify_fp_rank(mat, p, rref, pivots, pivot_rows)
    return rref, pivots


def _fp_eliminate(mat, p):
    """Gauss-Jordan elimination mod p: (rref, pivots, pivot_rows), with
    pivot_rows the rows of mat whose span the rows of rref are."""
    m = [[x % p for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    order = list(range(rows))  # the row of mat each row of m started as
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        order[r], order[pr] = order[pr], order[r]
        pivot_row = m[r]
        if pivot_row[c] != 1:
            inv = pow(pivot_row[c], p - 2, p)
            pivot_row = m[r] = [x * inv % p for x in pivot_row]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], pivot_row)]
        pivots.append(c)
        r += 1
    return m[:r], pivots, order[:r]


def _verify_fp_rank(a, p, rref, pivots, pivot_rows):
    """Certify that the m x n matrix a has rank r = len(pivots) mod p: the
    r x r minor of a at pivot_rows and pivots is nonsingular mod p (rank >=
    r), and the n - r echelon kernel vectors, independent by their shape,
    satisfy a*k == 0 mod p (rank <= r)."""
    minor = [[a[i][c] % p for c in pivots] for i in pivot_rows]
    assert _det_mod_p(minor, p) != 0, "singular pivot minor mod p"
    # the kernel vectors k, one per free column, stacked side by side make
    # a*K = a[:, free] - a[:, pivots] * rref[:, free], row by row
    n = len(a[0]) if a else 0
    pivot_set = set(pivots)
    free = [f for f in range(n) if f not in pivot_set]
    rref_free = [[row[f] for f in free] for row in rref]
    for row in a:
        out = [row[f] for f in free]
        for c, w in zip(pivots, rref_free):
            x = row[c]
            if x:
                out = [y - x * z for y, z in zip(out, w)]
        assert not any(y % p for y in out), "kernel vector not annihilated mod p"


def _det_mod_p(a, p):
    """Determinant mod p of a square matrix with entries reduced mod p, by
    plain elimination with row swaps."""
    m = [list(row) for row in a]
    det = 1
    for k in range(len(m)):
        pr = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pr is None:
            return 0
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], p - 2, p)
        for row in m[k + 1 :]:
            f = row[k] * inv % p
            if f:
                for j in range(k, len(row)):
                    row[j] = (row[j] - f * m[k][j]) % p
    return det % p


def fp_kernel(mat, ncols, p):
    """Basis column vectors of the kernel of mat mod p in echelon form: one
    vector per free column f, 1 at f and 0 at every other free column."""
    rref, pivots = fp_reduce(mat, p)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            v = [0] * ncols
            v[f] = 1
            for row, pc in zip(rref, pivots):
                v[pc] = -row[f] % p
            basis.append(v)
    return basis


def rank_p(mat, p):
    """Rank of mat mod a prime p, certified under SELF_CHECK."""
    return len(fp_reduce(mat, p)[1])


def factorize(n):
    """Prime factorization of |n| as a dict prime -> exponent (n != 0)."""
    n = abs(n)
    assert n != 0
    out = {}
    d = 2
    while d * d <= n:
        if d > FACTOR_TRIAL_MAX:
            raise ResourceLimitError("integer too large to factor", "factor_trial", FACTOR_TRIAL_MAX)
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
