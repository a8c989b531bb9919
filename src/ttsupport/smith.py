"""Integer matrix routines: Smith normal form and lattice arithmetic.

Matrices are lists of rows of Python ints (arbitrary precision).  Everything
here is exact; there is no floating point anywhere in the package.
"""

from .errors import InputError, ResourceLimitError

# Every call to smith_normal_form re-verifies U*A*V == D, the divisibility
# chain and unimodularity paperwork.  The inputs this package sees are tiny,
# so the self-check is kept on unconditionally.
SELF_CHECK = True

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
    return [sum(x * y for x, y in zip(row, v) if x) for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def hstack(a, b):
    if not a:
        return [row[:] for row in b]
    if not b:
        return [row[:] for row in a]
    assert len(a) == len(b)
    return [ra + rb for ra, rb in zip(a, b)]


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


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def smith_normal_form(a):
    """Return (d, u, v) with u*a*v == d in Smith normal form.

    d is diagonal with nonnegative entries satisfying d[0] | d[1] | ... ;
    u and v are unimodular.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise InputError("ragged matrix")
    d = [row[:] for row in a]
    u = identity(m)
    v = identity(n)

    def row_op(i, j, q):  # row_i -= q * row_j
        for k in range(n):
            d[i][k] -= q * d[j][k]
        for k in range(m):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        # locate a pivot: smallest nonzero absolute value in the submatrix
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t] != 0:  # remainder becomes the smaller pivot
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j] != 0:
                        col_swap(j, t)
                        dirty = True
            if dirty:
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
            row_op(t, offender, -1)  # fold the offending row into row t
        if d[t][t] < 0:
            for k in range(n):
                d[t][k] = -d[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
        t += 1

    if SELF_CHECK:
        _verify_snf(a, d, u, v)
    return d, u, v


def _verify_snf(a, d, u, v):
    m = len(a)
    n = len(a[0]) if m else 0
    assert mat_eq(mat_mul(mat_mul(u, a), v), d), "U*A*V != D"
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0, "off-diagonal junk in SNF"
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i] == 0:
            assert diag[i + 1] == 0, "zero before nonzero on diagonal"
        else:
            assert diag[i + 1] % diag[i] == 0, "divisibility chain broken"
    assert abs(_det_unimodular(u)) == 1, "U not unimodular"
    assert abs(_det_unimodular(v)) == 1, "V not unimodular"


def _det_unimodular(a):
    """Determinant by fraction-free Bareiss elimination (exact)."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def diagonal(d):
    m = len(d)
    n = len(d[0]) if m else 0
    return [d[i][i] for i in range(min(m, n))]


def kernel_basis(a, ncols=None):
    """Columns (as a list of column vectors) of a basis of {x : a x = 0}."""
    if not a or not a[0]:
        n = ncols if ncols is not None else (len(a[0]) if a else 0)
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    d, _u, v = smith_normal_form(a)
    m = len(a)
    n = len(a[0])
    rank = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    basis = []
    for j in range(rank, n):
        basis.append([v[i][j] for i in range(n)])
    return basis


def _divide(diag, ub):
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
        y = _divide(diag, mat_vec(u, b))
        if y is None:
            return None
        xs.append(mat_vec(v, y + [0] * (len(v) - len(y))))
    return xs


def inverse_unimodular(a):
    n = len(a)
    cols = solve_int(a, [[1 if i == j else 0 for i in range(n)] for j in range(n)])
    assert cols is not None, "matrix is not invertible over the integers"
    return transpose(cols)


def _span_coordinates(gens, l_cols):
    """One Smith form U*A*V = D of the matrix A whose columns are gens.

    Returns (basis, coords): the first r = rank(A) columns of A*V = U^-1*D,
    a basis of the lattice K that gens span, and the coordinates in it of
    each column l of l_cols, read off U*l = D*c.  Asserts that L lies in K.
    """
    if not gens:
        assert not any(any(l) for l in l_cols), "L not inside K"
        return [], [[] for _ in l_cols]
    a = transpose(gens)
    d, u, v = smith_normal_form(a)
    diag = [e for e in diagonal(d) if e != 0]
    coords = [_divide(diag, mat_vec(u, l)) for l in l_cols]
    assert None not in coords, "L not inside K"
    return transpose(mat_mul(a, [row[: len(diag)] for row in v])), coords


def lattice_basis(gens, ambient_dim):
    """Basis (list of column vectors) of the lattice spanned by the given
    column vectors inside Z^ambient_dim."""
    return _span_coordinates(gens, [])[0]


def quotient_invariants(k_gens, l_gens):
    """Invariant factors and free rank of K/L for lattices L <= K <= Z^n.

    k_gens: generating columns of K (a basis will do).  l_gens: generating
    columns of L (must lie in K).  Returns (factors, rank) with factors the
    invariant factors > 1 in increasing order.
    """
    basis, coords = _span_coordinates(k_gens, l_gens)
    if not basis or not coords:
        return (), len(basis)
    d, _u, _v = smith_normal_form(transpose(coords))
    nonzero = [e for e in diagonal(d) if e != 0]
    factors = tuple(sorted(e for e in nonzero if e != 1))
    return factors, len(basis) - len(nonzero)


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
