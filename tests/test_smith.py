"""Integer matrix normal forms and lattice arithmetic."""

import hashlib
import json
import random
import re
import time
from itertools import combinations, permutations, product
from math import prod

import pytest

from ttsupport import smith
from ttsupport.smith import (
    _det_mod_p,
    _det_unimodular,
    _verify_fp_rank,
    _verify_snf,
    diagonal,
    fp_kernel,
    identity,
    kernel_basis,
    lattice_basis,
    mat_mul,
    mat_vec,
    quotient_generators,
    quotient_invariants,
    rank_p,
    smith_normal_form,
    solve_int,
    transpose,
    zeros,
)


def _random_matrix(rng, rows, cols, bound=50):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_normal_form_postconditions_on_random_matrices():
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, rows, cols)
        d, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0


def test_normal_forms_and_transforms_are_pinned_on_seeded_matrices(computed_smith_forms):
    # the pivot choice fixes (D, U, V), not only D; entries of absolute
    # value 1 and ties are common at the smaller bounds.  Each form is taken
    # cold, then read back from the kept forms: both give the pinned hash
    rng = random.Random(11)
    cold, warm = hashlib.sha256(), hashlib.sha256()
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = _random_matrix(rng, rows, cols, bound=rng.choice([1, 3, 50]))
        smith._memo.clear()
        cold.update(json.dumps(smith_normal_form(a)).encode())
        warm.update(json.dumps(smith_normal_form(a)).encode())
    assert len(computed_smith_forms) == 300
    pinned = "e8b2c700272afb8deb4769f2dce496a102c3513616ee16ab6467e488a8bac6e7"
    assert cold.hexdigest() == warm.hexdigest() == pinned


# -- the kept Smith forms ----------------------------------------------------------


def test_a_caller_that_changes_its_form_or_its_matrix_changes_no_kept_form():
    a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    expected = json.dumps(smith_normal_form(a))
    for _ in range(2):
        form = smith_normal_form(a)
        assert json.dumps(form) == expected
        for mat in form:
            mat[0][0] += 1
            mat.append([7])
    a[0][0] = 3
    assert smith_normal_form(a) == smith._smith_form([list(row) for row in a])
    a[0][0] = 2
    assert json.dumps(smith_normal_form(a)) == expected


def test_only_forms_certified_under_self_check_are_kept(computed_smith_forms, monkeypatch):
    certified = []
    verify = smith._verify_snf
    monkeypatch.setattr(smith, "_verify_snf", lambda *args: (certified.append(args), verify(*args)))
    a = [[2, 4], [6, 8]]
    monkeypatch.setattr(smith, "SELF_CHECK", False)
    unchecked = smith_normal_form(a)
    assert smith._memo == {} and certified == []
    monkeypatch.setattr(smith, "SELF_CHECK", True)
    for _ in range(2):
        assert smith_normal_form(a) == unchecked
        assert len(computed_smith_forms) == 2 and len(certified) == 1


def test_the_kept_forms_never_exceed_their_bound_and_the_least_recent_goes(
    computed_smith_forms,
):
    mats = [[[k + 2, k]] for k in range(smith.SMITH_MEMO + 3)]
    for a in mats[: smith.SMITH_MEMO]:
        smith_normal_form(a)
    smith_normal_form(mats[0])  # read back: now the most recent
    for a in mats[smith.SMITH_MEMO :]:
        smith_normal_form(a)
        assert len(smith._memo) <= smith.SMITH_MEMO
    del computed_smith_forms[:]
    smith_normal_form(mats[0])
    smith_normal_form(mats[-1])
    assert computed_smith_forms == []
    smith_normal_form(mats[1])
    assert computed_smith_forms == [mats[1]]


def test_normal_form_fixed_oracle():
    # [[2,4],[6,8]] has invariant factors 2 and 4 (det = -8, gcd = 2)
    d, _u, _v = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]


def test_kernel_basis_spans_the_kernel():
    a = [[1, 2, 3], [2, 4, 6]]
    basis = kernel_basis(a, 3)
    assert len(basis) == 2
    for vec in basis:
        assert all(sum(row[j] * vec[j] for j in range(3)) == 0 for row in a)


def test_solve_int_finds_integer_preimages():
    a = [[2, 0], [0, 3]]
    sol = solve_int(a, [[4, 9]])
    assert sol is not None
    assert solve_int(a, [[1, 0]]) is None


def test_quotient_invariants_of_standard_embeddings():
    # Z^2 / (2Z x 3Z) = Z/2 + Z/3
    k = [[1, 0], [0, 1]]
    l = [[2, 0], [0, 3]]
    factors, rank = quotient_invariants(k, l)
    assert rank == 0
    assert sorted(factors) == [2, 3] or factors == (6,)
    # Z^2 / Z(1,1): free of rank 1
    factors, rank = quotient_invariants(identity(2), [[1, 1]])
    assert factors == () and rank == 1


def _reference_mul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)] for row in a]


def test_mat_mul_and_mat_vec_match_the_plain_product():
    rng = random.Random(11)
    cases = [([], []), ([], [[1, 2]]), ([[], []], []), ([[0, 0], [0, 0]], [[1], [2]])]
    for _ in range(300):
        m, k, n = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
        density = rng.choice((0.0, 0.1, 0.5, 1.0))
        bits = rng.choice((3, 64, 3000))

        def entry():
            return rng.randint(-(2**bits), 2**bits) if rng.random() < density else 0

        a = [[entry() for _ in range(k)] for _ in range(m)]
        b = [[entry() for _ in range(n)] for _ in range(k)] if k else []
        if m and rng.random() < 0.3:
            a[rng.randrange(m)] = [0] * k  # an all-zero row
        cases.append((a, b))
    for a, b in cases:
        assert mat_mul(a, b) == _reference_mul(a, b)
        for j in range(len(b[0]) if b else 0):
            col = [row[j] for row in b]
            assert mat_vec(a, col) == [r[0] for r in _reference_mul(a, [[x] for x in col])]


def _generator_sets(rng, count):
    """Seeded generator lists: zero, rank-deficient (a product through a
    thin middle), full-rank and empty shapes, as (gens, ambient_dim)."""
    cases = [([], 0), ([], 3), ([[]], 0), ([[], []], 0), ([[0, 0]], 2), ([[0], [0], [0]], 1)]
    while len(cases) < count:
        amb, n = rng.randint(0, 6), rng.randint(0, 6)
        kind = rng.choice(("zero", "deficient", "random"))
        if kind == "zero":
            a = [[0] * n for _ in range(amb)]
        elif kind == "deficient" and min(amb, n) > 1:
            mid = rng.randint(1, min(amb, n) - 1)
            a = _reference_mul(_random_matrix(rng, amb, mid, 6), _random_matrix(rng, mid, n, 6))
        else:
            a = _random_matrix(rng, amb, n)
        gens = [[row[j] for row in a] for j in range(n)]  # the columns of a
        cases.append((gens, amb))
    return cases


def _inverse(u):
    uinv = transpose(solve_int(u, identity(len(u))))
    assert mat_mul(u, uinv) == identity(len(u)) == mat_mul(uinv, u)
    return uinv


def _lattice_basis_through_the_inverse(gens, ambient_dim):
    """The columns of U^-1 * D for the nonzero invariant factors."""
    if not gens:
        return []
    a = transpose(gens)
    d, u, _v = smith_normal_form(a)
    uinv = _inverse(u)
    n = len(a[0]) if a else 0
    return [
        [uinv[r][i] * d[i][i] for r in range(ambient_dim)]
        for i in range(min(len(a), n))
        if d[i][i] != 0
    ]


def test_lattice_basis_equals_u_inverse_times_d():
    for gens, amb in _generator_sets(random.Random(5), 240):
        assert lattice_basis(gens, amb) == _lattice_basis_through_the_inverse(gens, amb)


def _columns_matrix(cols, amb):
    """The amb x len(cols) matrix with the given columns."""
    return [[c[r] for c in cols] for r in range(amb)]


def test_quotient_generators_span_k_with_l_and_count_the_invariants():
    rng = random.Random(17)
    for gens, amb in _generator_sets(rng, 240):
        # L: integer combinations of the generators, so L lies in K
        l_gens = [
            [sum(c * g[r] for c, g in zip(coef, gens)) for r in range(amb)]
            for coef in _random_matrix(rng, rng.randint(0, 4), len(gens), 4)
        ]
        new = quotient_generators(gens, l_gens)
        # each new generator lies in K, and K lies in the span of them and L
        assert solve_int(_columns_matrix(gens, amb), new) is not None
        assert solve_int(_columns_matrix(new + l_gens, amb), gens) is not None
        factors, rank = quotient_invariants(gens, l_gens)
        assert len(new) == len(factors) + rank


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_transforms_stay_small_on_dense_ten_by_ten_matrices(seed):
    # clearing by Euclid with row swaps drives these transforms to tens of
    # thousands of bits; 2x2 extended-gcd steps stay near a thousand
    a = _random_matrix(random.Random(seed), 10, 10)
    start = time.perf_counter()
    _d, u, v = smith_normal_form(a)
    uinv = _inverse(u)
    assert time.perf_counter() - start < 1.0
    assert max(abs(x).bit_length() for row in u + v + uinv for x in row) <= 4096


def test_quotient_invariants_accepts_dependent_generators():
    rng = random.Random(13)
    for gens, amb in _generator_sets(rng, 200):
        # L: integer combinations of the generators, so L lies in K
        l_gens = [
            [sum(c * g[r] for c, g in zip(coef, gens)) for r in range(amb)]
            for coef in (_random_matrix(rng, rng.randint(0, 4), len(gens), 4))
        ]
        dependent = gens + [[2 * x - y for x, y in zip(g, gens[0])] for g in gens]
        expected = quotient_invariants(lattice_basis(gens, amb), l_gens)
        assert quotient_invariants(gens, l_gens) == expected
        assert quotient_invariants(dependent, l_gens) == expected


@pytest.mark.parametrize(
    "k_gens, l_gens",
    [
        ([[2, 0]], [[1, 0]]),  # not divisible by the invariant factor
        ([[1, 0]], [[0, 1]]),  # a nonzero coordinate beyond the rank
        ([[1, 1], [2, 2]], [[1, 0]]),  # dependent generators of a rank-one K
        ([], [[1]]),  # K = 0
    ],
)
def test_quotient_invariants_refuses_l_outside_k(k_gens, l_gens):
    with pytest.raises(AssertionError, match="L not inside K"):
        quotient_invariants(k_gens, l_gens)


def _reference_det(a):
    """Determinant by the plain dense Bareiss loop: every entry below and to
    the right of the pivot is updated at every step."""
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


def test_determinant_agrees_with_dense_bareiss_on_seeded_square_matrices():
    rng = random.Random(23)
    singular = 0
    for _ in range(2000):
        n = rng.randint(0, 8)
        density = rng.choice((0.2, 0.5, 0.8, 1.0))
        bits = rng.choice((1, 2, 8, 60))
        a = [
            [rng.randint(-(2**bits), 2**bits) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        if n > 1 and rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            a[i] = [rng.choice((-2, 1, 3)) * x for x in a[j]]  # a dependent row
        expected = _reference_det(a)
        singular += expected == 0
        assert abs(_det_unimodular(a)) == abs(expected), a
    assert singular > 200


def test_determinant_agrees_with_dense_bareiss_on_smith_transforms():
    rng = random.Random(29)
    for _ in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = _random_matrix(rng, rows, cols, rng.choice((1, 3, 50)))
        if rng.random() < 0.3 and min(rows, cols) > 1:
            mid = rng.randint(1, min(rows, cols) - 1)
            a = mat_mul(_random_matrix(rng, rows, mid, 6), _random_matrix(rng, mid, cols, 6))
        _d, u, v = smith_normal_form(a)
        for t in (u, v):
            assert abs(_det_unimodular(t)) == abs(_reference_det(t)) == 1


def _permuted_unit_triangular(n, seed):
    """The rows of a seeded unit upper-triangular matrix (diagonal +-1, two
    more entries per row) in a seeded order."""
    rng = random.Random(seed)
    a = zeros(n, n)
    for i in range(n):
        a[i][i] = rng.choice((1, -1))
        for j in rng.sample(range(i + 1, n), min(2, n - i - 1)):
            a[i][j] = rng.randint(-9, 9)
    rng.shuffle(a)
    return a


@pytest.mark.parametrize("diagonal_entry, det", [(1, 1), (2, 2)])
def test_determinant_of_a_large_permuted_unit_triangular_matrix_is_quick(diagonal_entry, det):
    a = _permuted_unit_triangular(150, 31)
    row = next(r for r in a if r[75] and not any(r[:75]))  # the row with diagonal entry 75
    row[75] = diagonal_entry
    start = time.perf_counter()
    got = _det_unimodular(a)
    assert time.perf_counter() - start < 0.05
    assert abs(got) == det == abs(_reference_det(a))


@pytest.mark.parametrize("which", ["U", "V"])
def test_self_check_refuses_a_transform_with_determinant_two(which):
    # A = D = 0, so U*A*V == D and the divisibility chain hold for any U, V:
    # only the determinant can catch the bad transform
    a = zeros(40, 40)
    bad = _permuted_unit_triangular(40, 37)
    row = next(r for r in bad if r[20] and not any(r[:20]))
    row[20] = 2
    u, v = (bad, identity(40)) if which == "U" else (identity(40), bad)
    with pytest.raises(AssertionError, match="%s not unimodular" % which):
        _verify_snf(a, zeros(40, 40), u, v)


@pytest.mark.parametrize("d", [[[-3]], [[1, 0], [0, -2]]])
def test_self_check_refuses_a_negative_last_diagonal_entry(d):
    # A = D and U = V = I satisfy every other clause: the sign of the last
    # entry is the only fault
    n = len(d)
    with pytest.raises(AssertionError, match="negative entry on the diagonal"):
        _verify_snf(d, d, identity(n), identity(n))


# one forged (A, D, U, V) per clause of the Smith certificate, each refused by
# that clause alone, with the message the clause raises
SNF_CLAUSE_FORGERIES = {
    "U*A*V != D": ([[1]], [[2]], [[1]], [[1]]),
    "off-diagonal junk in SNF": ([[1, 1]], [[1, 1]], [[1]], identity(2)),
    "negative entry on the diagonal": ([[-1, 0], [0, 2]], [[-1, 0], [0, 2]], identity(2), identity(2)),
    "zero before nonzero on diagonal": ([[0, 0], [0, 1]], [[0, 0], [0, 1]], identity(2), identity(2)),
    "divisibility chain broken": ([[2, 0], [0, 3]], [[2, 0], [0, 3]], identity(2), identity(2)),
    "U not unimodular": ([[0]], [[0]], [[2]], [[1]]),
    "V not unimodular": ([[0]], [[0]], [[1]], [[-2]]),
}


@pytest.mark.parametrize("message", list(SNF_CLAUSE_FORGERIES))
def test_each_clause_of_the_smith_certificate_refuses_its_forgery(message):
    a, d, u, v = SNF_CLAUSE_FORGERIES[message]
    with pytest.raises(AssertionError, match=re.escape(message)):
        _verify_snf(a, d, u, v)


# -- linear algebra over F_p -----------------------------------------------------


# one forged (a, p, rref, pivots, pivot_rows) per clause of the F_p rank
# certificate: the real check refuses it with the clause's message, and a copy
# without that clause accepts it
FP_RANK_CLAUSE_FORGERIES = {
    # rank 1 claimed for the zero matrix: no free column, so no kernel vector
    "singular pivot minor mod p": ([[0]], 2, [[1]], [0], [0]),
    # rank 0 claimed for [[1]]: the empty minor has determinant 1
    "kernel vector not annihilated mod p": ([[1]], 2, [], [], []),
}


@pytest.mark.parametrize("message", list(FP_RANK_CLAUSE_FORGERIES))
def test_each_clause_of_the_fp_rank_certificate_refuses_what_the_copy_without_it_accepts(
    message, weakened
):
    forged = FP_RANK_CLAUSE_FORGERIES[message]
    with pytest.raises(AssertionError, match="^%s$" % re.escape(message)):
        _verify_fp_rank(*forged)
    weakened(_verify_fp_rank, '"%s"' % message)(*forged)



def _leibniz_det(a):
    """The determinant as the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(a)), 2))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(len(a)))
    return total


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_determinant_mod_p_agrees_with_leibniz_on_every_small_matrix(n, p):
    # every matrix with a zero pivot and a nonzero entry below it takes the
    # row swap, which the rank certificate's pivot minor rests on
    for entries in product(range(p), repeat=n * n):
        a = [list(entries[r * n : (r + 1) * n]) for r in range(n)]
        assert _det_mod_p(a, p) == _leibniz_det(a) % p


def test_rank_mod_p_counts_the_invariant_factors_prime_to_p():
    rng = random.Random(11)
    for _ in range(150):
        a = _random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10), bound=rng.choice([3, 50]))
        d, _u, _v = smith_normal_form(a)
        for p in (2, 3, 5, 7):
            assert rank_p(a, p) == sum(1 for e in diagonal(d) if e % p)
            kernel = fp_kernel(a, len(a[0]), p)
            assert len(kernel) == len(a[0]) - rank_p(a, p)
            assert all(x % p == 0 for k in kernel for x in mat_vec(a, k))


# rank 2 mod 3, with free columns: the third row is the sum of the first two
# and the third column twice the first
FORGE_MATRIX = [[1, 0, 2, 1], [0, 1, 0, 2], [1, 1, 2, 0]]


def _drop_a_pivot(rref, pivots, rows):
    return rref[:-1], pivots[:-1], rows[:-1]


def _bend_a_kernel_vector(rref, pivots, rows):
    free = next(c for c in range(len(rref[0])) if c not in pivots)
    bent = [list(row) for row in rref]
    bent[0][free] = (bent[0][free] + 1) % 3
    return bent, pivots, rows


def _claim_a_free_column(rref, pivots, rows):
    free = next(c for c in range(len(rref[0])) if c not in pivots)
    spare = next(i for i in range(len(FORGE_MATRIX)) if i not in rows)
    extra = [1 if c == free else 0 for c in range(len(rref[0]))]
    return rref + [extra], pivots + [free], rows + [spare]


@pytest.mark.parametrize(
    "forge, message",
    [
        (_drop_a_pivot, "kernel vector not annihilated"),
        (_bend_a_kernel_vector, "kernel vector not annihilated"),
        (_claim_a_free_column, "singular pivot minor"),
    ],
    ids=["drop-pivot", "bend-kernel-vector", "extra-pivot"],
)
def test_a_forged_reduction_mod_p_fails_the_rank_certificate(forge, message, monkeypatch):
    assert rank_p(FORGE_MATRIX, 3) == 2
    honest = smith._fp_eliminate
    monkeypatch.setattr(smith, "_fp_eliminate", lambda mat, p: forge(*honest(mat, p)))
    with pytest.raises(AssertionError, match=message):
        rank_p(FORGE_MATRIX, 3)
