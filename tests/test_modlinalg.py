import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from blakley import (
    DimensionMismatchError,
    ModMatrix,
    ModVector,
    ModulusMismatchError,
    NotSquareError,
    PrimeModulus,
    SingularMatrixError,
    determinant,
    in_rowspace,
    rank,
    solve,
)

from conftest import det_cofactor, eliminate_plainly, solve_exhaustive

# Normal-form system of the reference share set, subset {1, 2, 3}.
REFERENCE_ROWS = [[4, 19, -1], [52, 27, -1], [36, 65, -1]]
REFERENCE_RHS = [-68, -10, -18]


def random_rows(rnd, n, p):
    return [[rnd.randrange(p) for _ in range(n)] for _ in range(n)]


def product(a, b, p):
    """The matrix product of row lists a and b, mod p."""
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


class TestDeterminant:
    def test_identity(self, mod73):
        for n in (1, 2, 3, 5):
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            assert determinant(ModMatrix(rows, mod73)) == 1

    def test_reference_system(self, mod73):
        m = ModMatrix(REFERENCE_ROWS, mod73)
        assert determinant(m) == 19
        assert determinant(m) == det_cofactor(REFERENCE_ROWS, 73)

    def test_duplicate_row_is_singular(self, mod73):
        m = ModMatrix([[1, 2, 3], [4, 5, 6], [1, 2, 3]], mod73)
        assert determinant(m) == 0

    def test_not_square(self, mod73):
        with pytest.raises(NotSquareError):
            determinant(ModMatrix([[1, 2, 3], [4, 5, 6]], mod73))

    def test_matches_cofactor_oracle(self):
        rnd = random.Random(5)
        for p in (2, 3, 5, 7, 73):
            m = PrimeModulus(p)
            for n in (1, 2, 3, 4):
                for _ in range(25):
                    rows = random_rows(rnd, n, p)
                    assert determinant(ModMatrix(rows, m)) == det_cofactor(rows, p)

    def test_multiplicative(self):
        rnd = random.Random(6)
        for p in (5, 7, 73):
            m = PrimeModulus(p)
            for _ in range(40):
                a = random_rows(rnd, 3, p)
                b = random_rows(rnd, 3, p)
                det_ab = determinant(ModMatrix(product(a, b, p), m))
                assert det_ab == determinant(ModMatrix(a, m)) * determinant(ModMatrix(b, m)) % p


class TestSolve:
    def test_reference_system(self, mod73):
        x = solve(ModMatrix(REFERENCE_ROWS, mod73), ModVector(REFERENCE_RHS, mod73))
        assert x.entries == (42, 29, 57)

    def test_identity_returns_rhs(self, mod73):
        b = ModVector([7, 8, 9], mod73)
        assert solve(ModMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], mod73), b) == b

    def test_singular(self, mod73):
        a = ModMatrix([[1, 2], [2, 4]], mod73)
        with pytest.raises(SingularMatrixError):
            solve(a, ModVector([1, 2], mod73))

    def test_dimension_errors(self, mod73):
        square = ModMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]], mod73)
        with pytest.raises(DimensionMismatchError):
            solve(square, ModVector([1, 2], mod73))
        with pytest.raises(DimensionMismatchError):
            solve(ModMatrix([[1, 2, 3], [4, 5, 6]], mod73), ModVector([1, 2], mod73))

    def test_modulus_mismatch(self, mod73):
        a = ModMatrix([[1, 0], [0, 1]], mod73)
        with pytest.raises(ModulusMismatchError):
            solve(a, ModVector([1, 2], PrimeModulus(5)))

    def test_solution_satisfies_system(self):
        rnd = random.Random(7)
        for p in (3, 5, 73, 2**61 - 1):
            m = PrimeModulus(p)
            for _ in range(30):
                n = rnd.randrange(1, 5)
                rows = random_rows(rnd, n, p)
                a = ModMatrix(rows, m)
                b = [rnd.randrange(p) for _ in range(n)]
                if determinant(a) == 0:
                    with pytest.raises(SingularMatrixError):
                        solve(a, ModVector(b, m))
                else:
                    x = solve(a, ModVector(b, m)).entries
                    assert product(rows, [[v] for v in x], p) == [[v] for v in b]

    def test_agrees_with_exhaustive_search(self):
        rnd = random.Random(8)
        for _ in range(60):
            p = rnd.choice([2, 3, 5, 7])
            n = rnd.randrange(1, 4)
            m = PrimeModulus(p)
            rows = random_rows(rnd, n, p)
            b = [rnd.randrange(p) for _ in range(n)]
            hits = solve_exhaustive(rows, b, p)
            a = ModMatrix(rows, m)
            if determinant(a) == 0:
                assert len(hits) != 1
                with pytest.raises(SingularMatrixError):
                    solve(a, ModVector(b, m))
            else:
                assert hits == [solve(a, ModVector(b, m)).entries]


class TestRank:
    def test_reference_values(self, mod73):
        assert rank(ModMatrix(REFERENCE_ROWS, mod73)) == 3
        assert rank(ModMatrix([[0, 0], [0, 0]], mod73)) == 0
        assert rank(ModMatrix([[1, 2, 3]], mod73)) == 1
        assert rank(ModMatrix([[int(i == j) for j in range(4)] for i in range(4)], mod73)) == 4

    def test_rank_drops_mod_p(self):
        # Rows are independent over the rationals but not mod 5.
        m = ModMatrix([[1, 2], [6, 12]], PrimeModulus(5))
        assert rank(m) == 1

    def test_appending_rows_monotone(self):
        rnd = random.Random(9)
        m = PrimeModulus(7)
        for _ in range(50):
            base = ModMatrix(random_rows(rnd, 3, 7), m)
            extra = [rnd.randrange(7) for _ in range(3)]
            grown = ModMatrix(base.entries + (tuple(extra),), m)
            assert rank(base) <= rank(grown) <= rank(base) + 1


class TestRowspace:
    def test_own_rows_are_members(self, mod73):
        m = ModMatrix(REFERENCE_ROWS, mod73)
        for i in range(3):
            assert in_rowspace(ModVector(m.row(i), mod73), m)

    def test_reference_values(self):
        m5 = PrimeModulus(5)
        assert not in_rowspace(ModVector([1, 0, 0], m5), ModMatrix([[0, 1, 0]], m5))
        assert in_rowspace(ModVector([1, 0, 0], m5),
                           ModMatrix([[1, 1, 0], [0, 1, 0]], m5))

    def test_matches_enumeration_oracle(self):
        rnd = random.Random(10)
        p = 3
        m = PrimeModulus(p)
        for _ in range(60):
            nrows = rnd.randrange(1, 4)
            rows = [[rnd.randrange(p) for _ in range(3)] for _ in range(nrows)]
            v = [rnd.randrange(p) for _ in range(3)]
            spanned = set()
            for lam in itertools.product(range(p), repeat=nrows):
                combo = tuple(sum(l * row[j] for l, row in zip(lam, rows)) % p
                              for j in range(3))
                spanned.add(combo)
            assert in_rowspace(ModVector(v, m), ModMatrix(rows, m)) == (tuple(v) in spanned)

    def test_dimension_mismatch(self, mod73):
        with pytest.raises(DimensionMismatchError):
            in_rowspace(ModVector([1, 2], mod73), ModMatrix(REFERENCE_ROWS, mod73))


class TestModMatrix:
    def test_construction_validates(self, mod73):
        with pytest.raises(DimensionMismatchError):
            ModMatrix([[1, 2], [3]], mod73)
        with pytest.raises(DimensionMismatchError):
            ModMatrix([], mod73)

    def test_entries_are_reduced_row_tuples(self, mod73):
        m = ModMatrix([[1, -1, 75], [0, 73, 2]], mod73)
        assert m.entries == ((1, 72, 2), (0, 0, 2))
        assert (m.rows, m.cols) == (2, 3)
        assert m.row(1) == (0, 0, 2)
        assert repr(m) == "ModMatrix[1 72 2; 0 0 2] mod 73"
        assert repr(ModVector([-1, 5], mod73)) == "ModVector(72, 5) mod 73"



# Properties of the elimination kernel, checked against brute force at the
# smallest primes, where pivots are often zero (so rows get swapped) and
# random matrices are often singular.
SMALL_PRIMES = st.sampled_from([2, 3, 5, 7])
SHAPES = {"tall": (4, 3), "wide": (2, 4), "square": (3, 3)}


def residues(p, size):
    return st.lists(st.integers(0, p - 1), min_size=size, max_size=size)


def combination(lam, rows, p, ncols):
    """sum_i lam_i rows_i mod p."""
    return [sum(u * r[j] for u, r in zip(lam, rows)) % p for j in range(ncols)]


@st.composite
def matrices(draw, nrows, ncols):
    """A (p, rows) pair; about half the time one row, anywhere, is a
    combination of the others (a zero row when there is only one)."""
    p = draw(SMALL_PRIMES)
    rows = draw(st.lists(residues(p, ncols), min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        rows[-1] = combination(draw(residues(p, nrows - 1)), rows[:-1], p, ncols)
        rows = [rows[i] for i in draw(st.permutations(range(nrows)))]
    return p, rows


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_determinant_property(n, data):
    p, rows = data.draw(matrices(n, n))
    assert determinant(ModMatrix(rows, PrimeModulus(p))) == det_cofactor(rows, p)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), consistent=st.booleans(), data=st.data())
def test_solve_property(n, consistent, data):
    p, rows = data.draw(matrices(n, n))
    if consistent:
        # b = A x, so a singular A has several solutions, never none
        x = data.draw(residues(p, n))
        b = [sum(u * v for u, v in zip(r, x)) % p for r in rows]
    else:
        b = data.draw(residues(p, n))
    m = PrimeModulus(p)
    hits = solve_exhaustive(rows, b, p)
    if len(hits) == 1:
        assert solve(ModMatrix(rows, m), ModVector(b, m)).entries == hits[0]
    else:
        with pytest.raises(SingularMatrixError):
            solve(ModMatrix(rows, m), ModVector(b, m))


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=80, deadline=None)
@given(in_span=st.booleans(), data=st.data())
def test_rank_and_rowspace_property(shape, in_span, data):
    nrows, ncols = SHAPES[shape]
    p, rows = data.draw(matrices(nrows, ncols))
    spanned = {tuple(combination(lam, rows, p, ncols))
               for lam in itertools.product(range(p), repeat=nrows)}
    if in_span:
        v = combination(data.draw(residues(p, nrows)), rows, p, ncols)
    else:
        v = data.draw(residues(p, ncols))
    m = PrimeModulus(p)
    a = ModMatrix(rows, m)
    assert p ** rank(a) == len(spanned)
    assert in_rowspace(ModVector(v, m), a) == (tuple(v) in spanned)


# The packed kernel at the edge of its slot width, against elimination one
# entry at a time. A slot is 2*bits(p) + bits(rows) bits wide, and a row
# updated k times holds slots below (k+1) * p^2, so the tightest cases are
# many rows, a large p, and every update as large as it can be.
M61 = 2**61 - 1


def max_growth(n, p):
    """L U for L all ones on and below the diagonal and U with 1 on it
    and p-1 above: eliminating it needs no swap, every multiplier is 1
    and every pivot tail entry is p-1, so each update adds (p-1)^2 to
    each live slot and row i takes i updates, the most the width allows."""
    return [[(1 - j) % p if j <= i else -(i + 1) % p for j in range(n)] for i in range(n)]


def check_against_oracle(rows, p, rnd):
    m = PrimeModulus(p)
    a = ModMatrix(rows, m)
    rk, det = eliminate_plainly(rows, p)
    assert rank(a) == rk
    if a.rows == a.cols:
        assert determinant(a) == det
    ncols = len(rows[0])
    lam = [rnd.randrange(p) for _ in rows]
    inside = [sum(u * r[j] for u, r in zip(lam, rows)) % p for j in range(ncols)]
    outside = [rnd.randrange(p) for _ in range(ncols)]
    assert in_rowspace(ModVector(inside, m), a)
    assert in_rowspace(ModVector(outside, m), a) == (eliminate_plainly(rows + [outside], p)[0] == rk)


class TestPackedKernelBound:
    @pytest.mark.parametrize("n", [2, 3, 31, 63, 64])
    def test_maximal_growth(self, n):
        # 63 rows leave the least headroom: 63 p^2 against 2^128 at 2^61-1
        rows = max_growth(n, M61)
        assert eliminate_plainly(rows, M61) == (n, 1)
        check_against_oracle(rows, M61, random.Random(n))
        check_against_oracle(rows[::-1], M61, random.Random(-n))

    @pytest.mark.parametrize("p", [2, 3, 73, M61])
    def test_all_entries_p_minus_one(self, p):
        rnd = random.Random(p)
        n = 20
        # rank 1: one pivot, then every other row is cleared
        check_against_oracle([[p - 1] * n for _ in range(n)], p, rnd)
        # zero diagonal: column 0's first row reads 0, so the first pivot
        # needs a swap
        rows = [[0 if i == j else p - 1 for j in range(n)] for i in range(n)]
        check_against_oracle(rows, p, rnd)
        # zeros above the anti-diagonal: every pivot comes from the last
        # candidate row, a swap at every column
        rows = [[p - 1 if i + j >= n - 1 else 0 for j in range(n)] for i in range(n)]
        assert rank(ModMatrix(rows, PrimeModulus(p))) == n
        check_against_oracle(rows, p, rnd)

    def test_tall_matrix(self):
        # far more rows than MAX_SHARES, so the slot width grows with them
        rnd = random.Random(200)
        basis = [[rnd.randrange(M61) for _ in range(3)] for _ in range(2)]
        rows = []
        for _ in range(200):
            u, v = rnd.randrange(M61), rnd.randrange(M61)
            rows.append([(u * a + v * b) % M61 for a, b in zip(*basis)])
        check_against_oracle(rows, M61, rnd)
        assert rank(ModMatrix(rows, PrimeModulus(M61))) == 2
        rows[137] = [rnd.randrange(M61) for _ in range(3)]
        check_against_oracle(rows, M61, rnd)
        full = [[M61 - 1] * 3 for _ in range(199)] + [[1, 2, 3]]
        check_against_oracle(full, M61, rnd)

    def test_70_by_70_at_p_2(self):
        rnd = random.Random(70)
        for _ in range(3):
            rows = [[rnd.randrange(2) for _ in range(70)] for _ in range(70)]
            check_against_oracle(rows, 2, rnd)
        rows[69] = [a ^ b for a, b in zip(rows[3], rows[41])]
        check_against_oracle(rows, 2, rnd)
        assert determinant(ModMatrix(rows, PrimeModulus(2))) == 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_solve_at_t_64(self, seed):
        rnd = random.Random(seed)
        m = PrimeModulus(M61)
        for rows in (random_rows(rnd, 64, M61), max_growth(64, M61)):
            x = [rnd.randrange(M61) for _ in range(64)]
            b = [v for (v,) in product(rows, [[v] for v in x], M61)]
            assert solve(ModMatrix(rows, m), ModVector(b, m)).entries == tuple(x)
