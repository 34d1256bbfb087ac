"""Exact dense linear algebra over GF(p).

Matrices are small (share systems are at most 64 x 64), so everything
here rests on one kernel: forward elimination to row echelon form on
lists of Python ints, with inverses from pow(x, -1, p). determinant,
rank and in_rowspace read the pivots; solve back-substitutes. Entries
are canonical residues in [0, p).
"""

from .errors import DimensionMismatchError, ModulusMismatchError, NotSquareError, SingularMatrixError
from .field import PrimeModulus


class ModMatrix:
    """A row-major matrix of canonical residues mod a shared prime."""

    __slots__ = ("entries", "rows", "cols", "modulus")

    def __init__(self, rows, modulus: PrimeModulus):
        data = [list(r) for r in rows]
        if not data or not data[0]:
            raise DimensionMismatchError("matrix needs at least one row and one column")
        cols = len(data[0])
        if any(len(r) != cols for r in data):
            raise DimensionMismatchError("ragged rows")
        p = modulus.p
        self.entries = tuple(v % p for r in data for v in r)
        self.rows = len(data)
        self.cols = cols
        self.modulus = modulus

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list:
        """Fresh mutable row lists, safe to eliminate in place."""
        return [list(self.row(i)) for i in range(self.rows)]

    def append_row(self, values) -> "ModMatrix":
        return ModMatrix(self.to_rows() + [list(values)], self.modulus)

    def __eq__(self, other) -> bool:
        if isinstance(other, ModMatrix):
            return (self.entries, self.rows, self.cols, self.modulus) == (
                other.entries, other.rows, other.cols, other.modulus)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries, self.rows, self.cols, self.modulus))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, self.row(i))) for i in range(self.rows))
        return f"ModMatrix[{body}] mod {self.modulus.p}"


class ModVector:
    """A vector of canonical residues mod a shared prime."""

    __slots__ = ("entries", "modulus")

    def __init__(self, values, modulus: PrimeModulus):
        p = modulus.p
        self.entries = tuple(v % p for v in values)
        self.modulus = modulus

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, ModVector):
            return self.entries == other.entries and self.modulus == other.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries, self.modulus))

    def __repr__(self) -> str:
        return f"ModVector{self.entries} mod {self.modulus.p}"


def _echelon(rows: list, p: int, ncols: int) -> tuple:
    """Forward-eliminate rows in place to row echelon form mod p.

    Only the first ncols columns may hold a pivot, so the right-hand side
    of an augmented system can never act as one. Returns (rank, det): the
    first rank rows are then the pivot rows, with the entries right of
    each pivot divided by it, and det is the product of the pivots with
    the sign of the row swaps, the determinant when a square input has
    full rank. Only the columns right of a pivot are updated in the rows
    below it, about n^3/3 multiply-mods for n x n, so the entries of those
    rows in pivot columns are stale and must not be read.
    """
    nrows = len(rows)
    det = 1
    rk = 0
    for c in range(ncols):
        if rk == nrows:
            break
        piv = rk
        while piv < nrows and not rows[piv][c]:
            piv += 1
        if piv == nrows:
            continue
        if piv != rk:
            rows[rk], rows[piv] = rows[piv], rows[rk]
            det = -det
        pivval = rows[rk][c]
        det = det * pivval % p
        inv = pow(pivval, -1, p)
        tail = [v * inv % p for v in rows[rk][c + 1:]]
        rows[rk][c + 1:] = tail
        for r in rows[rk + 1:]:
            f = r[c]
            if f:
                r[c + 1:] = [(v - f * w) % p for v, w in zip(r[c + 1:], tail)]
        rk += 1
    return rk, det


def _common_modulus(a, b) -> PrimeModulus:
    if a.modulus != b.modulus:
        raise ModulusMismatchError(f"mixed moduli {a.modulus.p} and {b.modulus.p}")
    return a.modulus


def determinant(m: ModMatrix) -> int:
    """Determinant mod p.

    Raises:
        NotSquareError: if the matrix is not square.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"determinant of a {m.rows}x{m.cols} matrix")
    rk, det = _echelon(m.to_rows(), m.modulus.p, m.cols)
    return det if rk == m.rows else 0


def rank(m: ModMatrix) -> int:
    return _echelon(m.to_rows(), m.modulus.p, m.cols)[0]


def solve(a: ModMatrix, b: ModVector) -> ModVector:
    """Unique solution x of A x = b (mod p).

    Raises:
        DimensionMismatchError: if A is not square or b has the wrong length.
        SingularMatrixError: if det(A) = 0, so no unique solution exists.
    """
    modulus = _common_modulus(a, b)
    if a.rows != a.cols:
        raise DimensionMismatchError(f"coefficient matrix is {a.rows}x{a.cols}, not square")
    if len(b) != a.rows:
        raise DimensionMismatchError(f"b has length {len(b)}, expected {a.rows}")
    n, p = a.rows, modulus.p
    rows = a.to_rows()
    for r, bv in zip(rows, b.entries):
        r.append(bv)
    if _echelon(rows, p, n)[0] < n:
        raise SingularMatrixError("matrix is singular mod p")
    # Full rank puts pivot i in column i, with row i right of it divided by it.
    x = [0] * n
    for i in range(n - 1, -1, -1):
        r = rows[i]
        x[i] = (r[n] - sum(u * v for u, v in zip(r[i + 1:n], x[i + 1:]))) % p
    return ModVector(x, modulus)


def in_rowspace(v: ModVector, m: ModMatrix) -> bool:
    """Whether v is a linear combination of the rows of m."""
    _common_modulus(v, m)
    if len(v) != m.cols:
        raise DimensionMismatchError(f"vector length {len(v)} vs {m.cols} columns")
    return rank(m) == rank(m.append_row(v.entries))
