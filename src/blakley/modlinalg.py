"""Exact dense linear algebra over GF(p).

Everything here rests on one kernel, _echelon: forward elimination to
row echelon form with each row packed into one Python int, entry j in
slot j of S = 2*bits(p) + bits(rows) bits. Eliminating a pivot from a
row is then one big-int multiply-add in C, and S leaves room for every
update without reducing, so no slot carries into the next (the bound is
in _echelon's docstring). An n x n elimination costs about n^2/2
multiply-adds, against about n^3/3 multiply-mods entry by entry.
Inverses come from pow(x, -1, p). Each question is one kernel run on
plain int rows: determinant and rank read the pivots, solve
back-substitutes, and in_rowspace eliminates the transposed system.
ModMatrix keeps its entries as row tuples and ModVector as one tuple,
canonical residues in [0, p); both are immutable _Value objects, so the
kernel takes their entries as they are.
"""

from ._value import _Value, _set
from .errors import DimensionMismatchError, ModulusMismatchError, NotSquareError, SingularMatrixError
from .field import PrimeModulus


class ModMatrix(_Value):
    """A matrix of canonical residues mod a shared prime, as row tuples."""

    __slots__ = _fields = ("entries", "modulus")

    def __init__(self, rows, modulus: PrimeModulus):
        data = [tuple(r) for r in rows]
        if not data or not data[0]:
            raise DimensionMismatchError("matrix needs at least one row and one column")
        if any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatchError("ragged rows")
        p = modulus.p
        _set(self, "entries", tuple(tuple(v % p for v in r) for r in data))
        _set(self, "modulus", modulus)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, r)) for r in self.entries)
        return f"ModMatrix[{body}] mod {self.modulus.p}"


class ModVector(_Value):
    """A vector of canonical residues mod a shared prime."""

    __slots__ = _fields = ("entries", "modulus")

    def __init__(self, values, modulus: PrimeModulus):
        p = modulus.p
        _set(self, "entries", tuple(v % p for v in values))
        _set(self, "modulus", modulus)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"ModVector{self.entries} mod {self.modulus.p}"


def _pack(values, s: int) -> int:
    """values[j] in slot j, s bits wide (the lowest slot holds values[0])."""
    acc = 0
    for v in reversed(values):
        acc = (acc << s) | v
    return acc


def _echelon(rows, p: int, ncols: int) -> tuple:
    """Forward-eliminate rows to row echelon form mod p.

    rows is a sequence of equal-length sequences of canonical residues;
    it is not modified. Only the first ncols columns may hold a pivot, so
    the right-hand side of an augmented system can never act as one.
    Returns (tails, det). tails[k] holds the k-th pivot row's entries
    right of its pivot column, divided by the pivot, so the rank is
    len(tails). det is the product of the pivots with the sign of the row
    swaps, the determinant when a square input has full rank.

    Layout: row i is one int with entry j in slot j, bits [j*S, (j+1)*S),
    where S = 2*bits(p) + bits(len(rows)). Eliminating a pivot from a row
    whose pivot-column slot reads f is one big-int multiply-add in C,
    row += (p - f) * pivot, where pivot packs the pivot's tail in the
    same slots. Only two things reduce mod p: the one slot read per row
    and column that chooses the pivot and gives f, and each pivot row,
    once, when its tail is unpacked and divided by the pivot.

    No carry: a slot starts below p, and an update adds (p - f) * w
    <= (p-1)^2 to it, so after k updates it is below (k+1) * p^2. A row
    gets at most len(rows) - 1 updates before it is a pivot or the
    kernel ends, so every slot stays below len(rows) * p^2 < 2^S. The
    pivot-column slot and those left of it are not updated and never
    read again.

    Cost for n x n: about n^2/2 multiply-adds on ints of n slots, against
    about n^3/3 Python-level multiply-mods entry by entry, plus O(n^2)
    word-sized operations to pack, read and unpack.
    """
    nrows, width = len(rows), len(rows[0])
    s = 2 * p.bit_length() + nrows.bit_length()
    mask = (1 << s) - 1
    packed = [_pack(r, s) for r in rows]
    tails = []
    det = 1
    for c in range(ncols):
        rk = len(tails)
        shift = c * s
        for piv in range(rk, nrows):
            f = ((packed[piv] >> shift) & mask) % p
            if f:
                break
        else:
            continue
        if piv != rk:
            packed[rk], packed[piv] = packed[piv], packed[rk]
            det = -det
        det = det * f % p
        inv = pow(f, -1, p)
        r = packed[rk] >> shift
        tail = []
        for _ in range(c + 1, width):
            r >>= s
            tail.append((r & mask) * inv % p)
        tails.append(tail)
        if rk + 1 == nrows:
            break
        pivot = _pack(tail, s) << (shift + s)
        for i in range(rk + 1, nrows):
            g = ((packed[i] >> shift) & mask) % p
            if g:
                packed[i] += (p - g) * pivot
    return tails, det


def _solve(rows, p: int, n: int):
    """The X with A X = B mod p, for the n rows of [A | B], as one list of
    n residues per column of B; None when A is singular."""
    tails, _ = _echelon(rows, p, n)
    if len(tails) < n:
        return None
    # Full rank puts pivot i in column i: tail i holds columns i+1.. of [A | B].
    cols = []
    for b in range(n, len(rows[0])):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            x[i] = (tails[i][b - i - 1] - sum(u * v for u, v in zip(tails[i], x[i + 1:]))) % p
        cols.append(x)
    return cols


def _in_rowspace(v, rows, p: int) -> bool:
    """Whether v is a linear combination of rows mod p.

    One elimination of the augmented system rows^T y = v, whose
    right-hand-side column may hold a pivot. The system is consistent,
    so v is in the row space, iff none does. A pivot there is the only
    one with an empty tail.
    """
    tails, _ = _echelon([col + (x,) for col, x in zip(zip(*rows), v)], p, len(rows) + 1)
    return not tails or len(tails[-1]) > 0


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
    tails, det = _echelon(m.entries, m.modulus.p, m.cols)
    return det if len(tails) == m.rows else 0


def rank(m: ModMatrix) -> int:
    return len(_echelon(m.entries, m.modulus.p, m.cols)[0])


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
    rows = [r + (bv,) for r, bv in zip(a.entries, b.entries)]
    x = _solve(rows, modulus.p, a.rows)
    if x is None:
        raise SingularMatrixError("matrix is singular mod p")
    return ModVector(x[0], modulus)


def in_rowspace(v: ModVector, m: ModMatrix) -> bool:
    """Whether v is a linear combination of the rows of m."""
    _common_modulus(v, m)
    if len(v) != m.cols:
        raise DimensionMismatchError(f"vector length {len(v)} vs {m.cols} columns")
    return _in_rowspace(v.entries, m.entries, m.modulus.p)
