"""Exact rational linear algebra on small dense matrices, and the two rules
that decide between exact and float arithmetic.

Matrices are numpy arrays with ``dtype=object`` holding ``fractions.Fraction``
(or plain ``int``) entries.  Everything here is meant for the desk scale of
this package (dimensions ~10), where exact Gaussian elimination is cheap and
the identities being verified are exact.  Elimination runs on Python ints:
a rational row is a list of ints over one positive int denominator
(`integer_row` forms it from ints, Fractions or floats, each at its exact
value).  `pivot`, the one Gauss-Jordan step, steps a tableau of ints over
one common denominator: `rref`, which returns rows in lowest terms, and
`geometry`'s simplex share it; `nullspace` forms Fractions only for the
entries of its basis.
Determinants are taken on integers: `bareiss`, Bareiss fraction-free
elimination, gives the determinant of an integer matrix, whose entries
`integer_row` forms from a rational matrix's flat values.
`laplacian` uses it to decide the invertibility of core blocks built
elsewhere and to take the off-cycle minors of cycle coefficients.

A result is exact iff all its inputs are: `common` passes a call's operands
on unchanged when every one is an object array, and otherwise converts all
of them to float64, so one expression serves both modes.  Comparisons take
their tolerance from `tolerance`: 0 on exact values, so exact checks test
equality, and otherwise the caller's `tol` or the site's named float
constant, relative to a scale.  A `tol` that is not finite and >= 0 is
refused (`check_tol`).  Exact values that float64 cannot hold, beyond its
largest value or nonzero but rounding to 0, are refused where they become
floats (`to_float`, `floats`), and so are exact values that must become
positive finite float64 values and do not (`positive_floats`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import FloatRangeError, SemanticError

ZERO = Fraction(0)
ONE = Fraction(1)


def is_exact(m: np.ndarray) -> bool:
    """True when `m` is an object-dtype (rational) matrix."""
    return m.dtype == object


def matrix(rows) -> np.ndarray:
    """Build an object matrix of Fractions from nested sequences."""
    return np.array([[Fraction(v) for v in row] for row in rows], dtype=object)


def vector(entries) -> np.ndarray:
    return np.array([Fraction(v) for v in entries], dtype=object)


def zeros(nrows: int, ncols: int) -> np.ndarray:
    m = np.empty((nrows, ncols), dtype=object)
    m[:] = ZERO
    return m


def common(*operands: np.ndarray) -> tuple[np.ndarray, ...]:
    """The operands unchanged when all are exact, otherwise all as float64."""
    if all(is_exact(m) for m in operands):
        return operands
    return tuple(np.asarray(m, dtype=float) for m in operands)


def check_tol(tol: float | None) -> None:
    """Refuse a relative tolerance that is not None or finite and >= 0."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise SemanticError(f"tol must be finite and >= 0, got {tol!r}")


def tolerance(values: np.ndarray, default: float, scale, tol: float | None = None):
    """Absolute tolerance for comparing `values`: 0 when they are exact,
    otherwise the relative tolerance `tol` (the site's `default` when None)
    times `scale()`.  The scale is computed only for float values, so an
    exact check never pays for one."""
    check_tol(tol)
    if is_exact(values):
        return 0
    return (default if tol is None else tol) * scale()


def to_float(value, what: str) -> float:
    """float(value), refused (FloatRangeError) where float64 cannot hold it:
    not finite, beyond the largest float64, or nonzero and rounding to 0;
    `what` names the value in the message."""
    try:
        f = float(value)
    except OverflowError:  # an exact value beyond float64
        f = math.inf
    if not math.isfinite(f) or (value and not f):
        raise FloatRangeError(f"{what} is outside the float64 range")
    return f


def floats(values: np.ndarray, what: str) -> np.ndarray:
    """A read-only float64 copy of an array, with the values and the memory
    layout np.asarray(values, dtype=float) gives (a matrix product's
    rounding depends on the layout); an exact entry `to_float` refuses is
    refused."""
    if is_exact(values):
        for v in values.flat:
            to_float(v, what)
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def positive_floats(values, what: str) -> np.ndarray:
    """`values` as float64, refused (FloatRangeError) unless each becomes a
    positive finite float64 value; `what` names them in the message."""
    try:
        out = [float(v) for v in values]
    except OverflowError:  # an exact value beyond float64
        out = [math.inf]
    if not all(0 < v < math.inf for v in out):
        raise FloatRangeError(f"{what} leave the float64 range")
    return np.array(out, dtype=float)


def integer_row(values) -> tuple[list[int], int]:
    """A row of ints, Fractions or floats, each taken at its exact value, as
    ints over one positive denominator, the lcm of the entries' own."""
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except AttributeError:  # numpy integer scalars, which object arrays may hold
        ratios = [Fraction(v).as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def pivot(rows: list[list[int]], d: int, i: int, k: int) -> int:
    """One integer-preserving Gauss-Jordan step (Edmonds 1967; Bareiss 1968)
    on a tableau of ints over one positive denominator d, on the entry p in
    row i, column k.  Row i, negated if p < 0, stays; every other row a
    becomes (|p| a - a[k] row_i) // d, exact by Sylvester's identity when
    the tableau began as ints over 1; |p| is returned as the new d."""
    top = rows[i]
    p = top[k]
    if p < 0:
        p = -p
        top[:] = [-v for v in top]
    for r, row in enumerate(rows):
        if r != i:
            f = row[k]
            row[:] = [(p * v - f * u) // d for v, u in zip(row, top)]
    return p


def rref(m: np.ndarray) -> tuple[list[list[int]], list[int], list[int]]:
    """Reduced row echelon form as (rows, dens, pivot columns), row i being
    the ints rows[i] over the positive denominator dens[i], in lowest terms.
    `pivot` steps the rows of m, each scaled to ints, over one denominator."""
    rows = [integer_row(values)[0] for values in m.tolist()]
    d, pivots = 1, []
    for col in range(m.shape[1]):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if i is not None:
            rows[r], rows[i] = rows[i], rows[r]
            d = pivot(rows, d, r, col)
            pivots.append(col)
    gcds = [math.gcd(d, *row) for row in rows]
    return [[v // g for v in row] for row, g in zip(rows, gcds)], [d // g for g in gcds], pivots


def nullspace(m: np.ndarray) -> np.ndarray:
    """Basis of ker(m) as columns of an ncols x dim matrix of Fractions."""
    ncols = m.shape[1]
    rows, dens, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = zeros(ncols, len(free))
    for j, fc in enumerate(free):
        basis[fc, j] = ONE
        for i, pc in enumerate(pivots):
            basis[pc, j] = Fraction(-rows[i][fc], dens[i])
    return basis


def bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss (1968)
    fraction-free elimination: each step divides by the previous pivot,
    which is exact, so every entry stays an integer (a minor of the input)
    and the last pivot is the determinant, up to the sign that each row
    swap flips.  `rows` is overwritten."""
    sign, prev = 1, 1
    for k in range(len(rows)):
        if not rows[k][k]:  # swap in the first row below with a nonzero entry
            i = next((i for i in range(k + 1, len(rows)) if rows[i][k]), None)
            if i is None:
                return 0
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for row in rows[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [
                (p * v - f * u) // prev for v, u in zip(row[k + 1 :], top[k + 1 :])
            ]
        prev = p
    return sign * prev
