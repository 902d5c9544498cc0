"""Exact integer linear algebra behind the triangular decomposition identities.

Matrices are dense ``numpy`` int64 arrays; every check here is combinatorial
and compared bit-exactly, never with a float tolerance.  int64 is exact where
it is checked: `kron` and `prefix_via_kron` bound their results from the
inputs (max|a| * max|b|, the sum of |x|) and raise ValueError when the bound
leaves int64, as they do for a float or bool input.

The inclusive prefix sum of a vector x is L @ x with L the lower triangular
all-ones matrix.  L factors through any splitting n = n1 * n2::

    L_n = L_n1 (x) L_n2 + Lminus_n1 (x) Uminus_n2
        = I_n1 (x) L_n2 + Lminus_n1 (x) ones

with ``(x)`` the Kronecker product; the equivalent upper form and the
all-ones/strict-lower proof identity are verified by :func:`decomposition_check`.
Evaluating the second form column-blockwise is a two-term recursion on
blocks, which is what the circuit generators exploit.
"""

from __future__ import annotations

import numpy as np

from .core import _INT64_MAX, _as_int, _int_array

_MATRICES = {  # kind -> constructor of the n x n matrix
    "L": lambda n: np.tril(np.ones((n, n), dtype=np.int64)),
    "U": lambda n: np.triu(np.ones((n, n), dtype=np.int64)),
    "Lminus": lambda n: np.tril(np.ones((n, n), dtype=np.int64), -1),
    "Uminus": lambda n: np.triu(np.ones((n, n), dtype=np.int64), 1),
    "I": lambda n: np.eye(n, dtype=np.int64),
    "Ones": lambda n: np.ones((n, n), dtype=np.int64),
}


def build(kind: str, n: int) -> np.ndarray:
    """Triangular all-ones / identity / all-ones matrix constructors."""
    if _as_int("n", n) < 1:
        raise ValueError("n must be >= 1")
    if kind not in _MATRICES:
        raise ValueError(f"unknown kind {kind!r}; expected one of {tuple(_MATRICES)}")
    return _MATRICES[kind](n)


def _max_abs(a: np.ndarray) -> int:
    """The largest |entry| of an int64 array as a Python int (no wrap), 0 if empty."""
    return max(-int(a.min()), int(a.max())) if a.size else 0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two integer matrices, exact in int64.

    ValueError for a non-integer input, or when max|a| * max|b| leaves int64.
    """
    a, b = _int_array("a", a), _int_array("b", b)
    if (bound := _max_abs(a) * _max_abs(b)) > _INT64_MAX:
        raise ValueError(f"a, b: max|a| * max|b| = {bound} is above the int64 "
                         f"maximum {_INT64_MAX}")
    return np.kron(a, b)


def decomposition_check(n1: int, n2: int) -> bool:
    """Verify the two-term Kronecker decompositions of L_n and U_n exactly.

    Requires n1, n2 >= 2.  Checks, for n = n1*n2:

    1. L_n == L_n1 (x) L_n2 + Lminus_n1 (x) Uminus_n2
    2. L_n == I_n1 (x) L_n2 + Lminus_n1 (x) Ones_n2
    3. U_n == U_n1 (x) U_n2 + Uminus_n1 (x) Lminus_n2
    4. U_n == U_n1 (x) Ones_n2 - I_n1 (x) Lminus_n2
    """
    if _as_int("n1", n1) < 2 or _as_int("n2", n2) < 2:
        raise ValueError("decomposition requires n1, n2 >= 2")
    n = n1 * n2
    L, U = build("L", n), build("U", n)
    checks = (
        np.array_equal(L, kron(build("L", n1), build("L", n2))
                       + kron(build("Lminus", n1), build("Uminus", n2))),
        np.array_equal(L, kron(build("I", n1), build("L", n2))
                       + kron(build("Lminus", n1), build("Ones", n2))),
        np.array_equal(U, kron(build("U", n1), build("U", n2))
                       + kron(build("Uminus", n1), build("Lminus", n2))),
        np.array_equal(U, kron(build("U", n1), build("Ones", n2))
                       - kron(build("I", n1), build("Lminus", n2))),
    )
    return all(checks)


def prefix_via_kron(x, n1: int, n2: int) -> np.ndarray:
    """Inclusive prefix sums of x through the split L_n = I(x)L + Lminus(x)ones.

    Term one applies L_n2 to each column block (n1 independent prefix sums
    of length n2).  Term two broadcasts the exclusive prefix sums of the
    column totals; it is computed as column sums followed by an exclusive
    scan, never as a full n x n multiply.  Exact integers; must equal the
    serial fold.  ValueError for an x that is not a 1-D array of integers,
    or whose sum of |x|, which bounds every prefix sum, leaves int64, and
    for an n1 or n2 below 1.
    """
    x = _int_array("x", x)
    if x.ndim != 1:
        raise ValueError(f"x: expected a 1-D array, got shape {x.shape}")
    n1, n2 = _as_int("n1", n1), _as_int("n2", n2)
    if min(n1, n2) < 1:
        raise ValueError(f"n1 and n2 must be >= 1, got n1 = {n1}, n2 = {n2}")
    if n1 * n2 != len(x):
        raise ValueError(f"n1*n2 = {n1 * n2} != len(x) = {len(x)}")
    if (bound := sum(map(abs, x.tolist()))) > _INT64_MAX:
        raise ValueError(f"x: sum of |x| = {bound} is above the int64 maximum {_INT64_MAX}")
    X = x.reshape(n1, n2).T  # mat_{n2}(x): columns are the blocks
    term1 = np.cumsum(X, axis=0, dtype=np.int64)  # L_{n2} @ X
    colsums = X.sum(axis=0, dtype=np.int64)
    excl = np.concatenate(([0], np.cumsum(colsums[:-1], dtype=np.int64)))
    return (term1 + excl[np.newaxis, :]).T.reshape(-1)  # vec: stack the columns
