"""Exact integer linear algebra behind the triangular decomposition identities.

Matrices are dense ``numpy`` int64 arrays; every check here is combinatorial
and compared bit-exactly, never with a float tolerance.  The magnitudes stay
tiny (entries of the triangular constructions are 0/1 and test vectors are
small), so int64 is exact throughout; a float or bool input raises ValueError.

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

from .core import _as_int, _int_array

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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two integer matrices, exact in int64."""
    return np.kron(_int_array("a", a), _int_array("b", b))


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
    serial fold.  ValueError for an x that is not integers.
    """
    x = _int_array("x", x)
    if _as_int("n1", n1) * _as_int("n2", n2) != len(x):
        raise ValueError(f"n1*n2 = {n1 * n2} != len(x) = {len(x)}")
    X = x.reshape(n1, n2).T  # mat_{n2}(x): columns are the blocks
    term1 = np.cumsum(X, axis=0, dtype=np.int64)  # L_{n2} @ X
    colsums = X.sum(axis=0, dtype=np.int64)
    excl = np.concatenate(([0], np.cumsum(colsums[:-1], dtype=np.int64)))
    return (term1 + excl[np.newaxis, :]).T.reshape(-1)  # vec: stack the columns
