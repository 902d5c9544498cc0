"""Brent-Kung's pair-and-recurse step written on matrices, the reference
that test_kronalg.py compares `evaluate(brent_kung(n), x, add)` against.
It shares no code with `classic.brent_kung`, which builds wire arrays.
"""

from __future__ import annotations

import numpy as np


def brent_kung_kron_step(x) -> np.ndarray:
    """One pair-and-recurse step of the prefix sum, in matrix form.

    Pairs adjacent entries (with the last entry peeled off when the length
    is odd), recursively prefix-sums the pair totals, and completes the
    even positions from the shifted recursive result.  Equals L_n @ x.
    """
    x = np.asarray(x, dtype=np.int64)
    n = len(x)
    if n <= 1:
        return x.copy()
    if n % 2:
        head = brent_kung_kron_step(x[:-1])
        return np.concatenate((head, [head[-1] + x[-1]]))
    X = x.reshape(n // 2, 2).T  # mat_2(x)
    w = X.sum(axis=0, dtype=np.int64)  # step 1: pair totals
    z = brent_kung_kron_step(w)  # step 2: recurse
    Y = np.empty_like(X)
    Y[1, :] = z
    Y[0, 0] = X[0, 0]
    Y[0, 1:] = X[0, 1:] + z[:-1]  # step 3: complete the first row
    return Y.T.reshape(-1)  # vec(Y): stack the columns
