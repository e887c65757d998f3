"""Dense complex linear algebra for few-qubit strategy spaces.

States and operators are plain numpy arrays of dimension 2**n with
n <= 4. Qubit 1 is the leftmost tensor factor (most significant bit),
so the basis ket |j1 j2 .. jn> sits at flat index sum_i j_i * 2**(n-i).

Everything here is a pure function of its inputs and safe to share
across threads.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

import numpy as np

from ._value import Frozen, set_field

TWO_PI = 2.0 * math.pi
MAX_QUBITS = 4

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


class SU2Params(Frozen):
    """Angles (theta, alpha, beta) of one player's SU(2) strategy.

    theta must lie in [0, pi] and alpha and beta must be finite; other
    values are rejected. alpha and beta are reduced mod 2*pi on
    construction, so canonically equal strategies compare equal.
    """

    __slots__ = ("theta", "alpha", "beta")
    theta: float
    alpha: float
    beta: float

    def __init__(self, theta: float, alpha: float = 0.0, beta: float = 0.0) -> None:
        theta = float(theta)
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
        alpha, beta = float(alpha), float(beta)
        # an infinite phase would reduce to nan
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError(f"alpha and beta must be finite, got {alpha!r}, {beta!r}")
        set_field(self, "theta", theta)
        set_field(self, "alpha", alpha % TWO_PI)
        set_field(self, "beta", beta % TWO_PI)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta, self.alpha, self.beta)


def su2(angles) -> np.ndarray:
    """(..., 3) array of (theta, alpha, beta) -> (..., 2, 2) array of the
    unitaries [[e^(ia) cos(t/2), i e^(ib) sin(t/2)],
               [i e^(-ib) sin(t/2), e^(-ia) cos(t/2)]], det = 1, row by row."""
    theta, alpha, beta = np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    ea, eb = np.exp(1j * alpha), np.exp(1j * beta)
    # filled entry by entry: one temporary at a time, not four and their
    # stacks
    out = np.empty(theta.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ea * c
    out[..., 0, 1] = 1j * eb * s
    out[..., 1, 0] = 1j * eb.conj() * s
    out[..., 1, 1] = ea.conj() * c
    return out


def tensor(ms: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of the given matrices, left factor first."""
    if len(ms) == 0:
        raise ValueError("tensor() needs at least one factor")
    return reduce(np.kron, ms)


def entangler(n: int) -> np.ndarray:
    """Entangling gate (1^(xn) + i X^(xn)) / sqrt(2) on n qubits."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"player count must be in [1, {MAX_QUBITS}], got {n}")
    # X on every qubit flips every bit of a ket: the anti-diagonal
    # permutation, equal to the Kronecker product of n PAULI_X
    xs = np.eye(2**n, dtype=complex)[::-1]
    return (np.eye(2**n, dtype=complex) + 1j * xs) / math.sqrt(2.0)


def permutation_operator(perm: Sequence[int]) -> np.ndarray:
    """Permutation matrix S that moves qubit i to position perm[i] (0-based).

    Conjugation reorders tensor factors: S (U_1 x .. x U_n) S^T puts
    U_{perm^-1(k)} at position k. Composition follows function
    composition: S_{p o q} = S_p S_q.
    """
    perm = tuple(int(k) for k in perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of {n} positions: {perm}")
    # ket x has bit (n-1-i) = qubit i; S moves it to bit (n-1-perm[i])
    x = np.arange(2**n)
    bits = (x[:, None] >> np.arange(n - 1, -1, -1)) & 1
    y = (bits << (n - 1 - np.array(perm, dtype=int))).sum(axis=1)
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[y, x] = 1.0
    return out


def basis_index(bits: Sequence[int]) -> int:
    """Flat index of the ket |b1 b2 .. bn> (qubit 1 is the MSB)."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | (int(b) & 1)
    return idx
