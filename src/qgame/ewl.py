"""EWL quantization of binary strategic-form games.

A quantum game is a binary classical game plus one strategy-space
restriction per player. Players pick SU(2) unitaries, the shared state
is J^dag (U_1 x .. x U_n) J |0..0>, and payoffs are expectations of the
diagonal observables carrying the classical payoff tensor.

Payoffs are evaluated through a real quadratic form (Landsburg,
"Quantum Game Theory", Notices AMS 51(4), 2004): writing
U = q0 1 + q1 iZ + q2 iX + q3 iY with q a unit quaternion, each payoff
is a fixed real tensor contracted with every player's ten symmetric
features q_k q_l (k <= l).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from ._value import Frozen, set_field
from .games import ClassicalGame
from .linalg import MAX_QUBITS, TWO_PI, SU2Params, entangler, su2


class StrategySpace(Enum):
    """Restriction of one player's unitary strategies.

    All four spaces contain the one-parameter family U(theta, 0, 0),
    which is what embeds the classical mixed strategies. Membership is
    an exact zero test on the canonical (mod 2*pi) angles, so there is
    no tolerance ambiguity.
    """

    FULL_SU2 = "full"
    TWO_PARAM_ALPHA = "alpha"  # beta frozen at 0
    TWO_PARAM_BETA = "beta"  # alpha frozen at 0
    ONE_PARAM = "one"  # alpha = beta = 0

    @property
    def alpha_frozen(self) -> bool:
        return self in (StrategySpace.TWO_PARAM_BETA, StrategySpace.ONE_PARAM)

    @property
    def beta_frozen(self) -> bool:
        return self in (StrategySpace.TWO_PARAM_ALPHA, StrategySpace.ONE_PARAM)


_SPACE_NAMES = {
    "full": StrategySpace.FULL_SU2,
    "su2": StrategySpace.FULL_SU2,
    "alpha": StrategySpace.TWO_PARAM_ALPHA,
    "two-param-alpha": StrategySpace.TWO_PARAM_ALPHA,
    "beta": StrategySpace.TWO_PARAM_BETA,
    "two-param-beta": StrategySpace.TWO_PARAM_BETA,
    "one": StrategySpace.ONE_PARAM,
    "one-param": StrategySpace.ONE_PARAM,
}


def parse_space(name: str) -> StrategySpace:
    try:
        return _SPACE_NAMES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown strategy space {name!r}; use one of {sorted(_SPACE_NAMES)}")


# quaternion components (k, l) of the ten features q_k q_l, k <= l, in
# `strategy_features` order; read-only, as every call shares them
_ROW, _COL = np.triu_indices(4)
_ROW.setflags(write=False)
_COL.setflags(write=False)

# (theta, alpha, beta) of the quaternion units 1, iZ, iX, iY; read-only,
# as every game shares them
_UNIT_ANGLES = np.array(
    [(0.0, 0.0, 0.0), (0.0, 0.5 * math.pi, 0.0), (math.pi, 0.0, 0.0), (math.pi, 0.0, 1.5 * math.pi)]
)
_UNIT_ANGLES.setflags(write=False)


def _unit_amplitudes(n: int) -> np.ndarray:
    """(4^n, 2^n) amplitudes <j| J^dag (B_a1 x .. x B_an) J |0..0> for the
    quaternion units B, with each player's four units applied to its own
    qubit."""
    J = entangler(n)
    units = su2(_UNIT_ANGLES)
    state = J[:, 0].reshape((2,) * n)
    for _ in range(n):
        state = np.tensordot(state, units, axes=([0], [2]))
    order = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    return state.transpose(order).reshape(4**n, 2**n) @ J.conj()


def _core_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(entry, weight) of every term of the n-player payoff core: terms
    come ket by ket, 4^n a ket, and term t adds d[t // 4^n] * weight[t]
    to the flat core entry `entry[t]` of a player with payoff diagonal
    d. Accumulating them in order fixes the summation order."""
    amps = _unit_amplitudes(n)
    # B_a maps |0..0> and |1..1> to complementary kets up to phase, so
    # every row has one nonzero amplitude (the rest are rounding residue
    # below 1e-15) on ket[a], and Re(amps diag(d) amps^H) only pairs rows
    # on the same ket; a stable sort groups each ket's 2^n rows, in
    # ascending order, into one row of `rows`
    ket = np.abs(amps).argmax(axis=1)
    rows = np.argsort(ket, kind="stable").reshape(2**n, 2**n)
    z = amps[rows, ket[rows]]
    del amps  # so that forming the terms holds less than summing them
    weight = (z[:, :, None] * z[:, None, :].conj()).real.ravel()
    # pair (a, b) adds to the entry whose decimal digit k holds the base-4
    # digits k of a and b, one player's two units, folded onto their upper
    # triangle, C[k, l] + C[l, k]
    fold = np.zeros((4, 4), dtype=int)
    fold[_ROW, _COL] = fold[_COL, _ROW] = np.arange(10)
    entry = np.zeros((2**n,) * 3, dtype=int)
    for k in range(n):
        unit = rows // 4**k % 4
        entry += (10**k * fold)[unit[:, :, None], unit[:, None, :]]
    return entry.ravel(), weight


def _payoff_core(diags: np.ndarray) -> np.ndarray:
    """Real tensor C of shape (n, 10, .., 10) with
    u_i = sum C[i, p_1, .., p_n] f_1[p_1] .. f_n[p_n] for the features
    f of `strategy_features`."""
    n = diags.shape[0]
    entry, weight = _core_terms(n)
    core = np.empty((n, 10**n))
    for row, d in zip(core, diags):
        row[:] = np.bincount(entry, np.repeat(d, 4**n) * weight, minlength=10**n)
    return core.reshape((n,) + (10,) * n)


def strategy_features(angles) -> np.ndarray:
    """(m, 3) array of (theta, alpha, beta) -> (m, 10) features q_k q_l,
    k <= l, of the quaternions q = (c cos a, c sin a, s cos b, -s sin b)
    with c, s = cos(theta/2), sin(theta/2)."""
    theta, alpha, beta = np.asarray(angles, dtype=float).reshape(-1, 3).T
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    q = (c * np.cos(alpha), c * np.sin(alpha), s * np.cos(beta), -s * np.sin(beta))
    # each product written straight into its column: at most 16 float64 a
    # row are held, the output, the four components, c and s
    out = np.empty((len(theta), 10))
    for j, (k, l) in enumerate(zip(_ROW.tolist(), _COL.tolist())):
        np.multiply(q[k], q[l], out=out[:, j])
    return out


# Bytes of one work block: the payoff tables or samples that the search
# and the sampled checks form at once. Smaller blocks cost more Python
# overhead per profile.
BLOCK_BYTES = 1 << 20


def checked_spaces(base: ClassicalGame, spaces=None) -> tuple[StrategySpace, ...]:
    """The strategy spaces of an `EwlGame` of `base`, found without its
    payoff core: `spaces` as a tuple, or full SU(2) for every player when
    None. Raises ValueError unless `base` is a binary game of at most
    MAX_QUBITS players and there is one space per player."""
    n = base.n_players
    if any(m != 2 for m in base.shape):
        raise ValueError("EWL quantization needs a binary game")
    if n > MAX_QUBITS:
        raise ValueError(f"at most {MAX_QUBITS} players supported")
    spaces = (StrategySpace.FULL_SU2,) * n if spaces is None else tuple(spaces)
    if len(spaces) != n:
        raise ValueError("need one strategy space per player")
    return spaces


class EwlGame(Frozen):
    """Binary classical game with per-player strategy-space restrictions.

    The real payoff core is derived once at construction; the object is
    immutable afterwards and safe to share. Games are equal only when
    they are the same object.
    """

    __slots__ = ("base", "spaces", "payoff_core")
    base: ClassicalGame
    spaces: tuple[StrategySpace, ...]
    payoff_core: np.ndarray

    def __init__(self, base: ClassicalGame, spaces: Sequence[StrategySpace] | None = None):
        n = base.n_players
        spaces = checked_spaces(base, spaces)
        # the row-major payoff tensor is in ket order, so player i's column
        # is the diagonal of their payoff observable; a view unless the
        # tensor is stored out of row-major order
        diags = base.payoffs.reshape(-1, n).T
        core = _payoff_core(diags)
        core.setflags(write=False)
        set_field(self, "base", base)
        set_field(self, "spaces", spaces)
        set_field(self, "payoff_core", core)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"EwlGame(base={self.base!r}, spaces={self.spaces!r})"

    def __reduce__(self):
        return EwlGame, (self.base, self.spaces)

    @property
    def n_players(self) -> int:
        return self.base.n_players


def game_bytes(players: int) -> int:
    """Bytes building an `EwlGame` of `players` players holds: its payoff
    core and a row of it as the row is summed, and 32 bytes a core term
    (its entry and weight, and a player's two products)."""
    return 8 * (players + 1) * 10**players + 32 * 8**players


def _angle_payoffs(game: EwlGame, angles: np.ndarray) -> np.ndarray:
    """(P, n) payoffs of the profiles in a (P, n, 3) angle array, taken
    as given (phases are not reduced, spaces not checked)."""
    n = game.n_players
    feats = strategy_features(angles.reshape(-1, 3)).reshape(-1, n, 10)
    # per-profile Kronecker products of the first and the last players'
    # features; splitting in halves keeps the intermediates at P * 10^(n/2).
    # The left half is column-major: BLAS rounds `left @ c` differently for
    # a row-major one, which moves `lift-verify`'s deviations
    half = n // 2
    left, right = _kron_rows(feats[:, :half], "F"), _kron_rows(feats[:, half:], "C")
    core = game.payoff_core.reshape(n, left.shape[1], right.shape[1])
    payoffs = []
    for c in core:
        # taken in place, and freed before the next player's is formed
        terms = left @ c
        terms *= right
        payoffs.append(terms.sum(axis=1))
        del terms
    return np.stack(payoffs, axis=1)


def _kron_rows(feats: np.ndarray, order: str) -> np.ndarray:
    """(P, k, 10) -> (P, 10^k) in `order` ("C" or "F"): each row's
    Kronecker product over k, one batched outer product a factor that
    `np.matmul` writes in place."""
    out = np.ones((len(feats), 1))
    for k in range(feats.shape[1]):
        step = np.empty((len(feats), out.shape[1] * 10), order=order)
        np.matmul(out[:, :, None], feats[:, k, None, :], out=step.reshape(*out.shape, 10))
        out = step
    return out


def unrestricted_payoffs(game: EwlGame, params: Sequence[SU2Params]) -> np.ndarray:
    """Payoff vector ignoring the declared strategy spaces."""
    if len(params) != game.n_players:
        raise ValueError("need one strategy per player")
    return _angle_payoffs(game, np.array([[p.as_tuple() for p in params]]))[0]


def two_param_payoff_closed_form(p1, p2, rstp) -> tuple[float, float]:
    """Both players' payoffs in the column-swapped prisoner's dilemma
    quantum game, for two-parameter strategies (theta, alpha).

    `rstp` is the payoff quadruple (R, S, T, P); observables are
    diag(S, R, P, T) and diag(T, R, P, S). Agrees with the full matrix
    simulation to 1e-12.
    """
    t1, a1 = _theta_alpha(p1)
    t2, a2 = _theta_alpha(p2)
    R, S, T, P = (float(v) for v in rstp)
    c1, s1 = math.cos(t1 / 2), math.sin(t1 / 2)
    c2, s2 = math.cos(t2 / 2), math.sin(t2 / 2)
    x00 = (math.cos(a1 + a2) * c1 * c2) ** 2
    x01 = (math.cos(a1) * c1 * s2 + math.sin(a2) * s1 * c2) ** 2
    x10 = (math.sin(a1) * c1 * s2 + math.cos(a2) * s1 * c2) ** 2
    x11 = (math.sin(a1 + a2) * c1 * c2 - s1 * s2) ** 2
    u1 = S * x00 + R * x01 + P * x10 + T * x11
    u2 = T * x00 + R * x01 + P * x10 + S * x11
    return (u1, u2)


def _theta_alpha(p) -> tuple[float, float]:
    """(theta, alpha) of an `SU2Params` or a (theta, alpha) pair, with
    alpha reduced mod 2pi as `SU2Params` does."""
    if isinstance(p, SU2Params):
        return (p.theta, p.alpha)
    t, a = p
    return (float(t), float(a) % TWO_PI)
