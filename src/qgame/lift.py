"""Lift classical strong isomorphisms to quantum-game mappings.

A classical mapping of a binary game becomes a quantum mapping by
permuting players with eta and transforming each player's angles:
strategy-preserving players keep (theta, alpha, beta), strategy-swapping
players get the reflected angles (pi - theta, 2pi - beta, pi - alpha),
whose matrix is -i sigma_x times the original. `verify_lift` checks the
induced payoff equality numerically on random strategy profiles
(`verify_lifts` for several mappings on the same profiles), and
`operator_identity_suite` the operator identities behind the lift; both
work on arrays of all draws at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Sequence

import numpy as np

from .ewl import BLOCK_BYTES, EwlGame, _angle_payoffs
from .games import ClassicalGame, GameMapping, apply_mapping
from .linalg import (
    ID2,
    PAULI_X,
    TWO_PI,
    basis_index,
    entangler,
    permutation_operator,
    su2,
    tensor,
)

LIFT_TOL = 1e-10
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class AngleTransform:
    """Per-player angle map of a lifted isomorphism.

    The identity form keeps (theta, alpha, beta) unchanged. The
    reflected form maps (theta, alpha, beta) to
    (pi - theta, alpha_shift - beta, beta_shift - alpha); with shifts
    (2pi, pi) this is the strategy-swap transform, other shifts cover
    phase-twisted variants such as (pi - theta, pi/4 - beta, pi/4 - alpha).
    """

    reflect: bool = False
    alpha_shift: float = 0.0
    beta_shift: float = 0.0

    def angles(self, a: np.ndarray) -> np.ndarray:
        """The map on a (..., 3) array of (theta, alpha, beta) rows, with
        the phases reduced mod 2pi as `SU2Params` reduces them."""
        shifts = (self.alpha_shift, self.beta_shift)
        out = np.empty(a.shape)
        if self.reflect:
            np.subtract(math.pi, a[..., 0], out=out[..., 0])
            # (alpha_shift - beta, beta_shift - alpha)
            np.subtract(shifts, a[..., 2:0:-1], out=out[..., 1:])
        else:
            out[..., 0] = a[..., 0]
            np.add(a[..., 1:], shifts, out=out[..., 1:])
        np.remainder(out[..., 1:], TWO_PI, out=out[..., 1:])
        return out


KEEP = AngleTransform()
FLIP = AngleTransform(reflect=True, alpha_shift=TWO_PI, beta_shift=math.pi)


@dataclass(frozen=True)
class LiftedMapping:
    """Player permutation plus per-player angle transforms."""

    eta: tuple[int, ...]
    transforms: tuple[AngleTransform, ...]

    def __post_init__(self):
        eta = tuple(int(k) for k in self.eta)
        if sorted(eta) != list(range(len(eta))):
            raise ValueError(f"eta is not a permutation: {eta}")
        if len(self.transforms) != len(eta):
            raise ValueError("need one angle transform per player")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "transforms", tuple(self.transforms))


def lift(f: GameMapping, g: ClassicalGame) -> LiftedMapping:
    """Quantum mapping induced by a classical strong isomorphism.

    Player i keeps its angles when phi_i preserves strategy indices and
    reflects them when phi_i swaps. The caller is responsible for having
    verified that f is a strong isomorphism of g onto its image.
    """
    if any(m != 2 for m in g.shape):
        raise ValueError("lifting is defined for binary games only")
    if any(len(p) != 2 for p in f.phi):
        raise ValueError("mapping does not match a binary game")
    transforms = tuple(KEEP if p == (0, 1) else FLIP for p in f.phi)
    return LiftedMapping(f.eta, transforms)


@dataclass(frozen=True)
class LiftReport:
    """Outcome of a sampled payoff-equality check.

    `space_escapes` lists target positions whose transformed strategies
    left the declared space; an escape is reported separately from a
    payoff mismatch because it is a property of the restriction, not a
    numerical failure.
    """

    passed: bool
    max_deviation: float
    space_escapes: tuple[int, ...]
    samples: int
    seed: int
    tolerance: float


def verify_lift(
    lm: LiftedMapping, g: EwlGame, g2: EwlGame, samples: int = 100, seed: int = 0
) -> LiftReport:
    """Check u_i(U) = u'_{eta(i)}(lifted U) on random strategy profiles:
    `verify_lifts` of the one mapping."""
    return verify_lifts((lm,), g, g2, samples, seed)[0]


def verify_lifts(
    lms: Sequence[LiftedMapping], g: EwlGame, g2: EwlGame, samples: int = 100, seed: int = 0
) -> tuple[LiftReport, ...]:
    """Check u_i(U) = u'_{eta(i)}(lifted U) for every mapping of `lms` on
    the same random strategy profiles, one report per mapping.

    Profiles are drawn uniformly from g's declared spaces (product
    measure over the angle boxes, reproducible from the seed) as one
    (samples, n, 3) angle array: one random column per angle the space
    leaves free, profile by profile, player by player, theta before
    alpha before beta. Each phase is 2pi * u with 0 <= u < 1, which
    rounds below 2pi, so it is already reduced mod 2pi. Player i's
    transform maps column i to column eta(i) of the image profiles. A
    mapping's check passes when its worst payoff deviation stays within
    LIFT_TOL and no transformed strategy escapes g2's declared spaces.

    Only the drawn columns are held for every sample; the profiles are
    formed and evaluated on g `_sample_block(n)` samples at a time, and
    each block is then mapped and evaluated on g2 once per mapping, so a
    mapping's report is the one it gets alone.
    """
    n = g.n_players
    if g2.n_players != n or any(len(lm.eta) != n for lm in lms):
        raise ValueError("mapping and games must agree on the player count")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    # one column per free angle, in per-player theta, alpha, beta order,
    # each h * next_double for its box width h
    box = np.ravel(
        [
            (math.pi, 0.0 if s.alpha_frozen else TWO_PI, 0.0 if s.beta_frozen else TWO_PI)
            for s in g.spaces
        ]
    )
    drawn = box > 0.0
    drawn_angles = np.random.default_rng(seed).random((samples, int(drawn.sum())))
    drawn_angles *= box[drawn]
    escapes, max_dev = [set() for _ in lms], [0.0] * len(lms)
    step = _sample_block(n)
    for start in range(0, samples, step):
        block = drawn_angles[start : start + step]
        angles = np.zeros((len(block), 3 * n))
        angles[:, drawn] = block
        angles = angles.reshape(-1, n, 3)
        payoffs = _angle_payoffs(g, angles)
        for k, lm in enumerate(lms):
            mapped = np.empty_like(angles)
            for i, t in enumerate(lm.transforms):
                mapped[:, lm.eta[i]] = t.angles(angles[:, i])
            escapes[k].update(
                j
                for j, s in enumerate(g2.spaces)
                if (s.alpha_frozen and mapped[:, j, 1].any()) or (s.beta_frozen and mapped[:, j, 2].any())
            )
            devs = payoffs - _angle_payoffs(g2, mapped)[:, list(lm.eta)]
            max_dev[k] = max(max_dev[k], float(np.abs(devs).max()))
            # so that the next evaluation does not hold this mapping's
            del mapped, devs
        del angles, payoffs
    reports = []
    for found, dev in zip(escapes, max_dev):
        found = tuple(sorted(found))
        reports.append(LiftReport(not found and dev <= LIFT_TOL, dev, found, samples, seed, LIFT_TOL))
    return tuple(reports)


def _sample_block(players: int) -> int:
    """Samples `verify_lifts` forms, maps and evaluates at once: as many as
    keep a block within `BLOCK_BYTES`, at least one. A sample counts 320
    bytes a player (its angles, their image, its payoffs and its features
    as formed), an upper bound since features are formed in one output
    array, and 16 a column of the wider Kronecker half that
    `_angle_payoffs` forms (the row and a player's product)."""
    return max(1, BLOCK_BYTES // (320 * players + 16 * 10 ** (players - players // 2)))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    max_error: float
    passed: bool


@dataclass(frozen=True)
class IdentitySuiteReport:
    checks: tuple[IdentityCheck, ...]
    draws: int
    seed: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_error(self) -> float:
        return max(c.max_error for c in self.checks)


# the worked 3-player cycle: player 1 -> 2 -> 3 -> 1, with players 2 and 3
# swapping strategies and player 1 keeping them
_CYCLE = GameMapping(eta=(1, 2, 0), phi=((0, 1), (1, 0), (1, 0)))
_X1X3 = tensor([PAULI_X, ID2, PAULI_X])
_PERMS3 = tuple(permutations(range(3)))
_BLOCK = 32

_CHECK_NAMES = (
    "(a) two-param reflection to -i sigma_x",
    "(b) full reflection to -i sigma_x",
    "(c) three-factor reduction",
    "(d) qubit-permutation conjugation",
    "(e) entangler commutators",
    "(f) basis relabel on states",
)


def _identity_draws(draws: int, seed: int):
    """The identity suite's random inputs: a (draws, 3, 3) array of three
    players' (theta, alpha, beta), (draws,) indices into the six qubit
    permutations of three players, and (draws, 8) random unit states."""
    if draws < 1:
        raise ValueError(f"need at least one draw, got {draws}")
    rng = np.random.default_rng(seed)
    angles = rng.random((draws, 3, 3)) * (math.pi, TWO_PI, TWO_PI)
    picks = rng.integers(0, len(_PERMS3), draws)
    psi = rng.normal(size=(draws, 8)) + 1j * rng.normal(size=(draws, 8))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return angles, picks, psi


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of three (k, 2, 2) stacks, (k, 8, 8)."""
    return np.einsum("kab,kcd,kef->kacebdf", a, b, c).reshape(-1, 8, 8)


def _max_abs(x: np.ndarray) -> float:
    return float(np.abs(x).max())


def operator_identity_suite(draws: int = 200, seed: int = 7) -> IdentitySuiteReport:
    """Numeric checks of the operator identities behind the lift.

    (a) U(pi-t, 0, pi-a) = -i X U(t, a, 0)
    (b) U(pi-t, 2pi-b, pi-a) = -i X U(t, a, b)
    (c) the three-factor reduction pulling -(X x 1 x X) out of a
        reflected triple product
    (d) S_eta (U_1 x U_2 x U_3) S_eta^T reorders the factors by eta^-1
    (e) [J^dag, -(X x 1 x X)] = [J^dag, S_eta] = [J, S_eta] = 0
    (f) |<f(j)| (X x 1 x X) S_eta |Psi>| = |<j|Psi>| for the worked
        3-player cycle f and random states

    All must hold within 1e-12 entrywise over the seeded draws of
    `_identity_draws`. The unitaries of every draw are formed at once,
    and (a) and (b) compare whole (draws, 2, 2) stacks; only the
    (k, 8, 8) operator stacks of (c) and (d) are taken 32 draws at a time.
    """
    angles, picks, psi = _identity_draws(draws, seed)
    ops = np.stack([permutation_operator(p) for p in _PERMS3])
    inv = np.argsort(np.array(_PERMS3), axis=1)[picks]
    # every unitary of (a)-(d), formed at once: per draw, the three
    # players', their reflections, and player 1's two-parameter
    # U(t, a, 0) and U(pi - t, 0, pi - a)
    theta, alpha, zero = angles[:, 0, 0], angles[:, 0, 1], np.zeros(draws)
    pair = np.array([[theta, alpha, zero], [math.pi - theta, zero, (math.pi - alpha) % TWO_PI]])
    stacked = np.concatenate([angles, FLIP.angles(angles), pair.transpose(2, 0, 1)], axis=1)
    unitaries = su2(stacked)
    del stacked
    u, f = unitaries[:, :3], unitaries[:, 3:6]
    two_param, reflected = unitaries[:, 6], unitaries[:, 7]
    errs = [
        _max_abs(reflected - (-1j) * PAULI_X @ two_param),
        _max_abs(f[:, 0] - (-1j) * PAULI_X @ u[:, 0]),
        0.0,
        0.0,
    ]
    # (c) and (d) build (k, 8, 8) operator stacks; taking them in blocks
    # keeps those small
    for lo in range(0, draws, _BLOCK):
        ub, fb, s = u[lo : lo + _BLOCK], f[lo : lo + _BLOCK], ops[picks[lo : lo + _BLOCK]]
        conj = s @ _kron3(ub[:, 0], ub[:, 1], ub[:, 2]) @ s.transpose(0, 2, 1)
        r = ub[np.arange(len(ub))[:, None], inv[lo : lo + _BLOCK]]
        block = (
            _max_abs(_kron3(fb[:, 2], ub[:, 0], fb[:, 1]) + _X1X3 @ _kron3(ub[:, 2], ub[:, 0], ub[:, 1])),
            _max_abs(conj - _kron3(r[:, 0], r[:, 1], r[:, 2])),
        )
        errs[2:] = [max(e, x) for e, x in zip(errs[2:], block)]

    # commutators are draw-independent
    J3 = entangler(3)
    errs.append(
        max(
            _max_abs(J3.conj().T @ -_X1X3 - -_X1X3 @ J3.conj().T),
            *(_max_abs(J3.conj().T @ S - S @ J3.conj().T) for S in ops),
            *(_max_abs(J3 @ S - S @ J3) for S in ops),
        )
    )

    relabel = [basis_index(apply_mapping(_CYCLE, bits)) for bits in product((0, 1), repeat=3)]
    moved = psi @ (_X1X3 @ permutation_operator(_CYCLE.eta)).T
    errs.append(_max_abs(np.abs(moved[:, relabel]) - np.abs(psi)))

    checks = tuple(
        IdentityCheck(name, e, e <= IDENTITY_TOL) for name, e in zip(_CHECK_NAMES, errs)
    )
    return IdentitySuiteReport(checks, draws, seed, IDENTITY_TOL)
