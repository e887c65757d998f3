"""Lift classical strong isomorphisms to quantum-game mappings.

A classical mapping of a binary game becomes a quantum mapping by
permuting players with eta and transforming each player's angles:
strategy-preserving players keep (theta, alpha, beta), strategy-swapping
players get the reflected angles (pi - theta, 2pi - beta, pi - alpha),
whose matrix is -i sigma_x times the original. `verify_lift` checks the
induced payoff equality numerically on random strategy profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ewl import EwlGame, StrategySpace, profile_payoffs
from .games import ClassicalGame, GameMapping, apply_mapping
from .linalg import (
    ID2,
    PAULI_X,
    TWO_PI,
    SU2Params,
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

    def __call__(self, p: SU2Params) -> SU2Params:
        if not self.reflect:
            return SU2Params(p.theta, p.alpha + self.alpha_shift, p.beta + self.beta_shift)
        return SU2Params(
            math.pi - p.theta, self.alpha_shift - p.beta, self.beta_shift - p.alpha
        )


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

    @property
    def flips(self) -> tuple[bool, ...]:
        """Which players use the strategy-swap reflection."""
        return tuple(t.reflect for t in self.transforms)


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


def apply_lift(lm: LiftedMapping, params: Sequence[SU2Params]) -> tuple[SU2Params, ...]:
    """Transformed profile: position eta(i) holds transform_i(params_i)."""
    if len(params) != len(lm.eta):
        raise ValueError("profile length does not match mapping")
    out = [None] * len(params)
    for i, p in enumerate(params):
        out[lm.eta[i]] = lm.transforms[i](p)
    return tuple(out)


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


def sample_strategy(space: StrategySpace, rng: np.random.Generator) -> SU2Params:
    """Uniform draw from the angle box of the given space."""
    theta = rng.uniform(0.0, math.pi)
    alpha = 0.0 if space.alpha_frozen else rng.uniform(0.0, TWO_PI)
    beta = 0.0 if space.beta_frozen else rng.uniform(0.0, TWO_PI)
    return SU2Params(theta, alpha, beta)


def verify_lift(
    lm: LiftedMapping,
    g: EwlGame,
    g2: EwlGame,
    samples: int = 100,
    seed: int = 0,
    tol: float = LIFT_TOL,
) -> LiftReport:
    """Check u_i(U) = u'_{eta(i)}(lifted U) on random strategy profiles.

    Profiles are drawn uniformly from g's declared spaces (product
    measure over the angle boxes, reproducible from the seed). The check
    passes when the worst payoff deviation stays within `tol` and no
    transformed strategy escapes g2's declared spaces.
    """
    n = g.n_players
    if g2.n_players != n or len(lm.eta) != n:
        raise ValueError("mapping and games must agree on the player count")
    rng = np.random.default_rng(seed)
    params = [tuple(sample_strategy(g.spaces[i], rng) for i in range(n)) for _ in range(samples)]
    mapped = [apply_lift(lm, p) for p in params]
    escapes = {k for m in mapped for k in range(n) if not g2.spaces[k].contains(m[k])}
    devs = profile_payoffs(g, params) - profile_payoffs(g2, mapped)[:, list(lm.eta)]
    max_dev = float(np.abs(devs).max(initial=0.0))
    passed = not escapes and max_dev <= tol
    return LiftReport(passed, max_dev, tuple(sorted(escapes)), samples, seed, tol)


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

    All must hold within 1e-12 entrywise over the seeded draws.
    """
    rng = np.random.default_rng(seed)
    errs = {k: 0.0 for k in "abcdef"}

    J3 = entangler(3)
    perms3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    s_cycle = permutation_operator(_CYCLE.eta)

    # commutators are draw-independent
    for S in (permutation_operator(p) for p in perms3):
        errs["e"] = max(
            errs["e"],
            float(np.abs(J3.conj().T @ S - S @ J3.conj().T).max()),
            float(np.abs(J3 @ S - S @ J3).max()),
        )
    errs["e"] = max(
        errs["e"], float(np.abs(J3.conj().T @ -_X1X3 - -_X1X3 @ J3.conj().T).max())
    )

    for _ in range(draws):
        ps = [
            SU2Params(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
            for _ in range(3)
        ]
        us = [su2(p) for p in ps]
        flipped = [su2(FLIP(p)) for p in ps]

        errs["a"] = max(
            errs["a"],
            float(
                np.abs(
                    su2(SU2Params(math.pi - ps[0].theta, 0.0, math.pi - ps[0].alpha))
                    - (-1j) * PAULI_X @ su2(SU2Params(ps[0].theta, ps[0].alpha, 0.0))
                ).max()
            ),
        )
        errs["b"] = max(
            errs["b"], float(np.abs(flipped[0] - (-1j) * PAULI_X @ us[0]).max())
        )

        lhs = tensor([flipped[2], us[0], flipped[1]])
        rhs = -_X1X3 @ tensor([us[2], us[0], us[1]])
        errs["c"] = max(errs["c"], float(np.abs(lhs - rhs).max()))

        perm = perms3[rng.integers(0, len(perms3))]
        S = permutation_operator(perm)
        inv = [perm.index(k) for k in range(3)]
        conj = S @ tensor(us) @ S.T
        errs["d"] = max(errs["d"], float(np.abs(conj - tensor([us[i] for i in inv])).max()))

        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        moved = _X1X3 @ (s_cycle @ psi)
        for j in range(8):
            bits = ((j >> 2) & 1, (j >> 1) & 1, j & 1)
            fj = basis_index(apply_mapping(_CYCLE, bits))
            errs["f"] = max(errs["f"], abs(abs(moved[fj]) - abs(psi[j])))

    names = {
        "a": "two-param reflection to -i sigma_x",
        "b": "full reflection to -i sigma_x",
        "c": "three-factor reduction",
        "d": "qubit-permutation conjugation",
        "e": "entangler commutators",
        "f": "basis relabel on states",
    }
    checks = tuple(
        IdentityCheck(f"({k}) {names[k]}", errs[k], errs[k] <= IDENTITY_TOL)
        for k in "abcdef"
    )
    return IdentitySuiteReport(checks, draws, seed, IDENTITY_TOL)
