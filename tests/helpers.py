"""Shared test utilities: random game/mapping generators and slow,
independent oracles kept deliberately separate from the library code."""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

from qgame import ClassicalGame, GameMapping, apply_mapping, entangler, su2, tensor
from qgame.ewl import payoff_diagonal
from qgame.linalg import MAX_QUBITS

GAMES_DIR_NAME = "games"


def random_game(rng, shape, players=None, low=0, high=10) -> ClassicalGame:
    shape = tuple(shape)
    n = players if players is not None else len(shape)
    payoffs = rng.integers(low, high, size=shape + (n,)).astype(float)
    labels = tuple(tuple(f"s{i+1}{k}" for k in range(m)) for i, m in enumerate(shape))
    return ClassicalGame(labels, payoffs)


def random_mapping(rng, shape) -> GameMapping:
    """Random mapping applicable to a game of the given shape; the image
    shape must stay consistent, so eta only permutes equal-size players."""
    n = len(shape)
    while True:
        eta = tuple(int(v) for v in rng.permutation(n))
        if all(shape[eta.index(k)] == shape[k] for k in range(n)):
            break
    phi = tuple(tuple(int(v) for v in rng.permutation(shape[i])) for i in range(n))
    return GameMapping(eta, phi)


def brute_force_pure_nash(g: ClassicalGame, tol=1e-12):
    """Independent O(prod |S_i| * sum |S_i|) deviation scan."""
    out = []
    for s in product(*(range(m) for m in g.shape)):
        ok = True
        for i in range(g.n_players):
            for alt in range(g.shape[i]):
                t = list(s)
                t[i] = alt
                if g.payoffs[tuple(t)][i] > g.payoffs[s][i] + tol:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(s)
    return out


def brute_force_strong_isomorphisms(g: ClassicalGame, g2: ClassicalGame) -> list[GameMapping]:
    """Every strong isomorphism g -> g2 by trying all n! * prod(m_i!)
    candidates in lexicographic order (eta outer, then the per-player
    bijections) and checking each profile by profile."""
    if g.n_players != g2.n_players:
        return []
    n = g.n_players
    found = []
    for eta in permutations(range(n)):
        if any(g2.shape[eta[i]] != g.shape[i] for i in range(n)):
            continue
        for phis in product(*(permutations(range(g.shape[i])) for i in range(n))):
            f = GameMapping(eta, phis)
            if all(
                abs(g.payoffs[s][i] - g2.payoffs[apply_mapping(f, s)][eta[i]]) <= 1e-12
                for s in product(*(range(m) for m in g.shape))
                for i in range(n)
            ):
                found.append(f)
    return found


def is_mixed_equilibrium_2x2(g: ClassicalGame, p: float, q: float, tol=1e-9) -> bool:
    """Direct best-reply verification of a 2x2 mixed profile."""
    A = g.payoffs[..., 0]
    B = g.payoffs[..., 1]
    u1_rows = [q * A[i, 0] + (1 - q) * A[i, 1] for i in range(2)]
    u2_cols = [p * B[0, j] + (1 - p) * B[1, j] for j in range(2)]
    u1 = p * u1_rows[0] + (1 - p) * u1_rows[1]
    u2 = q * u2_cols[0] + (1 - q) * u2_cols[1]
    return u1 >= max(u1_rows) - tol and u2 >= max(u2_cols) - tol


def classical_mixed_payoffs(g: ClassicalGame, probs) -> np.ndarray:
    """Expected payoffs when player i plays its first strategy with
    probability probs[i] (binary games), by direct summation."""
    n = g.n_players
    out = np.zeros(n)
    for s in product(*(range(m) for m in g.shape)):
        w = math.prod(probs[i] if s[i] == 0 else 1.0 - probs[i] for i in range(n))
        out += w * g.payoffs[s]
    return out


# Dense Kronecker/entangler construction of the EWL game, kept as the
# independent oracle for the library's quaternion payoff core.


def final_state(params) -> np.ndarray:
    """Shared state J^dag (U_1 x .. x U_n) J |0..0> for the given strategies."""
    n = len(params)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"player count must be in [1, {MAX_QUBITS}], got {n}")
    J = entangler(n)
    U = tensor([su2(p) for p in params])
    return J.conj().T @ (U @ J[:, 0])


def payoff_operator(g: ClassicalGame, player: int) -> np.ndarray:
    """Player's payoff observable sum_j a^i_j |j><j| as a dense matrix."""
    return np.diag(payoff_diagonal(g, player)).astype(complex)


def expectation(state: np.ndarray, obs: np.ndarray) -> float:
    """<state|obs|state> for a Hermitian observable; the O(1e-12)
    imaginary residue is discarded."""
    state = np.asarray(state, dtype=complex)
    obs = np.asarray(obs, dtype=complex)
    if obs.shape != (state.size, state.size):
        raise ValueError("observable / state dimension mismatch")
    if not np.allclose(obs, obs.conj().T, atol=1e-12):
        raise ValueError("observable must be Hermitian")
    value = np.vdot(state, obs @ state)
    return float(value.real)


def oracle_payoffs(game, params) -> np.ndarray:
    """Payoff vector of an EwlGame, <Psi|M_i|Psi> from the dense state."""
    state = final_state(params)
    return np.array(
        [expectation(state, payoff_operator(game.base, i)) for i in range(game.n_players)]
    )
