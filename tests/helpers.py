"""Shared test utilities: random game/mapping generators and slow,
independent oracles kept deliberately separate from the library code."""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

from qgame import (
    ClassicalGame,
    GameMapping,
    SU2Params,
    apply_lift,
    apply_mapping,
    basis_index,
    entangler,
    profile_payoffs,
    su2,
    tensor,
    unrestricted_payoffs,
)
from qgame.ewl import _unit_amplitudes, payoff_diagonal
from qgame.lift import FLIP, LiftReport, sample_strategy
from qgame.linalg import ID2, MAX_QUBITS, PAULI_X, TWO_PI
from qgame.search import GridEquilibria, grid_payoff_tables

GAMES_DIR_NAME = "games"


def compose(first: GameMapping, second: GameMapping) -> GameMapping:
    """Mapping applying `first` then `second` (g -> g2 -> g3)."""
    if first.n_players != second.n_players:
        raise ValueError("player counts differ")
    eta = tuple(second.eta[first.eta[i]] for i in range(first.n_players))
    phi = tuple(
        tuple(second.phi[first.eta[i]][k] for k in first.phi[i])
        for i in range(first.n_players)
    )
    return GameMapping(eta, phi)


def basis_state(n: int, bits) -> np.ndarray:
    """Computational basis ket |b1 b2 .. bn>."""
    out = np.zeros(2**n, dtype=complex)
    out[basis_index(bits)] = 1.0
    return out


def is_unitary(m, tol: float = 1e-12) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() <= tol)


def ewl_payoffs(game, params) -> np.ndarray:
    """Payoff vector of an EwlGame; every strategy must lie in its
    player's declared space."""
    for i, p in enumerate(params):
        if not game.spaces[i].contains(p):
            raise ValueError(
                f"player {i + 1} strategy {p.as_tuple()} outside declared "
                f"space {game.spaces[i].name}"
            )
    return unrestricted_payoffs(game, params)


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


def permutation_operator_oracle(perm) -> np.ndarray:
    """Qubit-permutation matrix built one basis ket at a time: ket x goes
    to the ket whose qubit perm[i] holds x's qubit i."""
    perm = tuple(int(k) for k in perm)
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of {n} positions: {perm}")
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        bits = [(x >> (n - 1 - i)) & 1 for i in range(n)]
        y = 0
        for i in range(n):
            y |= bits[i] << (n - 1 - perm[i])
        out[y, x] = 1.0
    return out


# Per-draw forms of the lift checks: one SU2Params, one dense operator,
# one basis state at a time. They are the references for the array code
# of `operator_identity_suite` and `verify_lift`.

_CYCLE = GameMapping(eta=(1, 2, 0), phi=((0, 1), (1, 0), (1, 0)))
_X1X3 = tensor([PAULI_X, ID2, PAULI_X])
_PERMS3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def identity_suite_oracle(angles, picks, psis) -> list[tuple[str, float]]:
    """(name, max error) of identities (a)-(f), draw by draw, on the
    pre-drawn (draws, 3, 3) angles, permutation picks and unit states."""
    errs = {k: 0.0 for k in "abcdef"}

    J3 = entangler(3)
    s_cycle = permutation_operator_oracle(_CYCLE.eta)
    for S in (permutation_operator_oracle(p) for p in _PERMS3):
        errs["e"] = max(
            errs["e"],
            float(np.abs(J3.conj().T @ S - S @ J3.conj().T).max()),
            float(np.abs(J3 @ S - S @ J3).max()),
        )
    errs["e"] = max(
        errs["e"], float(np.abs(J3.conj().T @ -_X1X3 - -_X1X3 @ J3.conj().T).max())
    )

    for row, pick, psi in zip(angles, picks, psis):
        ps = [SU2Params(*a) for a in row]
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
        errs["b"] = max(errs["b"], float(np.abs(flipped[0] - (-1j) * PAULI_X @ us[0]).max()))

        lhs = tensor([flipped[2], us[0], flipped[1]])
        rhs = -_X1X3 @ tensor([us[2], us[0], us[1]])
        errs["c"] = max(errs["c"], float(np.abs(lhs - rhs).max()))

        perm = _PERMS3[pick]
        S = permutation_operator_oracle(perm)
        inv = [perm.index(k) for k in range(3)]
        conj = S @ tensor(us) @ S.T
        errs["d"] = max(errs["d"], float(np.abs(conj - tensor([us[i] for i in inv])).max()))

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
    return [(f"({k}) {names[k]}", errs[k]) for k in "abcdef"]


def verify_lift_oracle(lm, g, g2, samples, seed, tol) -> LiftReport:
    """`verify_lift` profile by profile: `sample_strategy` per player,
    `apply_lift` per profile, a space-membership test per strategy."""
    n = g.n_players
    rng = np.random.default_rng(seed)
    params = [tuple(sample_strategy(g.spaces[i], rng) for i in range(n)) for _ in range(samples)]
    mapped = [apply_lift(lm, p) for p in params]
    escapes = {k for m in mapped for k in range(n) if not g2.spaces[k].contains(m[k])}
    devs = profile_payoffs(g, params) - profile_payoffs(g2, mapped)[:, list(lm.eta)]
    max_dev = float(np.abs(devs).max(initial=0.0))
    passed = not escapes and max_dev <= tol
    return LiftReport(passed, max_dev, tuple(sorted(escapes)), samples, seed, tol)


# Per-field renderers of the `ne` and `surface` outputs: one SU2Params
# per grid point, one f-string or `format` call per field. They are the
# byte-exact references for the CLI's row-template rendering.


def ne_stdout_oracle(game_path, eps, grid_spec, spaces, found) -> str:
    """`qgame ne` stdout for the `grid_pure_ne` rows `found`."""
    names = ",".join(s.value for s in spaces)
    lines = [
        f"# command: ne {game_path}",
        f"# tolerances: eps={eps:g}",
        f"spaces: {names}; grid: {grid_spec}; profiles found: {len(found)}",
    ]
    for eq in found:
        angles = " ".join(f"({p.theta:.6g},{p.alpha:.6g},{p.beta:.6g})" for p in eq.profile)
        pays = " ".join(f"{v:.10g}" for v in eq.payoffs)
        lines.append(f"  {angles} payoffs [{pays}] improvement {eq.eps:.3e}")
    lines.append(f"verdict: {len(found)} equilibria" if found else "verdict: no equilibria")
    return "\n".join(lines) + "\n"


def ne_csv_oracle(players, found) -> str:
    """`qgame ne --csv` file contents for the `grid_pure_ne` rows `found`."""
    cols = []
    for i in range(1, players + 1):
        cols += [f"theta{i}", f"alpha{i}", f"beta{i}"]
    cols += [f"payoff{i}" for i in range(1, players + 1)] + ["improvement"]
    lines = [",".join(cols)]
    for eq in found:
        vals = []
        for p in eq.profile:
            vals += [p.theta, p.alpha, p.beta]
        vals += list(eq.payoffs) + [eq.eps]
        lines.append(",".join(format(v, ".15g") for v in vals))
    return "\n".join(lines) + "\n"


def surface_csv_oracle(game, mover, opponent, t_steps, a_steps) -> str:
    """`qgame surface` CSV: the mover's (theta, alpha) grid, alpha's 2pi
    endpoint included, against the fixed `opponent` SU2Params."""
    thetas = np.linspace(0.0, math.pi, t_steps) if t_steps > 1 else [0.0]
    alphas = np.linspace(0.0, TWO_PI, a_steps) if a_steps > 1 else [0.0]
    grid = [(t, a) for t in thetas for a in alphas]
    mine = [SU2Params(t, a, 0.0) for t, a in grid]
    lists = [mine, [opponent]] if mover == 0 else [[opponent], mine]
    u1, u2 = (t.reshape(-1) for t in grid_payoff_tables(game, lists))
    lines = ["theta,alpha,payoff1,payoff2"]
    for (t, a), v1, v2 in zip(grid, u1, u2):
        lines.append(",".join(format(v, ".15g") for v in (t, float(a) % TWO_PI, v1, v2)))
    return "\n".join(lines) + "\n"


# Earlier forms of production steps, kept as bitwise references: the
# ket-by-ket loop over the payoff-core terms and their accumulation, the
# n-d `np.nonzero` gather of the grid equilibria and the float-template
# row rendering.


def core_terms_oracle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`ewl._core_terms(n)` built ket by ket, one `np.flatnonzero` per ket."""
    amps = _unit_amplitudes(n)
    ket = np.abs(amps).argmax(axis=1)
    z = amps[np.arange(4**n), ket]
    fold = np.zeros((4, 4), dtype=int)
    k, l = np.triu_indices(4)
    fold[k, l] = fold[l, k] = np.arange(10)
    unit_of = np.arange(4**n)[:, None] // 4 ** np.arange(n - 1, -1, -1) % 4
    places = 10 ** np.arange(n - 1, -1, -1)
    entries, kets, weights = [], [], []
    for j in range(2**n):
        r = np.flatnonzero(ket == j)
        entries.append((fold[unit_of[r, None], unit_of[None, r]] @ places).ravel())
        kets.append(np.full(len(r) ** 2, j))
        weights.append((z[r, None] * z[None, r].conj()).real.ravel())
    return tuple(np.concatenate(a) for a in (entries, kets, weights))


def payoff_core_oracle(diags) -> np.ndarray:
    """The (n, 10, .., 10) payoff core of the (n, 2^n) payoff diagonals,
    accumulating the terms of `core_terms_oracle` in order with `np.add.at`."""
    n = diags.shape[0]
    entry, ket, weight = core_terms_oracle(n)
    core = np.zeros((n, 10**n))
    np.add.at(core, (slice(None), entry), diags[:, ket] * weight)
    return core.reshape((n,) + (10,) * n)


def grid_equilibria_oracle(game, grid, eps) -> GridEquilibria:
    """`grid_equilibria` over the whole payoff tables at once, through
    `np.nonzero` on the n-d mask, gathering with the index tuple: the
    dense search that the blocked one is checked against."""
    n = game.n_players
    angles = tuple(grid.angles(i, game.spaces[i]) for i in range(n))
    tables = grid_payoff_tables(game, angles)
    bests = [t.max(axis=i, keepdims=True) for i, t in enumerate(tables)]
    mask = np.ones(tables[0].shape, dtype=bool)
    for i in range(n):
        mask &= tables[i] >= bests[i] - eps
    idx = np.nonzero(mask)
    improvements = np.max(
        [np.broadcast_to(b, mask.shape)[idx] - t[idx] for b, t in zip(bests, tables)], axis=0
    )
    payoffs = np.stack([t[idx] for t in tables], axis=1)
    return GridEquilibria(angles, np.stack(idx, axis=1), improvements, payoffs)


def ne_rows_oracle(found: GridEquilibria, csv: bool) -> list[str]:
    """`ne` rows (stdout, or the CSV without line ends) as one float
    template per row, each payoff and improvement formatted where it
    occurs."""
    n = len(found.angles)
    if csv:
        strategy_fmt = "%.15g,%.15g,%.15g"
        template = ",".join(["%s"] * n + ["%.15g"] * (n + 1))
    else:
        strategy_fmt = "(%.6g,%.6g,%.6g)"
        template = "  %s payoffs [%s] improvement %%.3e" % (
            " ".join(["%s"] * n),
            " ".join(["%.10g"] * n),
        )
    cols = []
    for angles, col in zip(found.angles, found.index.T):
        rows = angles.tolist()
        cols.append([strategy_fmt % tuple(rows[k]) for k in col.tolist()])
    return [
        template % row
        for row in zip(*cols, *found.payoffs.T.tolist(), found.eps.tolist())
    ]


def surface_rows_oracle(thetas, alphas, u1, u2) -> list[str]:
    """`surface` CSV rows (without line ends) as one float template per row."""
    return [
        "%.15g,%.15g,%.15g,%.15g" % row
        for row in zip(thetas.tolist(), alphas.tolist(), u1.tolist(), u2.tolist())
    ]
