"""Discretized pure-equilibrium search over restricted strategy spaces.

The search is evidence at grid resolution: a profile qualifies when no
single player can improve by more than eps using another grid point.
The analytic best reply and the deviation witness for the column-swapped
prisoner's dilemma are the exact counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ewl import EwlGame, StrategySpace, _theta_alpha, strategy_features
from .linalg import TWO_PI, SU2Params


@dataclass(frozen=True)
class ParamGrid:
    """Per-player (theta, alpha, beta) step counts.

    Axes are inclusive linspaces over [0, pi] resp. [0, 2pi]; phase
    values are reduced mod 2pi and deduplicated, so the 2pi endpoint
    collapses onto 0. Angles frozen by a player's space always get the
    single value 0 regardless of the requested count. theta needs at
    least 2 steps so both endpoints 0 and pi are on the grid.
    """

    steps: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        steps = tuple((int(t), int(a), int(b)) for t, a, b in self.steps)
        for t, a, b in steps:
            if t < 2:
                raise ValueError("theta axis needs at least 2 steps")
            if a < 1 or b < 1:
                raise ValueError("phase axes need at least 1 step")
        object.__setattr__(self, "steps", steps)

    @classmethod
    def uniform(cls, players: int, theta: int = 17, alpha: int = 33, beta: int = 1):
        return cls(((theta, alpha, beta),) * players)

    def refined(self, factor: int = 2) -> "ParamGrid":
        """Grid with every multi-point axis subdivided `factor` times."""
        return ParamGrid(
            tuple(
                tuple((s - 1) * factor + 1 if s > 1 else 1 for s in axes)
                for axes in self.steps
            )
        )

    def size(self, player: int, space: StrategySpace) -> int:
        """Number of grid strategies of `player` in `space`, from the step
        counts alone."""
        t_steps, a_steps, b_steps = self.steps[player]
        a = 1 if space.alpha_frozen else max(a_steps - 1, 1)
        b = 1 if space.beta_frozen else max(b_steps - 1, 1)
        return t_steps * a * b

    def angles(self, player: int, space: StrategySpace) -> np.ndarray:
        """(m, 3) array of the player's grid (theta, alpha, beta) rows,
        theta outermost and beta innermost."""
        t_steps, a_steps, b_steps = self.steps[player]
        thetas = np.linspace(0.0, math.pi, t_steps)
        alphas = _phase_axis(1 if space.alpha_frozen else a_steps)
        betas = _phase_axis(1 if space.beta_frozen else b_steps)
        axes = np.meshgrid(thetas, alphas, betas, indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, 3)

    def strategies(self, player: int, space: StrategySpace) -> tuple[SU2Params, ...]:
        return tuple(SU2Params(*row) for row in self.angles(player, space).tolist())


def _phase_axis(steps: int) -> np.ndarray:
    if steps == 1:
        return np.zeros(1)
    # the 2pi endpoint reduces to 0 and is dropped
    return (np.linspace(0.0, TWO_PI, steps) % TWO_PI)[:-1]


@dataclass(frozen=True)
class EpsEquilibrium:
    """Grid profile where no grid deviation improves any player by more
    than eps. `eps` records the largest improvement actually available."""

    profile: tuple[SU2Params, ...]
    eps: float
    payoffs: tuple[float, ...]


@dataclass(frozen=True)
class GridEquilibria:
    """The k grid equilibria of an n-player search as arrays.

    Row r is the profile whose player-i strategy is
    `angles[i][index[r, i]]`; `eps[r]` is the largest improvement any
    grid deviation offers there and `payoffs[r]` the payoff vector.
    Rows come in row-major profile order.
    """

    angles: tuple[np.ndarray, ...]
    index: np.ndarray
    eps: np.ndarray
    payoffs: np.ndarray


# Largest payoff-table block, in bytes, that `grid_equilibria` holds at
# once; smaller blocks cost more Python overhead per profile.
BLOCK_BYTES = 1 << 20


def grid_payoff_tables(game: EwlGame, strategy_lists) -> list[np.ndarray]:
    """One payoff array of shape (m_1, .., m_n) per player, covering
    every grid profile: the game's payoff core contracted with each
    player's strategy features, one GEMM per player.

    Each player's strategies are either a sequence of `SU2Params` or an
    (m, 3) array of (theta, alpha, beta) rows.
    """
    dims = [len(s) for s in strategy_lists]
    if len(dims) != game.n_players:
        raise ValueError("need one strategy list per player")
    if any(d == 0 for d in dims):
        raise ValueError("empty strategy grid")
    feats = [strategy_features(_angle_rows(s)) for s in strategy_lists]
    return _tables(game.payoff_core, feats, _contraction_order(dims))


def _contraction_order(dims) -> list[int]:
    # players go shortest list first, which keeps every intermediate no
    # larger than the core or the tables
    return sorted(range(len(dims)), key=dims.__getitem__)


def _tables(core: np.ndarray, feats, order) -> list[np.ndarray]:
    """The (m_1, .., m_n) tables of each of the p players of a
    (p, F_1, .., F_n) core, contracted with the (m_i, F_i) features of
    each player in `order`."""
    n = len(order)
    out = core.transpose([0] + [1 + k for k in order])
    # each step moves the first remaining feature axis to the end and
    # replaces it by a strategy axis, as np.tensordot(out, f, (1, 1))
    # does, without its per-call overhead
    last = [0, *range(2, n + 1), 1]
    for k in order:
        out = out.transpose(last)
        out = np.dot(out.reshape(-1, out.shape[-1]), feats[k].T).reshape(*out.shape[:-1], -1)
    out = out.transpose([0] + [1 + order.index(k) for k in range(n)])
    return list(np.ascontiguousarray(out))


def _angle_rows(strategies) -> np.ndarray:
    if isinstance(strategies, np.ndarray):
        return strategies
    return np.array([p.as_tuple() for p in strategies], dtype=float)


def grid_table_bytes(dims) -> int:
    """Bytes of the payoff tables and the equilibrium mask of a search
    over `dims[i]` strategies for player i."""
    return (8 * len(dims) + 1) * math.prod(dims)


def _block_strategies(dims, tables: int) -> int:
    """Player-0 strategies per block of `grid_equilibria`: as many as keep
    a block of `tables` payoff tables within `BLOCK_BYTES`, at least one."""
    rest = math.prod(dims[1:])
    return min(dims[0], max(1, BLOCK_BYTES // (8 * tables * rest)))


def grid_search_bytes(dims) -> int:
    """Bytes `grid_equilibria` holds besides its rows, over `dims[i]`
    strategies for player i: one block of payoff tables and mask, and
    every player's best replies, 8 * prod(dims) / dims[i] bytes each."""
    total = math.prod(dims)
    block = grid_table_bytes([_block_strategies(dims, len(dims)), *dims[1:]])
    return block + sum(8 * (total // m) for m in dims)


def grid_row_bytes(players: int) -> int:
    """Bytes `grid_equilibria` holds per equilibrium row: the index,
    payoffs and eps arrays (16n + 8 bytes), twice, since the block
    pieces and their join exist together."""
    return 2 * (16 * players + 8)


def grid_equilibria(
    game: EwlGame, grid: ParamGrid, eps: float = 1e-9, max_rows: int | None = None
) -> GridEquilibria:
    """All grid profiles that survive unilateral grid deviations up to eps.

    Deviations outside the grid are not considered; the grid is
    evidence, not proof.

    The search holds one block of payoff tables at a time, a run of
    player 0's strategies taken whole for the other players. A grid that
    fits one block takes its tables from `grid_payoff_tables`. Otherwise
    a first pass keeps player 0's best replies, block by block, and a
    second pass finds each block's rows. A search that would hold more
    than `max_rows` rows raises ValueError before it gathers them.
    """
    n = game.n_players
    if len(grid.steps) != n:
        raise ValueError("grid does not match the game's player count")
    angles = tuple(grid.angles(i, game.spaces[i]) for i in range(n))
    dims = [len(a) for a in angles]
    step = _block_strategies(dims, n)
    if step == dims[0]:
        tables = grid_payoff_tables(game, angles)
        best0 = tables[0].max(axis=0, keepdims=True)
        blocks = [(0, tables)]
    else:
        feats = [strategy_features(a) for a in angles]
        # feature columns that are zero for every strategy add nothing:
        # 6 of 10 remain for alpha and beta spaces, 3 for one
        keep = [np.flatnonzero(f.any(axis=0)) for f in feats]
        feats = [f[:, k] for f, k in zip(feats, keep)]
        core = game.payoff_core[np.ix_(range(n), *keep)]
        order = _contraction_order(dims)

        def block(start, count, players):
            return _tables(core[:players], [feats[0][start : start + count], *feats[1:]], order)

        # player 0's table alone fits n times the strategies in a block
        first = _block_strategies(dims, 1)
        best0 = np.full([1, *dims[1:]], -np.inf)
        for start in range(0, dims[0], first):
            np.maximum(best0, block(start, first, 1)[0].max(axis=0, keepdims=True), out=best0)
        blocks = ((start, block(start, step, n)) for start in range(0, dims[0], step))
    # empty pieces give a search without rows arrays of the right shapes
    index, payoffs, improvements = [np.empty((0, n), np.intp)], [np.empty((0, n))], [np.empty(0)]
    rows = 0
    for start, tables in blocks:
        shape = tables[0].shape
        bests = [best0] + [t.max(axis=i, keepdims=True) for i, t in enumerate(tables) if i]
        mask = tables[0] >= best0 - eps
        for t, b in zip(tables[1:], bests[1:]):
            mask &= t >= b - eps
        # flat indices: np.nonzero on the n-d mask costs about 12x more
        flat = np.flatnonzero(mask)
        if not len(flat):
            continue
        rows += len(flat)
        if max_rows is not None and rows > max_rows:
            searched, total = (start + shape[0]) * math.prod(dims[1:]), math.prod(dims)
            expected = rows * total / searched * grid_row_bytes(n)
            raise ValueError(
                f"more than {max_rows:,} equilibrium rows: {rows:,} in the first "
                f"{searched:,} of {total:,} profiles, about {expected / 2**30:.3g} GiB "
                f"for all rows at that rate"
            )
        idx = np.unravel_index(flat, shape)
        pays = np.stack([t.reshape(-1)[flat] for t in tables], axis=1)
        best = np.stack([np.broadcast_to(b, shape)[idx] for b in bests])
        improvements.append(np.max(best - pays.T, axis=0))
        idx[0][:] += start
        index.append(np.stack(idx, axis=1))
        payoffs.append(pays)
    return GridEquilibria(
        angles, np.concatenate(index), np.concatenate(improvements), np.concatenate(payoffs)
    )


def grid_pure_ne(
    game: EwlGame, grid: ParamGrid, eps: float = 1e-9
) -> list[EpsEquilibrium]:
    """`grid_equilibria` as one `EpsEquilibrium` per row, in row-major
    profile order."""
    found = grid_equilibria(game, grid, eps)
    params = []
    for angles, col in zip(found.angles, found.index.T):
        used = np.unique(col)
        params.append(dict(zip(used.tolist(), (SU2Params(*a) for a in angles[used].tolist()))))
    return [
        EpsEquilibrium(tuple(p[k] for p, k in zip(params, ks)), e, tuple(pays))
        for ks, e, pays in zip(found.index.tolist(), found.eps.tolist(), found.payoffs.tolist())
    ]


def best_reply_two_param(opponent) -> SU2Params:
    """Player 1's best two-parameter reply to a two-parameter opponent.

    Reply (theta', alpha') = (theta, 3pi/2 - alpha) for alpha in
    [0, 3pi/2], else (theta, 7pi/2 - alpha); it earns exactly the
    temptation payoff in the column-swapped prisoner's dilemma.
    """
    theta, alpha = _theta_alpha(opponent)
    if alpha <= 1.5 * math.pi:
        reply_alpha = 1.5 * math.pi - alpha
    else:
        reply_alpha = 3.5 * math.pi - alpha
    return SU2Params(theta, reply_alpha, 0.0)


def witness_deviation(p1) -> SU2Params:
    """Player 2's deviation (0, 2pi - alpha_1) against a fixed player-1
    two-parameter strategy; it earns player 2 strictly more than the
    sucker payoff, so player 1 falls short of the temptation payoff."""
    _, alpha = _theta_alpha(p1)
    return SU2Params(0.0, (TWO_PI - alpha) % TWO_PI, 0.0)
