"""Discretized pure-equilibrium search over restricted strategy spaces.

The search is evidence at grid resolution: a profile qualifies when no
single player can improve by more than eps using another grid point.
It goes candidate-first in one pass over blocks of player 0's
strategies: player 0's payoff table rules out most rows before the
other players' tables are contracted, and one filter at the end, against
player 0's finished best replies, leaves the rows.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from ._value import Frozen, set_field
from .ewl import BLOCK_BYTES, EwlGame, StrategySpace, strategy_features
from .linalg import TWO_PI, SU2Params


def _step_count(axis: str, value) -> int:
    """`value` as an int: any integer, NumPy's included, but no bool."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{axis} axis needs an integer step count, got {value!r}")


class ParamGrid(Frozen):
    """(theta, alpha, beta) step counts, the same for every player.

    Axes are inclusive linspaces over [0, pi] resp. [0, 2pi]; a phase
    axis drops its 2pi endpoint, which is 0 mod 2pi. Angles frozen by a
    player's space always get the single value 0 regardless of the
    requested count. theta needs at least 2 steps so both endpoints 0
    and pi are on the grid. Counts must be integers; a float or a bool
    is rejected, not truncated.
    """

    __slots__ = ("theta", "alpha", "beta")
    theta: int
    alpha: int
    beta: int

    def __init__(self, theta: int = 17, alpha: int = 33, beta: int = 1):
        theta = _step_count("theta", theta)
        alpha = _step_count("alpha", alpha)
        beta = _step_count("beta", beta)
        if theta < 2:
            raise ValueError("theta axis needs at least 2 steps")
        if alpha < 1 or beta < 1:
            raise ValueError("phase axes need at least 1 step")
        set_field(self, "theta", theta)
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)

    def _counts(self, space: StrategySpace) -> tuple[int, int, int]:
        """(theta, alpha, beta) value counts in `space`: a frozen or 1-step
        phase axis holds only 0, a k-step one k - 1 (its 2pi end is 0)."""
        a = 1 if space.alpha_frozen else max(self.alpha - 1, 1)
        b = 1 if space.beta_frozen else max(self.beta - 1, 1)
        return self.theta, a, b

    def size(self, space: StrategySpace) -> int:
        """Number of grid strategies in `space`, from the step counts
        alone."""
        return math.prod(self._counts(space))

    def angles(self, space: StrategySpace) -> np.ndarray:
        """(m, 3) array of the grid (theta, alpha, beta) rows in `space`,
        theta outermost and beta innermost."""
        t, a, b = self._counts(space)
        axes = [np.linspace(0.0, math.pi, t)]
        axes += [np.linspace(0.0, TWO_PI, k + 1)[:-1] for k in (a, b)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

    def strategies(self, space: StrategySpace) -> tuple[SU2Params, ...]:
        return tuple(SU2Params(*row) for row in self.angles(space).tolist())


class EpsEquilibrium(NamedTuple):
    """Grid profile where no grid deviation improves any player by more
    than eps. `eps` records the largest improvement actually available."""

    profile: tuple[SU2Params, ...]
    eps: float
    payoffs: tuple[float, ...]


class GridEquilibria(NamedTuple):
    """The k grid equilibria of an n-player search as arrays.

    Row r is the profile whose player-i strategy is
    `angles[i][index[r, i]]`; `eps[r]` is the largest improvement any
    grid deviation offers there and `payoffs[r]` the payoff vector.
    Rows come in row-major profile order. Players on the same space
    share one read-only angle array.
    """

    angles: tuple[np.ndarray, ...]
    index: np.ndarray
    eps: np.ndarray
    payoffs: np.ndarray


def grid_payoff_tables(game: EwlGame, strategy_lists) -> list[np.ndarray]:
    """One payoff array of shape (m_1, .., m_n) per player, covering
    every grid profile: the game's payoff core contracted with each
    player's strategy features, one GEMM per player.

    Each player's strategies are an (m, 3) array of (theta, alpha, beta)
    rows; players handed the same array share its features.
    """
    dims = [len(s) for s in strategy_lists]
    if len(dims) != game.n_players:
        raise ValueError("need one strategy list per player")
    if any(d == 0 for d in dims):
        raise ValueError("empty strategy grid")
    core, feats = _operands(game, strategy_lists)
    buffer = np.empty(len(dims) * math.prod(dims))
    return _tables(core, feats, _contraction_order(dims), buffer)


def _kept_features(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(features, columns): an (m, 3) angle array's `strategy_features`
    less the columns that are zero for every strategy and add nothing to
    a contraction, and the columns kept; 6 of 10 remain for alpha and
    beta spaces, 3 for one."""
    feats = strategy_features(angles)
    keep = np.flatnonzero(feats.any(axis=0))
    return feats[:, keep], keep


def _operands(game: EwlGame, angles) -> tuple[np.ndarray, list[np.ndarray]]:
    """(core, features): each player's `_kept_features` of its (m, 3)
    `angles`, formed once per distinct array object, and the game's
    payoff core on the columns they keep."""
    formed = {id(a): _kept_features(a) for a in {id(a): a for a in angles}.values()}
    kept = [formed[id(a)] for a in angles]
    # one axis at a time: a gather per axis costs about half of one
    # np.ix_ gather over all of them
    core = game.payoff_core
    for k, (_, keep) in enumerate(kept, 1):
        core = core.take(keep, axis=k)
    return core, [f for f, _ in kept]


def _contraction_order(dims) -> list[int]:
    # players go shortest list first, which keeps every intermediate no
    # larger than the core or the tables
    return sorted(range(len(dims)), key=dims.__getitem__)


def _tables(core: np.ndarray, feats, order, buffer: np.ndarray) -> list[np.ndarray]:
    """The (m_1, .., m_n) tables of each of the p players of a
    (p, F_1, .., F_n) core, contracted with the (m_i, F_i) features of
    each player in `order`. The last contraction writes into the front
    of the flat float64 `buffer`; when `order` is player order, the
    tables are views of it."""
    n = len(order)
    out = core.transpose([0] + [1 + k for k in order])
    # each step moves the first remaining feature axis to the end and
    # replaces it by a strategy axis, as np.tensordot(out, f, (1, 1))
    # does, without its per-call overhead
    last = [0, *range(2, n + 1), 1]
    for k in order:
        out = out.transpose(last)
        rows = out.reshape(-1, out.shape[-1])
        into = None
        if k == order[-1]:
            into = buffer[: len(rows) * len(feats[k])].reshape(len(rows), len(feats[k]))
        out = np.dot(rows, feats[k].T, out=into).reshape(*out.shape[:-1], len(feats[k]))
    out = out.transpose([0] + [1 + order.index(k) for k in range(n)])
    return list(np.ascontiguousarray(out))


def _block_strategies(dims) -> int:
    """Player-0 strategies per block of `grid_equilibria`: as many as keep
    a block of every player's payoff table within `BLOCK_BYTES`, at least
    one."""
    rest = math.prod(dims[1:])
    return min(dims[0], max(1, BLOCK_BYTES // (8 * len(dims) * rest)))


def _allowed(held, best0: np.ndarray, eps: float, rest: int):
    """Join the `held` blocks of rows (flat profile indices, payoffs, the
    other players' improvement) into one, less the rows whose player-0
    payoff falls more than eps below `best0`, and leave it as the only
    block held. Returns its three arrays and `best0` at its rows."""
    joined = [np.concatenate(rows) for rows in zip(*held)]
    # the blocks go before the rows are filtered, and each joined array
    # after its rows are taken, so no row is held more than twice
    held.clear()
    best = best0.reshape(-1)[joined[0] % rest]
    # `take` on the row numbers: a bool mask over the rows of the 2-d
    # payoffs costs about 15x more
    keep = np.flatnonzero(joined[1][:, 0] >= best - eps)
    held.append(tuple(joined.pop(0).take(keep, axis=0) for _ in range(3)))
    return (*held[0], best[keep])


def grid_equilibria(
    game: EwlGame, grid: ParamGrid, eps: float = 1e-9, max_rows: int | None = None
) -> GridEquilibria:
    """All grid profiles that survive unilateral grid deviations up to eps.

    Deviations outside the grid are not considered; the grid is
    evidence, not proof.

    The search holds one block of payoff tables at a time, a run of
    player 0's strategies taken whole for the other players. A grid that
    fits one block takes its tables from `grid_payoff_tables`. Otherwise
    each block contracts player 0's table alone, raises player 0's
    running best replies and marks its candidates against them; only the
    block's player-0 strategies that hold a candidate get the other
    players' tables. The running best replies only rise, so the rows held
    this way include every row, and one filter against the finished best
    replies leaves exactly the rows. A search that would hold more than
    `max_rows` rows, once the rows that the running best replies rule out
    are dropped, raises ValueError before it gathers them.
    """
    n = game.n_players
    # players on the same space share one read-only angle array, and so
    # its features
    shared = {s: grid.angles(s) for s in dict.fromkeys(game.spaces)}
    for a in shared.values():
        a.setflags(write=False)
    angles = tuple(shared[s] for s in game.spaces)
    dims = [len(a) for a in angles]
    step, rest = _block_strategies(dims), math.prod(dims[1:])
    if step == dims[0]:
        tables = grid_payoff_tables(game, angles)
        blocks = [(0, tables[0], tables[1:])]
        masks = np.empty((2, tables[0].size), dtype=bool)
    else:
        core, feats = _operands(game, angles)
        order = _contraction_order(dims)
        # every block is contracted into this one buffer: player 0's table
        # at the front, the other players' tables on its candidate rows
        # behind it; a block's tables are used up before the next is
        # contracted
        buffer = np.empty(n * step * rest)
        masks = np.empty((3, step * rest), dtype=bool)

        def player0(start):
            block_feats = [feats[0][start : start + step], *feats[1:]]
            return _tables(core[:1], block_feats, order, buffer)[0]

        blocks = ((start, player0(start), None) for start in range(0, dims[0], step))
    best0 = np.full([1, *dims[1:]], -np.inf)
    # the rows held so far, as blocks of flat profile indices, payoffs and
    # the other players' improvement; an empty block gives a search without
    # rows arrays of the right shapes
    held = [(np.empty(0, np.intp), np.empty((0, n)), np.empty(0))]
    count = 0
    for start, t0, others in blocks:
        np.maximum(best0, t0.max(axis=0, keepdims=True), out=best0)
        mask = masks[0][: t0.size].reshape(t0.shape)
        np.greater_equal(t0, best0 - eps, out=mask)
        live = np.arange(len(t0))
        if others is None:
            # the block's player-0 strategies that hold a candidate
            live = np.flatnonzero(mask.reshape(len(t0), -1).any(axis=1))
            if not len(live):
                continue
            live_feats = [feats[0][start + live], *feats[1:]]
            others = _tables(core[1:], live_feats, order, buffer[t0.size :])
            if len(live) < len(t0):
                into = masks[1][: len(live) * rest].reshape(len(live), *t0.shape[1:])
                mask = np.take(mask, live, axis=0, out=into)
        holds = masks[-1][: mask.size].reshape(mask.shape)
        bests = [t.max(axis=i, keepdims=True) for i, t in enumerate(others, 1)]
        for t, b in zip(others, bests):
            mask &= np.greater_equal(t, b - eps, out=holds)
        # flat indices: np.nonzero on the n-d mask costs about 12x more
        flat = np.flatnonzero(mask)
        if not len(flat):
            continue
        idx = np.unravel_index(flat, mask.shape)
        # the rows' flat indices into the block's player-0 table
        profiles = flat + (live[idx[0]] - idx[0]) * rest
        pays = np.stack([t0.reshape(-1)[profiles], *(t.reshape(-1)[flat] for t in others)], axis=1)
        gaps = np.full(len(flat), -np.inf)
        for i, b in enumerate(bests, 1):
            np.maximum(gaps, np.broadcast_to(b, mask.shape)[idx] - pays[:, i], out=gaps)
        profiles += start * rest
        held.append((profiles, pays, gaps))
        count += len(flat)
        if max_rows is not None and count > max_rows:
            count = len(_allowed(held, best0, eps, rest)[0])
            if count > max_rows:
                searched, total = (start + len(t0)) * rest, math.prod(dims)
                raise ValueError(
                    f"more than {max_rows:,} equilibrium rows: {count:,} in the first "
                    f"{searched:,} of {total:,} profiles, about "
                    f"{count * total / searched:,.0f} rows in all at that rate"
                )
    profiles, payoffs, improvements, best = _allowed(held, best0, eps, rest)
    # player 0's improvement, then the other players'
    np.maximum(best - payoffs[:, 0], improvements, out=improvements)
    index = np.stack(np.unravel_index(profiles, dims), axis=1)
    return GridEquilibria(angles, index, improvements, payoffs)


def grid_pure_ne(game: EwlGame, grid: ParamGrid, eps: float = 1e-9) -> list[EpsEquilibrium]:
    """`grid_equilibria` as one `EpsEquilibrium` per row, in row-major
    profile order."""
    found = grid_equilibria(game, grid, eps)
    return [
        EpsEquilibrium(tuple(SU2Params(*a[k]) for a, k in zip(found.angles, ks)), e, tuple(p))
        for ks, e, p in zip(found.index.tolist(), found.eps.tolist(), found.payoffs.tolist())
    ]
