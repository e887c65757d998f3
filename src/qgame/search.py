"""Discretized pure-equilibrium search over restricted strategy spaces.

The search is evidence at grid resolution: a profile qualifies when no
single player can improve by more than eps using another grid point.
It goes candidate-first in one pass over blocks of player 0's
strategies: player 0's payoff table rules out most rows before the
other players' tables are read, and one filter at the end, against
player 0's finished best replies, leaves the rows.

Every EWL game pays the same at a profile and at its joint half-turn,
where each player's phase alpha (or beta) turns by pi. On grids where
every player's strategies come in such pairs, the search scans half of
player 0's strategies and takes the other half's rows as the partners
of the rows it finds.
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

    def half_turn(self, space: StrategySpace) -> np.ndarray | None:
        """Each grid index's partner in `space` under the half-turn
        q -> (-q0, -q1, q2, q3): alpha + pi when the alpha axis holds an
        even count of values, else beta + pi when the beta axis does (beta
        + pi gives -1 times that quaternion, with the same features). None
        when neither does: no grid point then has its partner on the grid.
        """
        counts = self._counts(space)
        axis = next((k for k in (1, 2) if counts[k] % 2 == 0), None)
        if axis is None:
            return None
        index = np.arange(math.prod(counts)).reshape(counts)
        return np.roll(index, counts[axis] // 2, axis=axis).reshape(-1)

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
    rows; players handed the same array share its features. The tables
    are views of one buffer.
    """
    if len(strategy_lists) != game.n_players:
        raise ValueError("need one strategy list per player")
    for s in strategy_lists:
        if np.shape(s)[1:] != (3,):
            raise ValueError(f"need (m, 3) arrays of strategies, got shape {np.shape(s)}")
    dims = [len(s) for s in strategy_lists]
    if any(d == 0 for d in dims):
        raise ValueError("empty strategy grid")
    core, feats = _operands(game, strategy_lists)
    buffer = np.empty(len(dims) * math.prod(dims))
    return _tables(core, feats, buffer)


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


def _tables(core: np.ndarray, feats, buffer: np.ndarray) -> list[np.ndarray]:
    """The (m_1, .., m_n) tables of each of the p players of a
    (p, F_1, .., F_n) core, contracted with the (m_i, F_i) features of
    each player in player order. The last contraction writes into the
    front of the flat float64 `buffer`, and every table is a view of it.

    After players 1..k the intermediate holds p * m_1..m_k * F_k+1..F_n
    floats, so it is larger than the tables only when a later player has
    fewer strategies than kept feature columns."""
    n = len(feats)
    out = core
    # each step moves the first remaining feature axis to the end and
    # replaces it by a strategy axis, as np.tensordot(out, f, (1, 1))
    # does, without its per-call overhead
    last = [0, *range(2, n + 1), 1]
    for k, f in enumerate(feats, 1):
        out = out.transpose(last)
        rows = out.reshape(-1, out.shape[-1])
        into = buffer[: len(rows) * len(f)].reshape(len(rows), len(f)) if k == n else None
        out = np.dot(rows, f.T, out=into).reshape(*out.shape[:-1], len(f))
    return list(out)


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

    One pass over blocks of the player-0 strategies scanned, each taken
    whole for the other players: a block raises player 0's running best
    replies and marks its candidates against them, and only its player-0
    strategies that hold a candidate get the other players' tables. The
    running best replies only rise, so the rows held include every row,
    and one filter against the finished best replies leaves exactly the
    rows. A grid of one block reads its tables from one
    `grid_payoff_tables` call; a larger one contracts each block's tables
    into one buffer.

    Every game pays the same at a profile and at its joint half-turn
    (`ParamGrid.half_turn`). When every player's grid holds the
    partners, only the player-0 strategies below their partners are
    scanned: player 0's best reply to the others' r covers r's partner,
    and each row found is held with its partner row, a copy of its
    payoffs and improvement. The rows are sorted row-major at the end.

    A search that would hold more than `max_rows` rows, partner rows
    counted, once the rows that the running best replies rule out are
    dropped, raises ValueError before it gathers them.
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
    # (player 0's partner map, the others' profiles' partner map) of each
    # joint map that every game pays the same under: the half-turn
    turns = [grid.half_turn(s) for s in game.spaces]
    pairs = []
    if all(t is not None for t in turns):
        mirror = np.zeros(1, np.intp)
        for t in turns[1:]:
            mirror = (mirror[:, None] * len(t) + t).reshape(-1)
        pairs.append((turns[0], mirror))
    # the player-0 strategies scanned: those below their partners
    scanned = np.arange(dims[0])
    for turn0, _ in pairs:
        scanned = scanned[scanned < turn0[scanned]]
    if step == dims[0]:
        tables = grid_payoff_tables(game, angles)

        def tables_of(rows, players):
            # views of the whole tables where the rows are all of theirs
            return [t if len(rows) == len(t) else t[rows] for t in tables[players]]

    else:
        core, feats = _operands(game, angles)
        # every block is contracted into this one buffer, player 0's table
        # at the front and the other players' tables behind it; a block's
        # tables are used up before the next is contracted
        buffer = np.empty(n * step * rest)

        def tables_of(rows, players):
            into = buffer[step * rest :] if players.start else buffer
            return _tables(core[players], [feats[0][rows], *feats[1:]], into)

    masks = np.empty((3, step * rest), dtype=bool)
    best0 = np.full([1, *dims[1:]], -np.inf)
    # the rows held so far, as blocks of flat profile indices, payoffs and
    # the other players' improvement; an empty block gives a search without
    # rows arrays of the right shapes
    held = [(np.empty(0, np.intp), np.empty((0, n)), np.empty(0))]
    count = 0
    for start in range(0, len(scanned), step):
        (t0,) = tables_of(scanned[start : start + step], slice(0, 1))
        np.maximum(best0, t0.max(axis=0, keepdims=True), out=best0)
        for _, mirror in pairs:
            # player 0's best reply to r covers r's partner's too
            np.maximum(best0, best0.reshape(-1)[mirror].reshape(best0.shape), out=best0)
        mask = masks[0][: t0.size].reshape(t0.shape)
        np.greater_equal(t0, best0 - eps, out=mask)
        # the block's player-0 strategies that hold a candidate
        live = np.flatnonzero(mask.reshape(len(t0), -1).any(axis=1))
        if not len(live):
            continue
        others = tables_of(scanned[start + live], slice(1, None))
        if len(live) < len(t0):
            into = masks[1][: len(live) * rest].reshape(len(live), *t0.shape[1:])
            mask = np.take(mask, live, axis=0, out=into)
        holds = masks[2][: mask.size].reshape(mask.shape)
        bests = [t.max(axis=i, keepdims=True) for i, t in enumerate(others, 1)]
        for t, b in zip(others, bests):
            mask &= np.greater_equal(t, b - eps, out=holds)
        # flat indices: np.nonzero on the n-d mask costs about 12x more
        flat = np.flatnonzero(mask)
        if not len(flat):
            continue
        idx = np.unravel_index(flat, mask.shape)
        # the rows' flat indices into the block's player-0 table, then
        # into the grid
        rows0 = live[idx[0]]
        at0 = flat + (rows0 - idx[0]) * rest
        pays = np.stack([t0.reshape(-1)[at0], *(t.reshape(-1)[flat] for t in others)], axis=1)
        gaps = np.full(len(flat), -np.inf)
        for i, b in enumerate(bests, 1):
            np.maximum(gaps, np.broadcast_to(b, mask.shape)[idx] - pays[:, i], out=gaps)
        profiles = flat + (scanned[start + rows0] - idx[0]) * rest
        for turn0, mirror in pairs:
            # each row's partner, with a copy of its payoffs and improvement:
            # player 0's running best replies are the same at both
            partners = turn0[profiles // rest] * rest + mirror[profiles % rest]
            profiles = np.concatenate([profiles, partners])
            pays, gaps = np.concatenate([pays, pays]), np.concatenate([gaps, gaps])
        held.append((profiles, pays, gaps))
        count += len(profiles)
        if max_rows is not None and count > max_rows:
            count = len(_allowed(held, best0, eps, rest)[0])
            if count > max_rows:
                # the player-0 strategies scanned, and their partners
                searched, total = (start + len(t0)) * 2 ** len(pairs) * rest, math.prod(dims)
                raise ValueError(
                    f"more than {max_rows:,} equilibrium rows: {count:,} in the first "
                    f"{searched:,} of {total:,} profiles, about "
                    f"{count * total / searched:,.0f} rows in all at that rate"
                )
    profiles, payoffs, improvements, best = _allowed(held, best0, eps, rest)
    # player 0's improvement, then the other players'
    np.maximum(best - payoffs[:, 0], improvements, out=improvements)
    # row-major order: partner rows come after each block's rows; a stable
    # sort takes linear time on rows already in order
    order = np.argsort(profiles, kind="stable")
    index = np.stack(np.unravel_index(profiles[order], dims), axis=1)
    return GridEquilibria(angles, index, improvements[order], payoffs[order])


def grid_pure_ne(game: EwlGame, grid: ParamGrid, eps: float = 1e-9) -> list[EpsEquilibrium]:
    """`grid_equilibria` as one `EpsEquilibrium` per row, in row-major
    profile order."""
    found = grid_equilibria(game, grid, eps)
    return [
        EpsEquilibrium(tuple(SU2Params(*a[k]) for a, k in zip(found.angles, ks)), e, tuple(p))
        for ks, e, p in zip(found.index.tolist(), found.eps.tolist(), found.payoffs.tolist())
    ]
