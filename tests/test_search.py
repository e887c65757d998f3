import math
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    best_reply_two_param,
    grid_equilibria_oracle,
    pd_game,
    refined,
    witness_deviation,
)
from qgame import (
    ClassicalGame,
    EwlGame,
    ParamGrid,
    StrategySpace,
    SU2Params,
    pure_nash_equilibria,
    two_param_payoff_closed_form,
)
from qgame import cli, search
from qgame.ewl import strategy_features, unrestricted_payoffs
from qgame.games import PAYOFF_TOL
from qgame.linalg import TWO_PI
from qgame.search import grid_equilibria, grid_payoff_tables, grid_pure_ne

T, R, P, S = 5.0, 3.0, 1.0, 0.0
RSTP = (R, S, T, P)
PD = pd_game(T, R, P, S)
PD_SWAPPED = ClassicalGame((("t", "b"), ("l", "r")), [[(S, T), (R, R)], [(P, P), (T, S)]])

D = StrategySpace.TWO_PARAM_ALPHA
ONE = StrategySpace.ONE_PARAM
SPACES = tuple(StrategySpace)

RNG = np.random.default_rng(55)


class TestParamGrid:
    def test_axes_and_freezing(self):
        grid = ParamGrid(theta=17, alpha=33, beta=5)
        pts = grid.strategies(D)
        thetas = sorted({p.theta for p in pts})
        alphas = sorted({p.alpha for p in pts})
        assert len(thetas) == 17 and thetas[0] == 0.0 and thetas[-1] == math.pi
        # inclusive endpoint 2pi collapses onto 0 after normalization
        assert len(alphas) == 32
        assert math.pi / 2 in alphas
        assert all(p.beta == 0.0 for p in pts)

    def test_frozen_axes_get_single_value(self):
        grid = ParamGrid(theta=3, alpha=9, beta=9)
        pts = grid.strategies(ONE)
        assert len(pts) == 3
        assert all(p.alpha == 0.0 and p.beta == 0.0 for p in pts)

    def test_refined_doubles_intervals(self):
        grid = ParamGrid(17, 33, 1)
        fine = refined(grid, 2)
        assert fine == ParamGrid(33, 65, 1)

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            ParamGrid(theta=1)
        with pytest.raises(ValueError):
            ParamGrid(alpha=0)

    @pytest.mark.parametrize(
        "steps, axis",
        [
            ((2.9, 33, 1), "theta"),
            ((17, 33.7, 1), "alpha"),
            ((17, 33, 1.0), "beta"),
            (("17", 33, 1), "theta"),
            ((17, 33, True), "beta"),
            ((17, np.True_, 1), "alpha"),
            ((17, None, 1), "alpha"),
            ((np.float64(17.0), 33, 1), "theta"),
        ],
    )
    def test_non_integral_steps_rejected(self, steps, axis):
        # counts are never truncated or parsed: ParamGrid(2.9, 33.7, 1)
        # would otherwise be the 2 x 33 grid
        with pytest.raises(ValueError, match=f"^{axis} axis needs an integer step count"):
            ParamGrid(*steps)

    def test_numpy_integer_steps_accepted(self):
        grid = ParamGrid(np.int64(17), np.uint8(33), np.int32(1))
        assert grid == ParamGrid(17, 33, 1)
        assert all(type(k) is int for k in (grid.theta, grid.alpha, grid.beta))


def product_grid(steps, space) -> list[list[float]]:
    """The grid as first defined: the theta linspace times each phase
    linspace reduced mod 2pi and deduplicated in order."""

    def phase(n):
        if n == 1:
            return (0.0,)
        return tuple(dict.fromkeys(v % TWO_PI for v in np.linspace(0.0, TWO_PI, n)))

    t, a, b = steps
    alphas = phase(1 if space.alpha_frozen else a)
    betas = phase(1 if space.beta_frozen else b)
    thetas = np.linspace(0.0, math.pi, t)
    return [[float(x), float(y), float(z)] for x, y, z in product(thetas, alphas, betas)]


class TestGridConsistency:
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("steps", [(2, 1, 1), (2, 2, 2), (5, 9, 3), (17, 33, 33), (4, 1, 7)])
    def test_angles_match_the_product_grid_and_strategies(self, space, steps):
        grid = ParamGrid(*steps)
        angles = grid.angles(space)
        assert angles.shape == (grid.size(space), 3)
        assert angles.tolist() == product_grid(steps, space)
        # SU2Params keeps the grid values as they are
        assert [list(p.as_tuple()) for p in grid.strategies(space)] == angles.tolist()

    @given(
        t=st.integers(2, 40),
        a=st.integers(1, 40),
        b=st.integers(1, 40),
        space=st.sampled_from(SPACES),
    )
    @settings(max_examples=300, deadline=None)
    def test_size_and_angles_follow_one_count(self, t, a, b, space):
        grid = ParamGrid(t, a, b)
        angles = grid.angles(space)
        assert angles.shape == (grid.size(space), 3)
        assert angles.tolist() == product_grid((t, a, b), space)

    @given(
        t=st.integers(2, 9),
        a=st.integers(1, 9),
        b=st.integers(1, 9),
        space=st.sampled_from(SPACES),
    )
    @settings(max_examples=300, deadline=None)
    def test_half_turn_pairs_each_point_with_its_phase_turned_by_pi(self, t, a, b, space):
        grid = ParamGrid(t, a, b)
        angles = grid.angles(space)
        turn = grid.half_turn(space)
        # the phase axes holding an even count of values, read off the angles
        even = [k for k in (1, 2) if len(set(angles[:, k].tolist())) % 2 == 0]
        if not even:
            assert turn is None
            return
        index = np.arange(len(angles))
        # an involution without fixed points
        assert turn.dtype == np.intp and turn.shape == index.shape
        assert np.array_equal(turn[turn], index) and not np.any(turn == index)
        # alpha + pi, or beta + pi when alpha holds an odd count
        moved = even[0]
        partners = angles[turn]
        kept = [k for k in range(3) if k != moved]
        assert np.array_equal(partners[:, kept], angles[:, kept])
        gap = np.abs(partners[:, moved] - (angles[:, moved] + math.pi) % TWO_PI)
        assert np.minimum(gap, TWO_PI - gap).max() <= 1e-12

    @pytest.mark.parametrize("eps", [1e-9, 2.0])
    def test_rows_rebuilt_from_the_arrays(self, eps):
        rng = np.random.default_rng(13)
        g = ClassicalGame((("a", "b"),) * 3, rng.uniform(0, 10, size=(2, 2, 2, 3)))
        game = EwlGame(g, (StrategySpace.TWO_PARAM_BETA, ONE, StrategySpace.FULL_SU2))
        grid = ParamGrid(5, 5, 3)
        arrays = grid_equilibria(game, grid, eps)
        k = len(arrays.eps)
        assert arrays.index.shape == (k, 3) and arrays.payoffs.shape == (k, 3)
        rebuilt = [
            (
                tuple(SU2Params(*arrays.angles[i][row[i]]) for i in range(3)),
                float(arrays.eps[r]),
                tuple(float(v) for v in arrays.payoffs[r]),
            )
            for r, row in enumerate(arrays.index)
        ]
        assert [(eq.profile, eq.eps, eq.payoffs) for eq in grid_pure_ne(game, grid, eps)] == rebuilt
        # row-major profile order
        index = arrays.index.tolist()
        assert index == sorted(index)


class TestFlatIndices:
    @pytest.mark.parametrize("eps", [1e-9, 2.0])
    @pytest.mark.parametrize(
        "spaces,steps",
        [
            ((D, StrategySpace.FULL_SU2), (9, 9, 3)),
            ((StrategySpace.TWO_PARAM_BETA, ONE, StrategySpace.FULL_SU2), (5, 5, 3)),
            ((StrategySpace.FULL_SU2, StrategySpace.TWO_PARAM_BETA, ONE, D), (3, 5, 3)),
        ],
    )
    def test_arrays_equal_the_nonzero_gather(self, spaces, steps, eps):
        n = len(spaces)
        # a seed with rows at both eps in every case
        rng = np.random.default_rng(3)
        g = ClassicalGame((("a", "b"),) * n, rng.uniform(0, 10, size=(2,) * n + (n,)))
        game = EwlGame(g, spaces)
        grid = ParamGrid(*steps)
        got, want = grid_equilibria(game, grid, eps), grid_equilibria_oracle(game, grid, eps)
        for a, b in zip(got.angles, want.angles):
            assert np.array_equal(a, b)
        for name in ("index", "eps", "payoffs"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
        assert len(got.eps) > 0
        if (turns := half_turns(grid, spaces)) is None:
            for name in ("index", "eps", "payoffs"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            every = grid_equilibria_oracle(game, grid, math.inf)
            flat = assert_rows_match_the_oracle(every, eps, got)
            assert_half_scan_reads_the_tables(got, every, flat, turns)


def random_search(seed, spaces, steps):
    n = len(spaces)
    rng = np.random.default_rng(seed)
    g = ClassicalGame((("a", "b"),) * n, rng.uniform(0, 10, size=(2,) * n + (n,)))
    game = EwlGame(g, spaces)
    grid = ParamGrid(*steps)
    return game, grid, [grid.size(s) for s in spaces]


def blocks_of(dims, count) -> int:
    """`BLOCK_BYTES` that splits a scan of all of player 0's `dims[0]`
    strategies into `count` blocks, or for "many" one block per player-0
    strategy. A search that scans half of them takes half as many."""
    rest = 8 * len(dims) * math.prod(dims[1:])
    if count == "many":
        return 1
    return rest * -(-dims[0] // count)


def half_turns(grid, spaces):
    """Every player's `ParamGrid.half_turn` map, or None when a player's
    grid has none."""
    turns = [grid.half_turn(s) for s in spaces]
    return None if any(t is None for t in turns) else turns


def assert_rows_match_the_oracle(every, eps, got):
    """`got`'s rows are those of `every`, the dense oracle's rows at every
    profile, with an improvement of at most eps, in row-major order, but
    for ties: profiles whose improvement is within 1e-12 of eps. Their
    payoffs and improvements are the oracle's within PAYOFF_TOL. Returns
    the flat profile indices of `got`'s rows."""
    flat = np.ravel_multi_index(got.index.T, [len(a) for a in every.angles])
    assert np.all(np.diff(flat) > 0)
    ties = np.setxor1d(flat, np.flatnonzero(every.eps <= eps))
    assert np.all(np.abs(every.eps[ties] - eps) <= 1e-12)
    assert np.abs(got.payoffs - every.payoffs[flat]).max(initial=0.0) <= PAYOFF_TOL
    assert np.abs(got.eps - every.eps[flat]).max(initial=0.0) <= PAYOFF_TOL
    return flat


def assert_half_scan_reads_the_tables(got, every, flat, turns):
    """The rows of a one-block search that scans the player-0 strategies
    below their half-turn partners: the scanned rows' payoffs are the
    whole tables' bit for bit, and each partner row is a bitwise copy of
    its row."""
    s = got.index[:, 0]
    scanned = s < turns[0][s]
    assert got.payoffs[scanned].tobytes() == every.payoffs[flat[scanned]].tobytes()
    assert_closed_under_the_half_turn(got, turns)


def held_rows(game, grid, eps, step):
    """(end, held, unpruned) for each block of `step` player-0 strategies
    that a search scans, from the whole payoff tables: the number of
    player-0 strategies covered once the block is scanned, the rows a
    search holds after it once player 0's running best replies have
    dropped what they rule out, and the rows it holds if it drops none.

    A search on a grid where every player has half-turn partners scans
    the strategies below their partners; each row it finds stands for its
    partner row too, and its best replies to the others' profile r cover
    r's partner as well."""
    tables = grid_payoff_tables(game, [grid.angles(s) for s in game.spaces])
    others = np.ones(tables[0].shape, dtype=bool)
    for i, t in enumerate(tables[1:], 1):
        others &= t >= t.max(axis=i, keepdims=True) - eps
    m = len(tables[0])
    turns = half_turns(grid, game.spaces)
    scanned = np.arange(m) if turns is None else np.flatnonzero(np.arange(m) < turns[0])
    copies = 1 if turns is None else 2
    t0, others = tables[0][scanned], others[scanned]
    unpruned, out = 0, []
    for start in range(0, len(scanned), step):
        end = min(start + step, len(scanned))
        best = t0[:end].max(axis=0)
        if turns is not None:
            best = np.maximum(best, best[np.ix_(*turns[1:])])
        passes = others[:end] & (t0[:end] >= best - eps)
        unpruned += copies * int(passes[start:end].sum())
        out.append((copies * end, copies * int(passes.sum()), unpruned))
    return out


def assert_closed_under_the_half_turn(found, turns):
    """The rows' half-turn partners are the rows, each with its partner's
    payoffs and improvement, bit for bit."""
    partners = np.stack([t[k] for t, k in zip(turns, found.index.T)], axis=1)
    # row r's partner is row order[r]
    order = np.lexsort(partners.T[::-1])
    assert np.array_equal(partners[order], found.index)
    assert found.payoffs[order].tobytes() == found.payoffs.tobytes()
    assert found.eps[order].tobytes() == found.eps.tobytes()


class TestBlockedSearch:
    @given(
        seed=st.integers(0, 2**32 - 1),
        spaces=st.lists(st.sampled_from(SPACES), min_size=1, max_size=4),
        steps=st.tuples(st.integers(2, 4), st.integers(1, 5), st.integers(1, 4)),
        eps_share=st.floats(0.0, 1.2),
        blocks=st.sampled_from([1, 2, 4, "many"]),
    )
    @settings(max_examples=200, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    # one player, scanned by halves one strategy at a time
    @example(seed=1, spaces=[StrategySpace.FULL_SU2], steps=(4, 5, 4), eps_share=0.3, blocks="many")
    # half-turns on the alpha axis for player 0, on the beta axis for player 1
    @example(seed=2, spaces=[D, StrategySpace.TWO_PARAM_BETA], steps=(3, 5, 5), eps_share=0.4, blocks=2)
    def test_rows_equal_the_dense_oracle(self, seed, spaces, steps, eps_share, blocks):
        game, grid, dims = random_search(seed, tuple(spaces), steps)
        assume(math.prod(dims) <= 5000)
        # every profile with its improvement, from the whole tables
        every = grid_equilibria_oracle(game, grid, math.inf)
        span = float(every.payoffs.max() - every.payoffs.min())
        eps = eps_share * span
        with mock.patch.object(search, "BLOCK_BYTES", blocks_of(dims, blocks)):
            got = grid_equilibria(game, grid, eps)
        # one read-only angle array per distinct space
        for i, a in enumerate(got.angles):
            assert not a.flags.writeable
            assert [a is b for b in got.angles] == [spaces[i] == s for s in spaces]
        flat = assert_rows_match_the_oracle(every, eps, got)
        turns = half_turns(grid, spaces)
        if turns is not None:
            assert_closed_under_the_half_turn(got, turns)
        if blocks == 1 and turns is None:
            want = grid_equilibria_oracle(game, grid, eps)
            for name in ("index", "eps", "payoffs"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        elif blocks == 1:
            assert_half_scan_reads_the_tables(got, every, flat, turns)

    @pytest.mark.parametrize("blocks", [1, 2, "many"])
    def test_row_limit_stops_before_the_rows_pass_it(self, blocks):
        game, grid, dims = random_search(3, (D, StrategySpace.FULL_SU2), (5, 5, 3))
        with mock.patch.object(search, "BLOCK_BYTES", blocks_of(dims, blocks)):
            found = grid_equilibria(game, grid, 2.0)
            k = len(found.eps)
            assert k > 10
            again = grid_equilibria(game, grid, 2.0, max_rows=k)
            assert again.index.tobytes() == found.index.tobytes()
            with pytest.raises(ValueError, match=f"more than {k - 1:,} equilibrium rows"):
                grid_equilibria(game, grid, 2.0, max_rows=k - 1)

    # the full space has more grid strategies than the alpha plane: player
    # 0 has the most strategies in the first order, the fewest in the second
    @pytest.mark.parametrize("spaces", [(StrategySpace.FULL_SU2, D), (D, StrategySpace.FULL_SU2)])
    def test_blocks_share_one_tables_buffer(self, spaces):
        game, grid, dims = random_search(3, spaces, (5, 5, 3))
        calls = []

        def tables(core, feats, buffer):
            out = _tables(core, feats, buffer)
            calls.append((len(core), len(feats[0]), buffer, out))
            return out

        _tables = search._tables
        # four blocks of all player-0 strategies are two of the half scanned
        with (
            mock.patch.object(search, "BLOCK_BYTES", blocks_of(dims, 4)),
            mock.patch.object(search, "_tables", tables),
        ):
            found = grid_equilibria(game, grid, 0.5)
            step = search._block_strategies(dims)
        # per block of the player-0 strategies below their half-turn
        # partners, player 0's table, then the other player's table on the
        # block's rows that hold a candidate for player 0; player 0's best
        # replies to a profile cover its partner's
        turns = half_turns(grid, spaces)
        t0 = grid_payoff_tables(game, [grid.angles(s) for s in spaces])[0]
        t0 = t0[np.arange(dims[0]) < turns[0]]
        want = []
        for start in range(0, len(t0), step):
            block = t0[start : start + step]
            best = t0[: start + step].max(axis=0)
            best = np.maximum(best, best[turns[1]])
            live = int((block >= best - 0.5).any(axis=1).sum())
            want += [(1, len(block))] + [(1, live)] * (live > 0)
        assert [(p, k) for p, k, _, _ in calls] == want
        # two blocks, and the second has strategies without a candidate
        assert len(want) == 4 and 0 < want[-1][1] < step
        # one buffer of a block's tables: player 0's table at its front,
        # the other player's tables behind it
        buffer, rest = calls[0][2], math.prod(dims[1:])
        assert all(b is buffer for _, _, b, _ in calls[::2])
        behind = len(buffer) - step * rest
        assert all(b.base is buffer and len(b) == behind for _, _, b, _ in calls[1::2])
        assert buffer.nbytes == 8 * len(dims) * step * rest
        # every table, player 0's and the other player's, is a view of it
        assert all(t.base is buffer for *_, out in calls for t in out)
        assert all(np.shares_memory(out[0], buffer[: out[0].size]) for *_, out in calls[::2])
        want = grid_equilibria_oracle(game, grid, 0.5)
        assert found.index.tobytes() == want.index.tobytes()

    @pytest.mark.parametrize("blocks", [1, 2, 4, "many"])
    def test_row_limit_error_projects_the_row_count(self, blocks):
        game, grid, dims = random_search(3, (D, StrategySpace.FULL_SU2), (5, 5, 3))
        rest, total = math.prod(dims[1:]), math.prod(dims)
        with mock.patch.object(search, "BLOCK_BYTES", blocks_of(dims, blocks)):
            limit = len(grid_equilibria(game, grid, 2.0).eps) // 2
            # the search stops at the end of the first block after which it
            # holds more rows than the limit, once player 0's running best
            # replies have dropped the rows they rule out; a blocked search
            # holds each row with its half-turn partner, and has covered
            # the scanned strategies' partners too
            step = search._block_strategies(dims)
            end, rows = next((e, h) for e, h, _ in held_rows(game, grid, 2.0, step) if h > limit)
            with pytest.raises(ValueError) as err:
                grid_equilibria(game, grid, 2.0, max_rows=limit)
        assert str(err.value) == (
            f"more than {limit:,} equilibrium rows: {rows:,} in the first {end * rest:,} of "
            f"{total:,} profiles, about {rows * total / (end * rest):,.0f} rows in all at that rate"
        )

    @pytest.mark.parametrize(
        "spaces,steps,scanned",
        [
            # half-turns on the alpha axis, 20 and 40 strategies
            ((D, StrategySpace.FULL_SU2), (5, 5, 3), 10),
            # 3 alpha values and 2 beta values: half-turns on the beta axis
            ((StrategySpace.FULL_SU2,) * 2, (3, 4, 3), 9),
            ((StrategySpace.TWO_PARAM_BETA, D, StrategySpace.FULL_SU2), (3, 3, 3), 3),
            # 3 alpha values and no beta axis: no partners
            ((D, D), (5, 4, 1), 15),
            # player 0, or player 1, without partners
            ((ONE, D), (5, 5, 1), 5),
            ((D, ONE), (9, 5, 1), 36),
        ],
    )
    def test_blocked_search_scans_half_of_player_0_on_half_turn_grids(self, spaces, steps, scanned):
        game, grid, dims = random_search(4, spaces, steps)
        buffers = []

        def tables(core, feats, buffer):
            buffers.append((buffer, len(feats[0])))
            return _tables(core, feats, buffer)

        _tables = search._tables
        with (
            mock.patch.object(search, "BLOCK_BYTES", blocks_of(dims, "many")),
            mock.patch.object(search, "_tables", tables),
        ):
            found = grid_equilibria(game, grid, 1.0)
        # player 0's tables go to the front of the block buffer
        assert sum(k for b, k in buffers if b is buffers[0][0]) == scanned
        assert (scanned < dims[0]) == (half_turns(grid, spaces) is not None)
        want = grid_equilibria_oracle(game, grid, 1.0)
        assert found.index.tobytes() == want.index.tobytes()

    @pytest.mark.parametrize("blocks", [1, 2, "many"])
    def test_only_a_one_block_search_takes_the_whole_grid_tables(self, blocks):
        # the one fork left in the search is where its tables come from: a
        # grid of one block from one `grid_payoff_tables` call over the
        # whole grid, a larger one from its block buffer
        game, grid, dims = random_search(3, (D, StrategySpace.FULL_SU2), (5, 5, 3))
        with (
            mock.patch.object(search, "BLOCK_BYTES", blocks_of(dims, blocks)),
            mock.patch.object(search, "grid_payoff_tables", wraps=grid_payoff_tables) as whole,
        ):
            found = grid_equilibria(game, grid, 2.0)
        if blocks == 1:
            whole.assert_called_once()
            (called, angles), _ = whole.call_args
            assert called is game and [len(a) for a in angles] == dims
            assert all(np.array_equal(a, grid.angles(s)) for a, s in zip(angles, game.spaces))
        else:
            whole.assert_not_called()
        assert len(found.eps) > 10

    @pytest.mark.parametrize(
        "space,steps,eps,rows",
        [
            (D, (17, 33, 1), 1.0, 1000),
            (StrategySpace.FULL_SU2, (9, 17, 17), 2.0, 1000),
            # grids of one block, whose tables come from one
            # `grid_payoff_tables` call
            (D, (9, 17, 1), 1.0, 500),
            (StrategySpace.FULL_SU2, (3, 9, 9), 2.0, 1000),
        ],
    )
    def test_pd_rows_are_closed_under_the_half_turn(self, space, steps, eps, rows):
        # integer payoffs at an integer eps: many rows have an improvement
        # of eps up to rounding, and a scan of every player-0 strategy kept
        # some of these rows but not their partners
        game, grid = EwlGame(PD, (space,) * 2), ParamGrid(*steps)
        found = grid_equilibria(game, grid, eps)
        assert len(found.eps) > rows
        assert_closed_under_the_half_turn(found, half_turns(grid, game.spaces))

    @pytest.mark.parametrize("blocks", [2, "many"])
    @pytest.mark.parametrize(
        "spaces,steps", [((D, StrategySpace.FULL_SU2), (5, 5, 3)), ((ONE,) * 3, (9, 1, 1))]
    )
    def test_later_blocks_drop_held_rows(self, spaces, steps, blocks):
        # player 0's best replies rise in a later block, so some rows held
        # after an earlier one are not rows. `blocks` blocks of what the
        # search scans: half of player 0's strategies when the grid has
        # half-turn partners
        game, grid, dims = random_search(2, spaces, steps)
        if blocks != "many" and half_turns(grid, spaces) is not None:
            blocks *= 2
        with mock.patch.object(search, "BLOCK_BYTES", blocks_of(dims, blocks)):
            step = search._block_strategies(dims)
            found = grid_equilibria(game, grid, 0.5)
        _, held, unpruned = held_rows(game, grid, 0.5, step)[-1]
        assert unpruned > held == len(found.eps) > 0
        want = grid_equilibria_oracle(game, grid, 0.5)
        assert found.index.tobytes() == want.index.tobytes()
        assert np.abs(found.payoffs - want.payoffs).max() <= PAYOFF_TOL
        assert np.abs(found.eps - want.eps).max() <= PAYOFF_TOL

    def test_row_limit_at_the_row_count_drops_held_rows_mid_search(self):
        game, grid, dims = random_search(2, (D, StrategySpace.FULL_SU2), (5, 5, 3))
        held = []
        allowed = search._allowed

        def count_held(blocks, *args):
            held.append(sum(len(profiles) for profiles, _, _ in blocks))
            return allowed(blocks, *args)

        with mock.patch.object(search, "BLOCK_BYTES", blocks_of(dims, "many")):
            found = grid_equilibria(game, grid, 0.5)
            k = len(found.eps)
            with mock.patch.object(search, "_allowed", count_held):
                again = grid_equilibria(game, grid, 0.5, max_rows=k)
            with pytest.raises(ValueError, match=f"more than {k - 1:,} equilibrium rows"):
                grid_equilibria(game, grid, 0.5, max_rows=k - 1)
        # the search held more than k rows before its last block, and
        # dropped the rows player 0's running best replies ruled out
        assert len(held) > 1 and held[0] > k
        for name in ("index", "eps", "payoffs"):
            assert getattr(again, name).tobytes() == getattr(found, name).tobytes()

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("kept", [0.5, 1.0])
    def test_held_rows_are_held_at_most_twice(self, n, kept):
        # three blocks of 3,000 rows over 40 profiles of the other players,
        # with player 0's payoffs uniform in [0, 1) and best replies of
        # 1 - kept, so about `kept` of the rows stay. The blocks are traced
        # from their allocation, and `_allowed` may hold their rows once
        # more
        rng = np.random.default_rng(n)
        rest, eps = 40, 0.0
        tracemalloc.start()
        try:
            held = [
                (rng.integers(0, 50 * rest, 3000), rng.random((3000, n)), rng.random(3000))
                for _ in range(3)
            ]
            best0 = np.full((1, rest), 1.0 - kept)
            size = sum(a.nbytes for block in held for a in block)
            rows = sum(int((pays[:, 0] >= 1.0 - kept).sum()) for _, pays, _ in held)
            tracemalloc.reset_peak()
            profiles, payoffs, improvements, best = search._allowed(held, best0, eps, rest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * size + (8 << 10)
        # the kept rows are the only block left
        assert len(held) == 1 and all(a is b for a, b in zip(held[0], (profiles, payoffs, improvements)))
        assert len(profiles) == rows > 0
        assert np.array_equal(best, best0.reshape(-1)[profiles % rest])

    @pytest.mark.parametrize(
        "space,kept", [(StrategySpace.FULL_SU2, 10), (D, 6), (StrategySpace.TWO_PARAM_BETA, 6), (ONE, 3)]
    )
    def test_kept_features_are_the_nonzero_columns(self, space, kept):
        angles = ParamGrid(5, 9, 3).angles(space)
        got, keep = search._kept_features(angles)
        assert len(keep) == kept
        assert got.tobytes() == strategy_features(angles)[:, keep].tobytes()

    def test_features_formed_in_one_pass_hold_one_block(self):
        # 17,408 full-space strategies: besides their features, 80 bytes a
        # strategy as formed and again as kept, forming them in one pass
        # holds less than one block of temporaries. The stacked gather
        # held 288 bytes a strategy at once
        angles = ParamGrid(17, 33, 33).angles(StrategySpace.FULL_SU2)
        tracemalloc.start()
        try:
            search._kept_features(angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 80 * len(angles) + search.BLOCK_BYTES

    def test_full_su2_north_star_grid_runs_within_32_mib(self):
        # Benjamin & Hayden: over full SU(2) the EWL prisoner's dilemma
        # has no pure equilibrium; 303 million profiles
        game = EwlGame(PD, (StrategySpace.FULL_SU2,) * 2)
        grid = ParamGrid(17, 33, 33)
        tracemalloc.start()
        try:
            found = grid_equilibria(game, grid, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found.eps) == 0
        assert peak < 32 * 2**20
        # and within what `ne` counts for it, besides its rows
        assert peak <= cli._ne_need([grid.size(s) for s in game.spaces])


def space_angles(rng, space, m) -> np.ndarray:
    """m random (theta, alpha, beta) rows of `space`, frozen phases 0."""
    angles = rng.uniform(0.0, TWO_PI, size=(m, 3))
    angles[:, 0] /= 2
    angles[:, 1] *= not space.alpha_frozen
    angles[:, 2] *= not space.beta_frozen
    return angles


class TestPayoffTables:
    @given(
        seed=st.integers(0, 2**32 - 1),
        spaces=st.lists(st.sampled_from(SPACES), min_size=1, max_size=4),
        sizes=st.lists(st.integers(1, 5), min_size=4, max_size=4),
        # each player's strategies, as an index into the players' own
        # arrays: players may share one array
        picks=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_tables_equal_the_ten_column_contraction(self, seed, spaces, sizes, picks):
        n = len(spaces)
        rng = np.random.default_rng(seed)
        g = ClassicalGame((("a", "b"),) * n, rng.uniform(0, 10, size=(2,) * n + (n,)))
        game = EwlGame(g, tuple(spaces))
        own = [space_angles(rng, s, m) for s, m in zip(spaces, sizes)]
        angles = [own[k % n] for k in picks[:n]]
        dims = [len(a) for a in angles]
        got = grid_payoff_tables(game, angles)
        feats = [strategy_features(a) for a in angles]
        want = search._tables(game.payoff_core, feats, np.empty(n * math.prod(dims)))
        for a, b in zip(got, want):
            assert a.shape == b.shape == tuple(dims)
            assert np.abs(a - b).max() <= PAYOFF_TOL

    def test_one_full_su2_strategy_keeps_all_ten_columns(self):
        # contracted first, as the 1-strategy opponent of `surface`
        game = EwlGame(PD_SWAPPED)
        mine = ParamGrid(33, 65, 1).angles(D)
        theirs = np.array([[0.7, 1.3, 0.4]])
        _, keep = search._kept_features(theirs)
        assert keep.tolist() == list(range(10))
        got = grid_payoff_tables(game, [theirs, mine])
        feats = [strategy_features(theirs), strategy_features(mine)]
        want = search._tables(game.payoff_core, feats, np.empty(2 * len(mine)))
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= PAYOFF_TOL

    # player 0 with the fewest strategies, and with the most
    @pytest.mark.parametrize(
        "spaces",
        [
            (ONE, D),
            (ONE, D, StrategySpace.FULL_SU2),
            (StrategySpace.FULL_SU2, D, ONE),
            (D, ONE),
        ],
    )
    def test_tables_are_views_of_one_buffer(self, spaces):
        game, grid, dims = random_search(5, spaces, (3, 3, 3))
        buffers = []

        def tables(core, feats, buffer):
            buffers.append(buffer)
            return _tables(core, feats, buffer)

        _tables = search._tables
        with mock.patch.object(search, "_tables", tables):
            got = grid_payoff_tables(game, [grid.angles(s) for s in spaces])
        [buffer] = buffers
        assert buffer.size == len(dims) * math.prod(dims)
        assert all(t.base is buffer for t in got)

    @pytest.mark.parametrize(
        "players,message", [(2, "empty strategy grid"), (1, "need one strategy list per player")]
    )
    def test_empty_grid_and_wrong_list_count_rejected(self, players, message):
        angles = [np.empty((0, 3)), ParamGrid(3, 1, 1).angles(ONE)][:players]
        with pytest.raises(ValueError, match=message):
            grid_payoff_tables(EwlGame(PD), angles)

    @pytest.mark.parametrize(
        "shape", [(3, 2), (3,), (2, 3, 1), (1, 6)], ids=["3x2", "flat", "3-d", "1x6"]
    )
    def test_strategy_lists_not_m_by_3_rejected(self, shape):
        # three (theta, alpha) rows would be read as two strategies
        bad = np.full(shape, 0.5)
        for angles in ([bad, bad], [ParamGrid(3, 1, 1).angles(ONE), bad]):
            with pytest.raises(ValueError, match=r"need \(m, 3\) arrays of strategies"):
                grid_payoff_tables(EwlGame(PD), angles)


class TestGridPureNE:
    def test_pd_quantum_equilibrium_found(self):
        game = EwlGame(PD, (D, D))
        grid = ParamGrid(17, 33, 1)
        found = grid_pure_ne(game, grid, eps=1e-9)
        magic = SU2Params(0.0, math.pi / 2, 0.0)
        hits = [eq for eq in found if eq.profile == (magic, magic)]
        assert len(hits) == 1
        assert np.allclose(hits[0].payoffs, [R, R], atol=1e-10)
        # every surviving profile sits on the cooperative payoff
        for eq in found:
            assert np.allclose(eq.payoffs, [R, R], atol=1e-9)

    def test_swapped_pd_has_no_grid_equilibrium(self):
        game = EwlGame(PD_SWAPPED, (D, D))
        grid = ParamGrid(17, 33, 1)
        assert grid_pure_ne(game, grid, eps=0.05) == []

    def test_refinement_keeps_swapped_pd_empty(self):
        game = EwlGame(PD_SWAPPED, (D, D))
        coarse = ParamGrid(9, 17, 1)
        assert grid_pure_ne(game, coarse, eps=0.05) == []
        assert grid_pure_ne(game, refined(coarse, 2), eps=0.05) == []

    def test_classical_embedding_matches_pure_nash(self):
        game = EwlGame(PD, (ONE, ONE))
        grid = ParamGrid(theta=2, alpha=1, beta=1)
        found = grid_pure_ne(game, grid, eps=1e-9)
        assert len(found) == 1
        eq = found[0]
        assert eq.profile[0].theta == math.pi and eq.profile[1].theta == math.pi
        assert np.allclose(eq.payoffs, [P, P], atol=1e-12)
        # agreement with the classical solver: theta=0 -> index 0, pi -> 1
        profiles = {
            tuple(0 if p.theta == 0.0 else 1 for p in eq.profile) for eq in found
        }
        assert profiles == set(pure_nash_equilibria(PD))

    def test_classical_embedding_random_games(self):
        rng = np.random.default_rng(10)
        grid3 = ParamGrid(theta=2, alpha=1, beta=1)
        for _ in range(10):
            payoffs = rng.integers(0, 6, size=(2, 2, 2, 3)).astype(float)
            g = ClassicalGame((("a", "b"), ("c", "d"), ("e", "f")), payoffs)
            game = EwlGame(g, (ONE,) * 3)
            found = grid_pure_ne(game, grid3, eps=1e-9)
            profiles = {
                tuple(0 if p.theta == 0.0 else 1 for p in eq.profile) for eq in found
            }
            assert profiles == set(pure_nash_equilibria(g))

    def test_reported_improvement_is_small_at_equilibria(self):
        game = EwlGame(PD, (ONE, ONE))
        grid = ParamGrid(theta=2, alpha=1, beta=1)
        for eq in grid_pure_ne(game, grid, eps=1e-9):
            assert 0.0 <= eq.eps <= 1e-9

    def test_matches_the_per_row_loop_bitwise(self):
        # eps near the payoff gaps keeps hundreds of rows; the reference
        # computes each row's improvement with a per-player loop
        rng = np.random.default_rng(12)
        g = ClassicalGame((("a", "b"),) * 3, rng.uniform(0, 10, size=(2, 2, 2, 3)))
        game = EwlGame(g, (D, ONE, StrategySpace.FULL_SU2))
        grid = ParamGrid(5, 5, 3)
        found = grid_pure_ne(game, grid, eps=2.0)
        lists = [grid.strategies(s) for s in game.spaces]
        tables = grid_payoff_tables(game, [grid.angles(s) for s in game.spaces])
        bests = [t.max(axis=i, keepdims=True) for i, t in enumerate(tables)]
        expected = []
        for idx in np.argwhere(np.all([t >= b - 2.0 for t, b in zip(tables, bests)], axis=0)):
            t = tuple(int(v) for v in idx)
            improvement = max(
                float(bests[i][tuple(0 if k == i else t[k] for k in range(3))] - tables[i][t])
                for i in range(3)
            )
            profile = tuple(lists[i][t[i]] for i in range(3))
            expected.append((profile, improvement, tuple(float(tables[i][t]) for i in range(3))))
        assert 100 < len(expected) < math.prod(tables[0].shape)
        assert [(eq.profile, eq.eps, eq.payoffs) for eq in found] == expected


class TestBestReply:
    def test_low_branch(self):
        reply = best_reply_two_param((0.0, 0.0))
        assert reply == SU2Params(0.0, 1.5 * math.pi, 0.0)
        u1, _ = two_param_payoff_closed_form(reply, (0.0, 0.0), RSTP)
        assert u1 == pytest.approx(T, abs=1e-12)

    def test_high_branch(self):
        opp = (math.pi / 2, 7 * math.pi / 4)
        reply = best_reply_two_param(opp)
        assert reply.theta == pytest.approx(math.pi / 2)
        assert reply.alpha == pytest.approx(7 * math.pi / 4)
        u1, _ = two_param_payoff_closed_form(reply, opp, RSTP)
        assert u1 == pytest.approx(T, abs=1e-10)

    def test_branch_boundary_agrees(self):
        theta = 0.8
        a = best_reply_two_param((theta, 1.5 * math.pi))
        b = SU2Params(theta, (3.5 * math.pi - 1.5 * math.pi) % TWO_PI, 0.0)
        assert a.alpha % TWO_PI == pytest.approx(0.0, abs=1e-12)
        assert b.alpha % TWO_PI == pytest.approx(0.0, abs=1e-12)

    def test_reaches_temptation_for_random_opponents(self):
        game = EwlGame(PD_SWAPPED, (D, D))
        for _ in range(200):
            opp = SU2Params(RNG.uniform(0, math.pi), RNG.uniform(0, TWO_PI), 0.0)
            reply = best_reply_two_param(opp)
            u = unrestricted_payoffs(game, (reply, opp))
            assert abs(u[0] - T) < 1e-10

    def test_grid_optimality(self):
        # the analytic reply beats every grid alternative
        game = EwlGame(PD_SWAPPED, (D, D))
        grid = ParamGrid(9, 17, 1)
        alternatives = grid.strategies(D)
        for _ in range(10):
            opp = SU2Params(RNG.uniform(0, math.pi), RNG.uniform(0, TWO_PI), 0.0)
            reply_payoff = unrestricted_payoffs(game, (best_reply_two_param(opp), opp))[0]
            for alt in alternatives:
                assert reply_payoff >= unrestricted_payoffs(game, (alt, opp))[0] - 1e-10


class TestAngleReader:
    @pytest.mark.parametrize("alpha", [0.0, 1.25, 3.0, 5.5])
    def test_pairs_and_params_agree_bitwise(self, alpha):
        # for these alphas, reducing alpha + 2pi mod 2pi gives alpha back exactly
        assert (alpha + TWO_PI) % TWO_PI == alpha
        forms = [(0.75, alpha), (0.75, alpha + TWO_PI), SU2Params(0.75, alpha)]
        fixed = (2.0, 4.5)
        for fn in (
            lambda p: two_param_payoff_closed_form(p, fixed, RSTP),
            lambda p: two_param_payoff_closed_form(fixed, p, RSTP),
            best_reply_two_param,
            witness_deviation,
        ):
            results = [fn(p) for p in forms]
            assert results[1] == results[0] and results[2] == results[0]


class TestWitnessDeviation:
    def test_worked_values(self):
        w = witness_deviation((0.0, math.pi / 2))
        assert w == SU2Params(0.0, 1.5 * math.pi, 0.0)
        _, u2 = two_param_payoff_closed_form((0.0, math.pi / 2), w, RSTP)
        assert u2 > S

    def test_flipped_player_one(self):
        w = witness_deviation((math.pi, 0.0))
        assert w == SU2Params(0.0, 0.0, 0.0)
        _, u2 = two_param_payoff_closed_form((math.pi, 0.0), w, RSTP)
        assert u2 == pytest.approx(P, abs=1e-12)
        assert u2 > S

    def test_zero_strategy(self):
        w = witness_deviation((0.0, 0.0))
        assert w == SU2Params(0.0, 0.0, 0.0)
        _, u2 = two_param_payoff_closed_form((0.0, 0.0), w, RSTP)
        # the all-zero profile lands on the (S, T) cell
        assert u2 == pytest.approx(T, abs=1e-12)
        assert u2 > S

    def test_strictly_beats_sucker_payoff_everywhere(self):
        min_margin = math.inf
        for _ in range(300):
            p1 = SU2Params(RNG.uniform(0, math.pi), RNG.uniform(0, TWO_PI), 0.0)
            _, u2 = two_param_payoff_closed_form(p1, witness_deviation(p1), RSTP)
            min_margin = min(min_margin, u2 - S)
        assert min_margin > 0.0
