import math
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from helpers import grid_equilibria_oracle
from qgame import (
    ClassicalGame,
    EwlGame,
    ParamGrid,
    StrategySpace,
    SU2Params,
    best_reply_two_param,
    bimatrix,
    grid_pure_ne,
    pd_game,
    pure_nash_equilibria,
    two_param_payoff_closed_form,
    unrestricted_payoffs,
    witness_deviation,
)
from qgame import search
from qgame.games import PAYOFF_TOL
from qgame.linalg import TWO_PI
from qgame.search import (
    grid_equilibria,
    grid_payoff_tables,
    grid_row_bytes,
    grid_search_bytes,
    grid_table_bytes,
)

T, R, P, S = 5.0, 3.0, 1.0, 0.0
RSTP = (R, S, T, P)
PD = pd_game(T, R, P, S)
PD_SWAPPED = bimatrix(("t", "b"), ("l", "r"), [[(S, T), (R, R)], [(P, P), (T, S)]])

D = StrategySpace.TWO_PARAM_ALPHA
ONE = StrategySpace.ONE_PARAM
SPACES = tuple(StrategySpace)

RNG = np.random.default_rng(55)


class TestParamGrid:
    def test_axes_and_freezing(self):
        grid = ParamGrid.uniform(2, theta=17, alpha=33, beta=5)
        pts = grid.strategies(0, D)
        thetas = sorted({p.theta for p in pts})
        alphas = sorted({p.alpha for p in pts})
        assert len(thetas) == 17 and thetas[0] == 0.0 and thetas[-1] == math.pi
        # inclusive endpoint 2pi collapses onto 0 after normalization
        assert len(alphas) == 32
        assert math.pi / 2 in alphas
        assert all(p.beta == 0.0 for p in pts)

    def test_frozen_axes_get_single_value(self):
        grid = ParamGrid.uniform(1, theta=3, alpha=9, beta=9)
        pts = grid.strategies(0, ONE)
        assert len(pts) == 3
        assert all(p.alpha == 0.0 and p.beta == 0.0 for p in pts)

    def test_refined_doubles_intervals(self):
        grid = ParamGrid.uniform(2, 17, 33, 1)
        fine = grid.refined(2)
        assert fine.steps[0] == (33, 65, 1)

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            ParamGrid.uniform(1, theta=1)
        with pytest.raises(ValueError):
            ParamGrid.uniform(1, alpha=0)


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
        grid = ParamGrid((steps,))
        angles = grid.angles(0, space)
        assert angles.shape == (grid.size(0, space), 3)
        assert angles.tolist() == product_grid(steps, space)
        # SU2Params keeps the grid values as they are
        assert [list(p.as_tuple()) for p in grid.strategies(0, space)] == angles.tolist()

    def test_tables_from_angles_equal_tables_from_params(self):
        rng = np.random.default_rng(21)
        g = ClassicalGame((("a", "b"),) * 3, rng.uniform(0, 10, size=(2, 2, 2, 3)))
        game = EwlGame(g, SPACES[:3])
        grid = ParamGrid(((3, 5, 3), (4, 3, 5), (2, 7, 2)))
        angles = [grid.angles(i, game.spaces[i]) for i in range(3)]
        params = [grid.strategies(i, game.spaces[i]) for i in range(3)]
        for a, b in zip(grid_payoff_tables(game, angles), grid_payoff_tables(game, params)):
            assert np.array_equal(a, b)

    def test_table_bytes_estimate_matches_the_arrays(self):
        game = EwlGame(PD, (StrategySpace.FULL_SU2, D))
        grid = ParamGrid.uniform(2, 5, 5, 3)
        dims = [grid.size(i, s) for i, s in enumerate(game.spaces)]
        tables = grid_payoff_tables(game, [grid.angles(i, s) for i, s in enumerate(game.spaces)])
        assert grid_table_bytes(dims) == sum(t.nbytes for t in tables) + tables[0].size

    @pytest.mark.parametrize("eps", [1e-9, 2.0])
    def test_rows_rebuilt_from_the_arrays(self, eps):
        rng = np.random.default_rng(13)
        g = ClassicalGame((("a", "b"),) * 3, rng.uniform(0, 10, size=(2, 2, 2, 3)))
        game = EwlGame(g, (StrategySpace.TWO_PARAM_BETA, ONE, StrategySpace.FULL_SU2))
        grid = ParamGrid.uniform(3, 5, 5, 3)
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
        grid = ParamGrid.uniform(n, *steps)
        got, want = grid_equilibria(game, grid, eps), grid_equilibria_oracle(game, grid, eps)
        for a, b in zip(got.angles, want.angles):
            assert np.array_equal(a, b)
        for name in ("index", "eps", "payoffs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert len(got.eps) > 0


def random_search(seed, spaces, steps):
    n = len(spaces)
    rng = np.random.default_rng(seed)
    g = ClassicalGame((("a", "b"),) * n, rng.uniform(0, 10, size=(2,) * n + (n,)))
    game = EwlGame(g, spaces)
    grid = ParamGrid(tuple(steps))
    return game, grid, [grid.size(i, s) for i, s in enumerate(spaces)]


def blocks_of(dims, count) -> int:
    """`BLOCK_BYTES` that splits a search over `dims` into `count` blocks:
    1, 2 or, for any other count, one block per player-0 strategy."""
    rest = 8 * len(dims) * math.prod(dims[1:])
    if count == 1:
        return rest * dims[0]
    if count == 2:
        return rest * -(-dims[0] // 2)
    return 1


class TestBlockedSearch:
    @given(
        seed=st.integers(0, 2**32 - 1),
        spaces=st.lists(st.sampled_from(SPACES), min_size=1, max_size=4),
        steps=st.lists(
            st.tuples(st.integers(2, 4), st.integers(1, 5), st.integers(1, 4)), min_size=4, max_size=4
        ),
        eps_share=st.floats(0.0, 1.2),
        blocks=st.sampled_from([1, 2, "many"]),
    )
    @settings(max_examples=200, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_rows_equal_the_dense_oracle(self, seed, spaces, steps, eps_share, blocks):
        n = len(spaces)
        game, grid, dims = random_search(seed, tuple(spaces), steps[:n])
        assume(math.prod(dims) <= 5000)
        # every profile with its improvement, from the whole tables
        every = grid_equilibria_oracle(game, grid, math.inf)
        span = float(every.payoffs.max() - every.payoffs.min())
        eps = eps_share * span
        with mock.patch.object(search, "BLOCK_BYTES", blocks_of(dims, blocks)):
            got = grid_equilibria(game, grid, eps)
        improvement = dict(zip(map(tuple, every.index.tolist()), every.eps.tolist()))
        rows = [tuple(r) for r in got.index.tolist()]
        assert rows == sorted(set(rows))
        want = {p for p, v in improvement.items() if v <= eps}
        for p in want.symmetric_difference(rows):
            assert abs(improvement[p] - eps) <= 1e-12
        flat = np.ravel_multi_index(got.index.T, dims)
        assert np.abs(got.payoffs - every.payoffs[flat]).max(initial=0.0) <= PAYOFF_TOL
        assert np.abs(got.eps - every.eps[flat]).max(initial=0.0) <= PAYOFF_TOL
        if blocks == 1:
            want = grid_equilibria_oracle(game, grid, eps)
            for name in ("index", "eps", "payoffs"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("blocks", [1, 2, "many"])
    def test_row_limit_stops_before_the_rows_pass_it(self, blocks):
        game, grid, dims = random_search(3, (D, StrategySpace.FULL_SU2), [(5, 5, 1), (3, 3, 3)])
        with mock.patch.object(search, "BLOCK_BYTES", blocks_of(dims, blocks)):
            found = grid_equilibria(game, grid, 2.0)
            k = len(found.eps)
            assert k > 10
            again = grid_equilibria(game, grid, 2.0, max_rows=k)
            assert again.index.tobytes() == found.index.tobytes()
            with pytest.raises(ValueError, match=f"more than {k - 1:,} equilibrium rows"):
                grid_equilibria(game, grid, 2.0, max_rows=k - 1)

    def test_search_bytes(self):
        # one block: both tables and the mask of 9 x 6 profiles, and best
        # replies of 6 and 9 float64
        assert grid_search_bytes([9, 6]) == 17 * 54 + 8 * (6 + 9)
        # 17,408 full-space strategies each: blocks of 3 strategies of player 0
        m = 17 * 32 * 32
        assert grid_search_bytes([m, m]) == 17 * 3 * m + 16 * m
        assert grid_row_bytes(2) == 80

    def test_full_su2_north_star_grid_runs_within_32_mib(self):
        # Benjamin & Hayden: over full SU(2) the EWL prisoner's dilemma
        # has no pure equilibrium; 303 million profiles
        game = EwlGame(PD, (StrategySpace.FULL_SU2,) * 2)
        grid = ParamGrid.uniform(2, 17, 33, 33)
        tracemalloc.start()
        try:
            found = grid_equilibria(game, grid, 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found.eps) == 0
        assert peak < 32 * 2**20


class TestGridPureNE:
    def test_pd_quantum_equilibrium_found(self):
        game = EwlGame(PD, (D, D))
        grid = ParamGrid.uniform(2, 17, 33, 1)
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
        grid = ParamGrid.uniform(2, 17, 33, 1)
        assert grid_pure_ne(game, grid, eps=0.05) == []

    def test_refinement_keeps_swapped_pd_empty(self):
        game = EwlGame(PD_SWAPPED, (D, D))
        coarse = ParamGrid.uniform(2, 9, 17, 1)
        assert grid_pure_ne(game, coarse, eps=0.05) == []
        assert grid_pure_ne(game, coarse.refined(2), eps=0.05) == []

    def test_classical_embedding_matches_pure_nash(self):
        game = EwlGame(PD, (ONE, ONE))
        grid = ParamGrid.uniform(2, theta=2, alpha=1, beta=1)
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
        grid3 = ParamGrid.uniform(3, theta=2, alpha=1, beta=1)
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
        grid = ParamGrid.uniform(2, theta=2, alpha=1, beta=1)
        for eq in grid_pure_ne(game, grid, eps=1e-9):
            assert 0.0 <= eq.eps <= 1e-9

    def test_player_count_mismatch(self):
        game = EwlGame(PD)
        with pytest.raises(ValueError):
            grid_pure_ne(game, ParamGrid.uniform(3, 3, 3, 1))

    def test_matches_the_per_row_loop_bitwise(self):
        # eps near the payoff gaps keeps hundreds of rows; the reference
        # computes each row's improvement with a per-player loop
        rng = np.random.default_rng(12)
        g = ClassicalGame((("a", "b"),) * 3, rng.uniform(0, 10, size=(2, 2, 2, 3)))
        game = EwlGame(g, (D, ONE, StrategySpace.FULL_SU2))
        grid = ParamGrid.uniform(3, 5, 5, 3)
        found = grid_pure_ne(game, grid, eps=2.0)
        lists = [grid.strategies(i, game.spaces[i]) for i in range(3)]
        tables = grid_payoff_tables(game, lists)
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
        grid = ParamGrid.uniform(2, 9, 17, 1)
        alternatives = grid.strategies(0, D)
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
