import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    basis_state,
    classical_mixed_payoffs,
    ewl_payoffs,
    final_state,
    in_space,
    payoff_operator,
    pd_game,
    random_game,
    strategy_features_oracle,
)
from qgame import (
    ClassicalGame,
    EwlGame,
    ParamGrid,
    StrategySpace,
    SU2Params,
    parse_space,
    su2,
    tensor,
    two_param_payoff_closed_form,
)
from qgame.cli import FIXED_BYTES
from qgame.ewl import game_bytes, strategy_features, unrestricted_payoffs
from qgame.linalg import TWO_PI, entangler

T, R, P, S = 5.0, 3.0, 1.0, 0.0
PD = pd_game(T, R, P, S)
PD_SWAPPED = ClassicalGame((("t", "b"), ("l", "r")), [[(S, T), (R, R)], [(P, P), (T, S)]])

RNG = np.random.default_rng(99)


def random_two_param(rng):
    return SU2Params(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), 0.0)


class TestStrategySpace:
    def test_membership(self):
        d = SU2Params(1.0, 2.0, 0.0)
        f = SU2Params(1.0, 0.0, 2.0)
        one = SU2Params(1.0, 0.0, 0.0)
        full = SU2Params(1.0, 2.0, 3.0)
        assert in_space(StrategySpace.FULL_SU2, full)
        assert in_space(StrategySpace.TWO_PARAM_ALPHA, d)
        assert not in_space(StrategySpace.TWO_PARAM_ALPHA, f)
        assert in_space(StrategySpace.TWO_PARAM_BETA, f)
        assert not in_space(StrategySpace.TWO_PARAM_BETA, d)
        assert in_space(StrategySpace.ONE_PARAM, one)
        assert not in_space(StrategySpace.ONE_PARAM, d)

    def test_every_space_contains_one_param_family(self):
        for space in StrategySpace:
            for theta in np.linspace(0, math.pi, 7):
                assert in_space(space, SU2Params(theta, 0.0, 0.0))

    def test_parse_space(self):
        assert parse_space("alpha") is StrategySpace.TWO_PARAM_ALPHA
        assert parse_space("FULL") is StrategySpace.FULL_SU2
        with pytest.raises(ValueError):
            parse_space("sideways")


class TestPayoffOperator:
    def test_pd_diagonals(self):
        m1 = payoff_operator(PD, 0)
        m2 = payoff_operator(PD, 1)
        assert np.allclose(np.diag(m1).real, [R, S, T, P])
        assert np.allclose(np.diag(m2).real, [R, T, S, P])

    def test_swapped_pd_diagonal(self):
        m1 = payoff_operator(PD_SWAPPED, 0)
        assert np.allclose(np.diag(m1).real, [S, R, P, T])

    def test_constant_game_is_scaled_identity(self):
        g = ClassicalGame((("a", "b"), ("x", "y")), [[(7, 7), (7, 7)], [(7, 7), (7, 7)]])
        assert np.allclose(payoff_operator(g, 0), 7.0 * np.eye(4))

    def test_non_binary_rejected(self):
        g = ClassicalGame((("a", "b", "c"), ("x", "y")), np.zeros((3, 2, 2)))
        with pytest.raises(ValueError):
            payoff_operator(g, 0)


class TestEwlGame:
    def test_default_spaces_full(self):
        game = EwlGame(PD)
        assert game.spaces == (StrategySpace.FULL_SU2, StrategySpace.FULL_SU2)

    @pytest.mark.parametrize(
        "shape,spaces,message",
        [
            ((3, 2), None, "EWL quantization needs a binary game"),
            ((2,) * 5, None, "at most 4 players supported"),
            ((2, 2), (StrategySpace.FULL_SU2,), "need one strategy space per player"),
        ],
    )
    def test_game_and_spaces_checked(self, shape, spaces, message):
        g = random_game(np.random.default_rng(0), shape)
        with pytest.raises(ValueError, match=message):
            EwlGame(g, spaces)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_build_peak_stays_within_game_bytes(self, n):
        # the preflight counts a game as `game_bytes`, besides a fixed part
        # that holds NumPy's fixed cost of a call; a second copy of the
        # 4-player payoff core fails it
        rng = np.random.default_rng(n)
        # NumPy's one-time allocations are made by a first build
        EwlGame(random_game(rng, (2,) * n))
        for _ in range(3):
            g = random_game(rng, (2,) * n)
            tracemalloc.start()
            try:
                EwlGame(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= FIXED_BYTES + game_bytes(n)


# theta on [0, pi] with both endpoints; phases at 0 and 2pi, negative and
# above 2pi, as `strategy_features` takes them unreduced
THETAS = st.sampled_from([0.0, math.pi]) | st.floats(0.0, math.pi)
PHASES = st.sampled_from([0.0, TWO_PI, -TWO_PI, -0.5, 2.5 * TWO_PI]) | st.floats(-3 * TWO_PI, 3 * TWO_PI)


class TestStrategyFeatures:
    @given(
        rows=st.lists(st.tuples(THETAS, PHASES, PHASES), max_size=8),
        bulk=st.sampled_from([0, 1, 5000]),
        seed=st.integers(0, 2**32 - 1),
        space=st.sampled_from(list(StrategySpace)),
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_the_stacked_gather_bitwise(self, rows, bulk, seed, space):
        # the drawn rows, then `bulk` uniform ones, with the space's frozen
        # phases zero: m = 0, 1 and many rows
        rng = np.random.default_rng(seed)
        extra = rng.uniform(-3 * TWO_PI, 3 * TWO_PI, size=(bulk, 3))
        extra[:, 0] = rng.uniform(0.0, math.pi, size=bulk)
        angles = np.concatenate([np.array(rows).reshape(-1, 3), extra])
        if space.alpha_frozen:
            angles[:, 1] = 0.0
        if space.beta_frozen:
            angles[:, 2] = 0.0
        got, want = strategy_features(angles), strategy_features_oracle(angles)
        assert got.shape == want.shape == (len(angles), 10)
        assert got.tobytes() == want.tobytes()

    def test_peak_holds_16_float64_a_row(self):
        # the output, the four quaternion components, c and s at once; the
        # stacked gather held 36 a row. The allowance covers NumPy's small
        # objects (1.5 KB measured)
        angles = ParamGrid(17, 33, 33).angles(StrategySpace.FULL_SU2)
        strategy_features(angles[:1])
        tracemalloc.start()
        try:
            strategy_features(angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(angles) == 17408
        assert peak <= 16 * 8 * len(angles) + (4 << 10)


class TestFinalState:
    def test_identity_strategies(self):
        for n in (1, 2, 3):
            state = final_state([SU2Params(0, 0, 0)] * n)
            assert np.abs(state - basis_state(n, (0,) * n)).max() < 1e-12

    def test_single_rotation_hand_expansion(self):
        # one player rotates: cos(t/2)|00> + i sin(t/2)|10>
        theta = 1.234
        state = final_state([SU2Params(theta, 0, 0), SU2Params(0, 0, 0)])
        expected = math.cos(theta / 2) * basis_state(2, (0, 0)) + 1j * math.sin(
            theta / 2
        ) * basis_state(2, (1, 0))
        assert np.abs(state - expected).max() < 1e-12

    def test_both_flip_gives_one_one_up_to_phase(self):
        state = final_state([SU2Params(math.pi, 0, 0)] * 2)
        overlap = abs(np.vdot(basis_state(2, (1, 1)), state))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_matrix_product(self):
        for _ in range(25):
            n = int(RNG.integers(1, 4))
            params = [
                SU2Params(RNG.uniform(0, math.pi), RNG.uniform(0, TWO_PI), RNG.uniform(0, TWO_PI))
                for _ in range(n)
            ]
            J = entangler(n)
            us = su2([p.as_tuple() for p in params])
            direct = J.conj().T @ tensor(us) @ J @ basis_state(n, (0,) * n)
            assert np.abs(final_state(params) - direct).max() < 1e-12

    def test_normalized(self):
        for _ in range(50):
            params = [
                SU2Params(RNG.uniform(0, math.pi), RNG.uniform(0, TWO_PI), RNG.uniform(0, TWO_PI))
                for _ in range(3)
            ]
            probs = np.abs(final_state(params)) ** 2
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestEwlPayoffs:
    def test_magic_strategy_reaches_cooperation(self):
        game = EwlGame(PD, (StrategySpace.TWO_PARAM_ALPHA,) * 2)
        q = SU2Params(0.0, math.pi / 2, 0.0)
        u = ewl_payoffs(game, (q, q))
        assert np.allclose(u, [R, R], atol=1e-12)

    def test_identity_strategies_reproduce_first_entry(self):
        for g in (PD, PD_SWAPPED):
            game = EwlGame(g)
            u = ewl_payoffs(game, (SU2Params(0, 0, 0), SU2Params(0, 0, 0)))
            assert np.allclose(u, g.payoffs[0, 0], atol=1e-12)

    def test_classical_bit_profiles(self):
        game = EwlGame(PD)
        for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            params = [SU2Params(math.pi if b else 0.0, 0, 0) for b in bits]
            assert np.allclose(ewl_payoffs(game, params), PD.payoffs[bits], atol=1e-12)

    def test_one_param_equals_classical_mixed(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            g = random_game(rng, (2,) * n)
            game = EwlGame(g)
            thetas = rng.uniform(0, math.pi, size=n)
            params = [SU2Params(t, 0, 0) for t in thetas]
            probs = [math.cos(t / 2) ** 2 for t in thetas]
            expected = classical_mixed_payoffs(g, probs)
            assert np.abs(ewl_payoffs(game, params) - expected).max() < 1e-10

    def test_space_discipline_enforced(self):
        game = EwlGame(PD, (StrategySpace.TWO_PARAM_ALPHA,) * 2)
        bad = SU2Params(1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            ewl_payoffs(game, (bad, SU2Params(0, 0, 0)))
        # same profile is fine without the restriction
        assert unrestricted_payoffs(game, (bad, SU2Params(0, 0, 0))) is not None

    def test_unrestricted_payoffs_need_one_strategy_per_player(self):
        with pytest.raises(ValueError, match="need one strategy per player"):
            unrestricted_payoffs(EwlGame(PD), (SU2Params(0, 0, 0),))

    def test_payoff_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_game(rng, (2, 2, 2))
            game = EwlGame(g)
            params = [
                SU2Params(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
                for _ in range(3)
            ]
            u = unrestricted_payoffs(game, params)
            for i in range(3):
                vals = g.payoffs[..., i]
                assert vals.min() - 1e-12 <= u[i] <= vals.max() + 1e-12

    def test_affine_rescaling_is_linear_in_payoffs(self):
        rng = np.random.default_rng(21)
        g = random_game(rng, (2, 2))
        alphas = np.array([2.0, 0.5])
        betas = np.array([1.0, -3.0])
        g2 = ClassicalGame(g.labels, g.payoffs * alphas + betas)
        game, game2 = EwlGame(g), EwlGame(g2)
        for _ in range(25):
            params = [
                SU2Params(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
                for _ in range(2)
            ]
            u = unrestricted_payoffs(game, params)
            v = unrestricted_payoffs(game2, params)
            assert np.abs(v - (alphas * u + betas)).max() < 1e-10


class TestClosedForm:
    def test_all_zero_angles(self):
        assert two_param_payoff_closed_form((0, 0), (0, 0), (R, S, T, P)) == (S, T)

    def test_both_theta_pi(self):
        u1, u2 = two_param_payoff_closed_form((math.pi, 0), (math.pi, 0), (R, S, T, P))
        assert u1 == pytest.approx(T, abs=1e-12)
        assert u2 == pytest.approx(S, abs=1e-12)

    def test_matches_matrix_simulation_on_random_draws(self):
        game = EwlGame(PD_SWAPPED)
        worst = 0.0
        for _ in range(1000):
            p1, p2 = random_two_param(RNG), random_two_param(RNG)
            u = unrestricted_payoffs(game, (p1, p2))
            c = two_param_payoff_closed_form(p1, p2, (R, S, T, P))
            worst = max(worst, abs(u[0] - c[0]), abs(u[1] - c[1]))
        assert worst < 1e-12

    def test_accepts_su2params_and_tuples(self):
        a = two_param_payoff_closed_form(SU2Params(1.0, 2.0), (1.0, 2.0), (R, S, T, P))
        b = two_param_payoff_closed_form((1.0, 2.0), SU2Params(1.0, 2.0), (R, S, T, P))
        assert a == b

    @pytest.mark.parametrize("first", [True, False])
    def test_rejects_su2params_with_beta(self, first):
        # the formula has no beta; it must not return the beta = 0 payoffs
        p, q = SU2Params(1.0, 2.0, 0.5), (0.3, 0.2)
        with pytest.raises(ValueError, match="beta"):
            two_param_payoff_closed_form(*((p, q) if first else (q, p)), (3, 0, 5, 1))
