"""The quaternion payoff core against the dense Kronecker/entangler oracle.

Every batched payoff path (`grid_payoff_tables` over per-player (m, 3)
angle arrays, `_angle_payoffs` over a (P, n, 3) profile array) must agree
with `helpers.oracle_payoffs` within 1e-12 for 2, 3 and 4 players, random
payoffs, per-player strategy spaces and arbitrary strategy lists.
"""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FLIP_FEATURES,
    QUATERNION_UNITS as UNITS,
    angle_rows,
    brute_force_strong_isomorphisms,
    core_terms_oracle,
    lifted_core,
    oracle_payoffs,
    payoff_core_oracle,
    random_game,
    random_mapping,
    symmetric_game,
)
from qgame import EwlGame, StrategySpace, SU2Params, image_game
from qgame.ewl import BLOCK_BYTES, _angle_payoffs, _core_terms, _payoff_core, strategy_features
from qgame.lift import FLIP, _sample_block, lift
from qgame.linalg import TWO_PI
from qgame.search import grid_payoff_tables

TOL = 1e-12


def angle(special, high):
    return st.one_of(st.sampled_from(special), st.floats(0.0, high, allow_nan=False))


@st.composite
def strategies_in(draw, space):
    theta = draw(angle((0.0, math.pi), math.pi))
    phases = (0.0, math.pi / 2, 1.5 * math.pi)
    alpha = 0.0 if space.alpha_frozen else draw(angle(phases, TWO_PI))
    beta = 0.0 if space.beta_frozen else draw(angle(phases, TWO_PI))
    return SU2Params(theta, alpha, beta)


@st.composite
def games_and_grids(draw):
    """A random n-player EWL game, one space per player, and a short
    strategy list per player drawn from that player's space."""
    n = draw(st.sampled_from((2, 3, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spaces = tuple(draw(st.sampled_from(list(StrategySpace))) for _ in range(n))
    game = EwlGame(random_game(rng, (2,) * n, low=-10, high=10), spaces)
    longest = {2: 4, 3: 3, 4: 2}[n]
    lists = [draw(st.lists(strategies_in(s), min_size=1, max_size=longest)) for s in spaces]
    return game, lists


def assert_matches_oracle(game, profiles, got):
    assert got.shape == (len(profiles), game.n_players)
    for params, row in zip(profiles, got):
        assert np.abs(row - oracle_payoffs(game, params)).max() <= TOL


def grid_profiles(lists):
    return [tuple(lists[i][k] for i, k in enumerate(idx)) for idx in product(*map(range, map(len, lists)))]


def profile_angles(profiles, n) -> np.ndarray:
    """The (P, n, 3) angle array of P profiles of SU2Params."""
    return np.array([[p.as_tuple() for p in params] for params in profiles]).reshape(-1, n, 3)


@given(games_and_grids())
@settings(max_examples=80, deadline=None)
def test_grid_tables_match_the_dense_oracle(case):
    game, lists = case
    tables = grid_payoff_tables(game, [angle_rows(s) for s in lists])
    dims = tuple(len(s) for s in lists)
    assert [t.shape for t in tables] == [dims] * game.n_players
    got = np.stack([t.reshape(-1) for t in tables], axis=1)
    assert_matches_oracle(game, grid_profiles(lists), got)


@given(games_and_grids())
@settings(max_examples=80, deadline=None)
def test_profile_payoffs_match_the_dense_oracle(case):
    game, lists = case
    profiles = grid_profiles(lists)
    got = _angle_payoffs(game, profile_angles(profiles, game.n_players))
    assert_matches_oracle(game, profiles, got)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_profile_of_quaternion_units(n):
    game = EwlGame(random_game(np.random.default_rng(n), (2,) * n, low=-10, high=10))
    profiles = list(product(UNITS, repeat=n))
    assert_matches_oracle(game, profiles, _angle_payoffs(game, profile_angles(profiles, n)))
    tables = grid_payoff_tables(game, [angle_rows(UNITS)] * n)
    assert_matches_oracle(game, profiles, np.stack([t.reshape(-1) for t in tables], axis=1))


def test_empty_profile_list():
    game = EwlGame(random_game(np.random.default_rng(0), (2, 2, 2)))
    assert _angle_payoffs(game, profile_angles([], 3)).shape == (0, 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("full_block", [False, True])
def test_profile_payoffs_peak_within_the_block_count(n, full_block):
    # 100 profiles, or a full `verify_lift` block of them, within what a
    # block counts per sample; the iterator buffers of a broadcast
    # Kronecker product fail it at 100 profiles of 3 and 4 players
    profiles = _sample_block(n) if full_block else 100
    game = EwlGame(random_game(np.random.default_rng(n), (2,) * n))
    angles = np.random.default_rng(profiles).random((profiles, n, 3)) * (math.pi, TWO_PI, TWO_PI)
    tracemalloc.start()
    try:
        _angle_payoffs(game, angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= profiles * (BLOCK_BYTES // _sample_block(n))


def test_grid_needs_one_list_per_player():
    game = EwlGame(random_game(np.random.default_rng(0), (2, 2, 2)))
    with pytest.raises(ValueError):
        grid_payoff_tables(game, [angle_rows(UNITS)] * 2)


@st.composite
def payoff_diagonals(draw):
    """(n, 2^n) payoff diagonals for n = 1-4: scaled normals, all zeros,
    all negative, or a mix with exact zeros and signed zeros."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, 2**n)
    kind = draw(st.sampled_from(("scaled", "zero", "negative", "mixed")))
    if kind == "zero":
        return np.zeros(shape)
    diags = rng.normal(size=shape) * 10.0 ** draw(st.integers(-8, 8))
    if kind == "negative":
        return -np.abs(diags)
    if kind == "mixed":
        diags[rng.random(shape) < 0.3] = 0.0
        diags[rng.random(shape) < 0.1] = -0.0
    return diags


@given(payoff_diagonals())
@settings(max_examples=120, deadline=None)
def test_payoff_core_equals_the_ket_by_ket_oracle_bitwise(diags):
    got, want = _payoff_core(diags), payoff_core_oracle(diags)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_four_player_game_peaks_at_its_core_and_one_row():
    # besides the core and the row being accumulated: the 8^4 terms'
    # entry and weight arrays and one row's repeated diagonal and weighted
    # terms, 4 x 32 KiB, and the diagonals
    g = random_game(np.random.default_rng(4), (2,) * 4)
    tracemalloc.start()
    try:
        game = EwlGame(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    core = game.payoff_core.nbytes
    assert peak <= core + core // 4 + (128 << 10)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_core_terms_equal_the_ket_by_ket_loop(n):
    entry, ket, weight = core_terms_oracle(n)
    # terms come ket by ket, 4^n a ket
    assert np.array_equal(ket, np.repeat(np.arange(2**n), 4**n))
    for g, w in zip(_core_terms(n), (entry, weight)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_core_term_weights_are_exactly_minus_one_zero_or_one(n):
    assert np.isin(_core_terms(n)[1], (-1.0, 0.0, 1.0)).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_payoffs_give_the_integer_core_bitwise(n):
    # the core of integer payoffs is the terms accumulated in int64
    entry, ket, weight = core_terms_oracle(n)
    rng = np.random.default_rng(n)
    for _ in range(20):
        diags = rng.integers(-1000, 1001, size=(n, 2**n))
        want = np.zeros((n, 10**n), dtype=np.int64)
        np.add.at(want, (slice(None), entry), diags[:, ket] * weight.astype(np.int64))
        got = _payoff_core(diags.astype(float))
        assert got.tobytes() == want.astype(float).reshape(got.shape).tobytes()


def test_flip_features_are_the_feature_map_of_flip():
    a = np.random.default_rng(0).random((1000, 3)) * (math.pi, TWO_PI, TWO_PI)
    # FLIP rounds pi - theta and the phase maps, so the features it gives
    # differ by a few ulps
    dev = strategy_features(FLIP.angles(a)) - strategy_features(a) @ FLIP_FEATURES.T
    assert np.abs(dev).max() <= 2e-15
    assert np.array_equal(np.abs(FLIP_FEATURES).sum(axis=0), np.ones(10))
    assert np.array_equal(np.abs(FLIP_FEATURES).sum(axis=1), np.ones(10))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_strong_isomorphisms_carry_integer_cores_exactly(n):
    # the paper's criterion on the payoff cores: every strong isomorphism
    # of g onto its image g2, lifted, reads g2's core as g's core, with no
    # rounding. Symmetric games add isomorphisms that permute players
    rng = np.random.default_rng(n)
    lifts = 0
    for k in range(6):
        if k < 4:
            g = random_game(rng, (2,) * n, low=-1000, high=1001)
        else:
            g = symmetric_game(rng, n, low=-9, high=10)
        f = random_mapping(rng, (2,) * n)
        while all(p == (0, 1) for p in f.phi):
            f = random_mapping(rng, (2,) * n)
        g2 = image_game(f, g)
        core, core2 = EwlGame(g).payoff_core, EwlGame(g2).payoff_core
        for iso in brute_force_strong_isomorphisms(g, g2):
            assert np.array_equal(lifted_core(lift(iso, g), core2), core)
            lifts += 1
    assert lifts >= 6
