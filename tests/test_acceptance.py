"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py -v` to see them)."""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    best_reply_two_param,
    brute_force_pure_nash,
    classical_mixed_payoffs,
    angle_rows,
    ewl_payoffs,
    pd_game,
    random_game,
    random_mapping,
    refined,
    witness_deviation,
)
from qgame import (
    AngleTransform,
    ClassicalGame,
    EwlGame,
    LiftedMapping,
    ParamGrid,
    StrategySpace,
    SU2Params,
    equilibrium_transport_check,
    find_strong_isomorphisms,
    image_game,
    load_game_file,
    mixed_nash_2x2,
    operator_identity_suite,
    pure_nash_equilibria,
    two_param_payoff_closed_form,
    verify_lift,
)
from qgame.ewl import unrestricted_payoffs
from qgame.lift import lift
from qgame.linalg import TWO_PI
from qgame.search import grid_payoff_tables, grid_pure_ne

GAMES = Path(__file__).resolve().parent.parent / "games"

T, R, P, S = 5.0, 3.0, 1.0, 0.0
RSTP = (R, S, T, P)
PD = pd_game(T, R, P, S)
PD_SWAPPED = ClassicalGame((("t", "b"), ("l", "r")), [[(S, T), (R, R)], [(P, P), (T, S)]])
D = StrategySpace.TWO_PARAM_ALPHA

MAGIC = SU2Params(0.0, math.pi / 2, 0.0)


def _say(line):
    print(f"\n{line}")


@pytest.fixture(scope="module")
def corpus():
    """50 random 2-player and 20 random 3-player binary games with a
    random strong isomorphism each (the image construction makes the
    mapping an isomorphism by definition)."""
    rng = np.random.default_rng(20240)
    games = []
    for k in range(70):
        n = 2 if k < 50 else 3
        g = random_game(rng, (2,) * n)
        f = random_mapping(rng, (2,) * n)
        g2 = image_game(f, g)
        games.append((g, f, g2))
    return games


def test_criterion_1_operator_identities():
    start = time.perf_counter()
    report = operator_identity_suite(draws=200, seed=7)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 1.0
    _say(
        f"criterion 1: {'PASS' if ok else 'FAIL'} - identities (a)-(f) max error "
        f"{report.max_error:.2e} (tol 1e-12) in {elapsed:.2f}s"
    )
    assert report.passed, [c for c in report.checks if not c.passed]
    assert elapsed < 1.0


def test_criterion_2_lifted_isomorphisms(corpus):
    start = time.perf_counter()
    worst = 0.0
    for k, (g, f, g2) in enumerate(corpus):
        lm = lift(f, g)
        res = verify_lift(lm, EwlGame(g), EwlGame(g2), samples=100, seed=1000 + k)
        worst = max(worst, res.max_deviation)
        assert res.passed, f"game {k}: deviation {res.max_deviation}"
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _say(
        f"criterion 2: {'PASS' if ok else 'FAIL'} - 70 random isomorphic pairs, "
        f"payoff equality within {worst:.2e} (tol 1e-10) in {elapsed:.1f}s"
    )
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_pd_grid_equilibrium_found():
    game = EwlGame(PD, (D, D))
    grid = ParamGrid(17, 33, 1)
    found = grid_pure_ne(game, grid, eps=1e-9)
    hits = [eq for eq in found if eq.profile == (MAGIC, MAGIC)]
    ok = len(hits) == 1 and np.abs(np.asarray(hits[0].payoffs) - [R, R]).max() <= 1e-10
    _say(
        f"criterion 3 (equilibrium found): {'PASS' if ok else 'FAIL'} - profile "
        f"(0,pi/2)x(0,pi/2) with payoffs {hits[0].payoffs if hits else 'missing'}"
    )
    assert ok


def _ewl_range_equilibria(game, grid):
    """Pure equilibria of the PD grid game with both phases restricted
    to the EWL range [0, pi/2] (1e-12 slack for linspace rounding).
    Returns the strategies, the finite game of their payoff tables and
    its equilibria at eps 1e-9."""
    strategies = [tuple(s for s in grid.strategies(D) if s.alpha <= math.pi / 2 + 1e-12)] * 2
    tables = grid_payoff_tables(game, [angle_rows(s) for s in strategies])
    labels = [tuple(str(k) for k in range(len(s))) for s in strategies]
    table_game = ClassicalGame(labels, np.stack(tables, axis=-1))
    return strategies, table_game, pure_nash_equilibria(table_game, tol=1e-9)


def _unique_magic(strategies, table_game, found):
    """True when `found` is exactly the profile (MAGIC, MAGIC) with
    payoffs (R, R) within 1e-10."""
    if len(found) != 1:
        return False
    (idx,) = found
    return (strategies[0][idx[0]], strategies[1][idx[1]]) == (MAGIC, MAGIC) and (
        np.abs(table_game.payoffs[idx] - [R, R]).max() <= 1e-10
    )


def test_criterion_3_uniqueness_at_grid_resolution():
    # Uniqueness of (Q, Q) is the EWL claim for phases in [0, pi/2], and
    # it is asserted there, on the default grid and on its refinement.
    # On the full [0, 2pi) alpha plane it fails: at theta = 0 the payoff
    # is R cos^2(a1 + a2) + P sin^2(a1 + a2), so every (0, a) x (0, b)
    # with a + b = 0 (mod pi) and cos^2 b <= R/T is an exact equilibrium
    # with payoffs (R, R). On the 32-value phase lattice that is 9 + 9
    # values of b with 2 matching values of a each, 36 profiles, and the
    # full-range search must return exactly that family.
    game = EwlGame(PD, (D, D))
    grid = ParamGrid(17, 33, 1)

    coarse = _ewl_range_equilibria(game, grid)
    fine = _ewl_range_equilibria(game, refined(grid, 2))
    oracle = brute_force_pure_nash(coarse[1], tol=1e-9)

    full = grid_pure_ne(game, grid, eps=1e-9)
    pts = grid.strategies(D)
    family = {
        (s1, s2)
        for s1 in pts
        for s2 in pts
        if s1.theta == s2.theta == 0.0
        and abs(math.sin(s1.alpha + s2.alpha)) <= 1e-12
        and math.cos(s2.alpha) ** 2 <= R / T
    }
    in_range = [
        eq.profile
        for eq in full
        if all(s.alpha <= math.pi / 2 + 1e-12 for s in eq.profile)
    ]

    unique = _unique_magic(*coarse) and _unique_magic(*fine) and coarse[2] == oracle
    exact_family = (
        len(family) == 36
        and len(full) == len(family)
        and {eq.profile for eq in full} == family
        and all(np.abs(np.asarray(eq.payoffs) - [R, R]).max() <= 1e-10 for eq in full)
        and all(eq.eps <= 1e-9 for eq in full)
        and in_range == [(MAGIC, MAGIC)]
    )
    ok = unique and exact_family
    _say(
        f"criterion 3 (uniqueness at grid resolution): {'PASS' if ok else 'FAIL'} - "
        f"{len(coarse[2])}/{len(fine[2])} equilibria (expected 1, at "
        "(0,pi/2)x(0,pi/2)) on alpha in [0, pi/2] with 153/561 strategies per "
        f"player; full [0, 2pi) plane: {len(full)} grid equilibria, analytic "
        f"phase family {len(family)} (expected 36)"
    )
    assert unique, f"EWL-range equilibria {coarse[2]} / {fine[2]}, oracle {oracle}"
    assert [len(s) for s in coarse[0]] == [17 * 9, 17 * 9]
    assert [len(s) for s in fine[0]] == [33 * 17, 33 * 17]
    assert exact_family, f"{len(full)} grid equilibria, {len(family)} in the family"


def test_criterion_4_swapped_pd_counterexample():
    rng = np.random.default_rng(4)
    game = EwlGame(PD_SWAPPED, (D, D))

    # (i) the analytic best reply earns the temptation payoff
    worst_reply = 0.0
    for _ in range(100):
        opp = SU2Params(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), 0.0)
        reply = best_reply_two_param(opp)
        u = unrestricted_payoffs(game, (reply, opp))
        worst_reply = max(worst_reply, abs(u[0] - T))
    assert worst_reply <= 1e-10

    # (ii) the deviation witness strictly beats the sucker payoff
    min_margin = math.inf
    for _ in range(100):
        p1 = SU2Params(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), 0.0)
        u = unrestricted_payoffs(game, (p1, witness_deviation(p1)))
        min_margin = min(min_margin, u[1] - S)
    assert min_margin > 0.0

    # (iii) no grid equilibria at eps = 0.05, default and doubled grids
    grid = ParamGrid(17, 33, 1)
    empty_default = grid_pure_ne(game, grid, eps=0.05) == []
    empty_doubled = grid_pure_ne(game, refined(grid, 2), eps=0.05) == []
    ok = empty_default and empty_doubled
    _say(
        f"criterion 4: {'PASS' if ok else 'FAIL'} - best reply off by {worst_reply:.2e}, "
        f"witness margin >= {min_margin:.3f}, grid search empty at eps=0.05 "
        f"(default {empty_default}, doubled {empty_doubled})"
    )
    assert empty_default and empty_doubled


def test_criterion_5_closed_form_vs_simulation():
    rng = np.random.default_rng(5)
    game = EwlGame(PD_SWAPPED)
    worst = 0.0
    for _ in range(1000):
        p1 = SU2Params(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), 0.0)
        p2 = SU2Params(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), 0.0)
        u = unrestricted_payoffs(game, (p1, p2))
        c = two_param_payoff_closed_form(p1, p2, RSTP)
        worst = max(worst, abs(u[0] - c[0]), abs(u[1] - c[1]))
    ok = worst <= 1e-12
    _say(
        f"criterion 5: {'PASS' if ok else 'FAIL'} - closed form vs matrix payoffs "
        f"within {worst:.2e} on 1000 draws (tol 1e-12)"
    )
    assert worst <= 1e-12


def test_criterion_6_converse_failure():
    ga = load_game_file(GAMES / "antidiag.game").game
    gb = load_game_file(GAMES / "antidiag_swapped.game").game

    isos = find_strong_isomorphisms(ga, gb)
    eq_a = mixed_nash_2x2(ga)
    eq_b = mixed_nash_2x2(gb)

    twist = AngleTransform(reflect=True, alpha_shift=math.pi / 4, beta_shift=math.pi / 4)
    lm = LiftedMapping((0, 1), (twist, twist))
    res = verify_lift(lm, EwlGame(ga), EwlGame(gb), samples=200, seed=6)

    ok = isos == [] and len(eq_a) == 3 and len(eq_b) == 1 and res.passed
    _say(
        f"criterion 6: {'PASS' if ok else 'FAIL'} - classical isomorphisms {len(isos)}, "
        f"equilibrium counts {len(eq_a)}/{len(eq_b)} (want 3/1), quantum mapping "
        f"deviation {res.max_deviation:.2e} (tol 1e-10)"
    )
    assert isos == []
    assert len(eq_a) == 3 and len(eq_b) == 1
    assert res.passed and res.max_deviation <= 1e-10


def test_criterion_7_classical_reproduction():
    rng = np.random.default_rng(7)
    bundled = [load_game_file(p).game for p in sorted(GAMES.glob("*.game"))]
    binary = [g for g in bundled if all(m == 2 for m in g.shape)]
    assert len(binary) == len(bundled) == 6

    worst_pure = 0.0
    for g in binary:
        game = EwlGame(g)
        for bits in np.ndindex(*g.shape):
            params = [SU2Params(math.pi if b else 0.0, 0.0, 0.0) for b in bits]
            u = ewl_payoffs(game, params)
            worst_pure = max(worst_pure, np.abs(u - g.payoffs[bits]).max())
    assert worst_pure <= 1e-12

    worst_mixed = 0.0
    for g in binary:
        game = EwlGame(g)
        for _ in range(25):
            thetas = rng.uniform(0, math.pi, size=g.n_players)
            params = [SU2Params(t, 0.0, 0.0) for t in thetas]
            probs = [math.cos(t / 2) ** 2 for t in thetas]
            u = ewl_payoffs(game, params)
            worst_mixed = max(
                worst_mixed, np.abs(u - classical_mixed_payoffs(g, probs)).max()
            )
    ok = worst_pure <= 1e-12 and worst_mixed <= 1e-10
    _say(
        f"criterion 7: {'PASS' if ok else 'FAIL'} - bit profiles reproduce payoffs "
        f"within {worst_pure:.2e} (tol 1e-12); theta sweeps match mixed payoffs "
        f"within {worst_mixed:.2e} (tol 1e-10)"
    )
    assert worst_mixed <= 1e-10


def test_criterion_8_equilibrium_transport(corpus):
    for g, f, g2 in corpus:
        assert equilibrium_transport_check(f, g, g2)
    _say(
        "criterion 8: PASS - pure equilibria map bijectively for all 70 "
        "isomorphic pairs"
    )
