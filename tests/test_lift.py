import importlib
import math
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_lift,
    identity_mapping,
    identity_suite_oracle,
    in_space,
    oracle_payoffs,
    pd_game,
    random_game,
    random_mapping,
    sample_strategy,
    symmetric_game,
    transform_params,
    verify_lift_oracle,
)
from qgame import (
    FLIP,
    KEEP,
    AngleTransform,
    ClassicalGame,
    EwlGame,
    GameMapping,
    LiftedMapping,
    StrategySpace,
    SU2Params,
    find_strong_isomorphisms,
    image_game,
    is_strong_isomorphism,
    operator_identity_suite,
    permutation_operator,
    su2,
    verify_lift,
)
from qgame import cli
from qgame.ewl import game_bytes, unrestricted_payoffs
from qgame.lift import (
    LIFT_TOL,
    _identity_draws,
    _sample_block,
    lift,
    verify_lifts,
)
from qgame.linalg import PAULI_X, TWO_PI

T, R, P, S = 5.0, 3.0, 1.0, 0.0
PD = pd_game(T, R, P, S)
PD_SWAPPED = ClassicalGame((("t", "b"), ("l", "r")), [[(S, T), (R, R)], [(P, P), (T, S)]])
COLUMN_SWAP = GameMapping(eta=(0, 1), phi=((0, 1), (1, 0)))
CYCLE3 = GameMapping(eta=(1, 2, 0), phi=((0, 1), (1, 0), (1, 0)))

ANTIDIAG = ClassicalGame((("t", "b"), ("l", "r")), [[(4, 4), (1, 3)], [(3, 1), (2, 2)]])
ANTIDIAG_SWAPPED = ClassicalGame((("t", "b"), ("l", "r")), [[(4, 4), (3, 1)], [(1, 3), (2, 2)]])

D = StrategySpace.TWO_PARAM_ALPHA
F = StrategySpace.TWO_PARAM_BETA
FULL = StrategySpace.FULL_SU2

RNG = np.random.default_rng(31)


def traced_peak(run) -> int:
    """Peak bytes tracemalloc sees while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_full_params(rng, n):
    return tuple(
        SU2Params(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))
        for _ in range(n)
    )


class TestAngleTransform:
    def test_keep_is_identity(self):
        p = SU2Params(1.0, 2.0, 3.0)
        assert transform_params(KEEP, p) == p

    def test_flip_formula(self):
        p = SU2Params(1.0, 2.0, 3.0)
        q = transform_params(FLIP, p)
        assert q.theta == pytest.approx(math.pi - 1.0)
        assert q.alpha == pytest.approx(TWO_PI - 3.0)
        assert q.beta == pytest.approx(math.pi - 2.0)

    def test_flip_matrix_is_minus_i_sigma_x(self):
        for _ in range(50):
            p = SU2Params(RNG.uniform(0, math.pi), RNG.uniform(0, TWO_PI), RNG.uniform(0, TWO_PI))
            flipped = su2(transform_params(FLIP, p).as_tuple())
            assert np.abs(flipped - (-1j) * PAULI_X @ su2(p.as_tuple())).max() < 1e-12

    @pytest.mark.parametrize(
        "t", [KEEP, FLIP, AngleTransform(True, math.pi / 4, -1.3), AngleTransform(False, 2.5, -7.0)]
    )
    def test_array_form_is_the_call_row_by_row(self, t):
        angles = RNG.uniform(0, 1, (60, 3)) * (math.pi, TWO_PI, TWO_PI)
        angles[:10, 1:] = 0.0
        rows = [tuple(r) for r in t.angles(angles.reshape(6, 10, 3)).reshape(-1, 3).tolist()]
        assert rows == [transform_params(t, SU2Params(*a)).as_tuple() for a in angles]

    def test_flip_on_two_param_alpha_lands_in_two_param_beta(self):
        # exact escape: alpha becomes exactly 0, beta becomes pi - alpha mod 2pi
        for alpha in np.linspace(0, TWO_PI, 23, endpoint=False):
            p = SU2Params(1.0, alpha, 0.0)
            q = transform_params(FLIP, p)
            assert q.alpha == 0.0
            assert in_space(F, q)
            expected_beta = (math.pi - alpha) % TWO_PI
            assert q.beta == pytest.approx(expected_beta, abs=1e-15)

    def test_double_flip_is_identity_up_to_global_phase(self):
        # parameters shift by pi in both phases; the matrix flips sign
        for _ in range(25):
            p = SU2Params(RNG.uniform(0, math.pi), RNG.uniform(0, TWO_PI), RNG.uniform(0, TWO_PI))
            q = transform_params(FLIP, transform_params(FLIP, p))
            assert q.theta == pytest.approx(p.theta, abs=1e-12)
            assert np.abs(su2(q.as_tuple()) + su2(p.as_tuple())).max() < 1e-12


class TestLift:
    def test_identity_mapping_all_keep(self):
        lm = lift(identity_mapping((2, 2)), PD)
        assert lm.transforms == (KEEP, KEEP)
        assert [t.reflect for t in lm.transforms] == [False, False]

    def test_pd_column_swap(self):
        lm = lift(COLUMN_SWAP, PD)
        assert lm.transforms == (KEEP, FLIP)

    def test_three_player_cycle(self):
        g = random_game(np.random.default_rng(0), (2, 2, 2))
        lm = lift(CYCLE3, g)
        assert [t.reflect for t in lm.transforms] == [False, True, True]
        assert lm.eta == (1, 2, 0)

    @pytest.mark.parametrize(
        "g,message",
        [
            (random_game(np.random.default_rng(0), (3, 2)), "lifting is defined for binary games only"),
            # binary, but the mapping gives player 1 three strategies
            (PD, "mapping does not match a binary game"),
        ],
        ids=["game", "mapping"],
    )
    def test_non_binary_rejected(self, g, message):
        f = GameMapping(eta=(0, 1), phi=((0, 1, 2), (0, 1)))
        with pytest.raises(ValueError, match=message):
            lift(f, g)

    @pytest.mark.parametrize(
        "eta,transforms,message",
        [
            ((0, 0), (KEEP, KEEP), "eta is not a permutation"),
            ((0, 1), (KEEP,), "need one angle transform per player"),
        ],
    )
    def test_lifted_mapping_rejects_bad_eta_and_transform_count(self, eta, transforms, message):
        with pytest.raises(ValueError, match=message):
            LiftedMapping(eta, transforms)

    def test_module_name_binds_the_module(self):
        import qgame.lift as lift_module

        assert isinstance(lift_module, types.ModuleType)
        assert lift_module is importlib.import_module("qgame.lift")
        assert lift_module.lift is lift


class TestApplyLift:
    def test_all_keep_identity(self):
        lm = LiftedMapping((0, 1), (KEEP, KEEP))
        params = random_full_params(RNG, 2)
        assert apply_lift(lm, params) == params

    def test_three_player_worked_example(self):
        g = random_game(np.random.default_rng(0), (2, 2, 2))
        lm = lift(CYCLE3, g)
        p1, p2, p3 = random_full_params(RNG, 3)
        out = apply_lift(lm, (p1, p2, p3))
        # position 1 gets player 3 flipped, position 2 keeps player 1,
        # position 3 gets player 2 flipped
        assert out[0] == transform_params(FLIP, p3)
        assert out[1] == p1
        assert out[2] == transform_params(FLIP, p2)
        assert out[0].theta == pytest.approx(math.pi - p3.theta)
        assert out[0].alpha == pytest.approx((TWO_PI - p3.beta) % TWO_PI)
        assert out[0].beta == pytest.approx((math.pi - p3.alpha) % TWO_PI)

    def test_double_application_of_order_two_lift(self):
        # the lifted column swap squares to the identity on payoffs and
        # to a global phase on matrices
        lm = lift(COLUMN_SWAP, PD)
        game = EwlGame(PD)
        params = random_full_params(RNG, 2)
        twice = apply_lift(lm, apply_lift(lm, params))
        assert twice[0] == params[0]  # kept player untouched
        assert np.abs(su2(twice[1].as_tuple()) + su2(params[1].as_tuple())).max() < 1e-12
        u = unrestricted_payoffs(game, params)
        u2 = unrestricted_payoffs(game, twice)
        assert np.abs(u - u2).max() < 1e-12

    def test_length_mismatch(self):
        lm = LiftedMapping((0, 1), (KEEP, KEEP))
        with pytest.raises(ValueError):
            apply_lift(lm, random_full_params(RNG, 3))


class TestVerifyLift:
    def test_pd_pair_with_matching_space_swap(self):
        lm = lift(COLUMN_SWAP, PD)
        qa = EwlGame(PD, (D, D))
        qb = EwlGame(PD_SWAPPED, (D, F))
        res = verify_lift(lm, qa, qb, samples=200, seed=1)
        assert res.passed
        assert res.space_escapes == ()
        assert res.max_deviation < 1e-10

    def test_three_player_full_su2(self):
        g = random_game(np.random.default_rng(4), (2, 2, 2))
        g2 = image_game(CYCLE3, g)
        assert is_strong_isomorphism(CYCLE3, g, g2)
        lm = lift(CYCLE3, g)
        res = verify_lift(lm, EwlGame(g), EwlGame(g2), samples=150, seed=2)
        assert res.passed
        assert res.max_deviation < 1e-10

    def test_antidiagonal_custom_mapping_passes(self):
        # phase-twisted reflection (pi - theta, pi/4 - beta, pi/4 - alpha)
        # relates the quantum versions even though the classical games
        # are not isomorphic
        twist = AngleTransform(reflect=True, alpha_shift=math.pi / 4, beta_shift=math.pi / 4)
        lm = LiftedMapping((0, 1), (twist, twist))
        res = verify_lift(lm, EwlGame(ANTIDIAG), EwlGame(ANTIDIAG_SWAPPED), samples=200, seed=3)
        assert res.passed
        assert res.max_deviation < 1e-10

    def test_two_param_restriction_breaks_every_keep_flip_lift(self):
        # with both games restricted to the alpha two-parameter space,
        # flipped players escape the space and kept players break the
        # payoff equality: no lift in the family verifies
        qa = EwlGame(PD, (D, D))
        qb = EwlGame(PD_SWAPPED, (D, D))
        for eta in ((0, 1), (1, 0)):
            for t1 in (KEEP, FLIP):
                for t2 in (KEEP, FLIP):
                    lm = LiftedMapping(eta, (t1, t2))
                    res = verify_lift(lm, qa, qb, samples=60, seed=4)
                    assert not res.passed
                    if t1 is KEEP and t2 is KEEP:
                        assert res.space_escapes == ()
                        assert res.max_deviation > 0.1

    def test_batched_check_uses_the_sampling_loop_profiles(self):
        # g2 is no image of g, so the worst deviation depends on every
        # sampled profile; mixed spaces make the number of draws per
        # player differ, which pins the RNG order
        rng = np.random.default_rng(13)
        g = EwlGame(random_game(rng, (2, 2, 2)), (D, F, StrategySpace.ONE_PARAM))
        g2 = EwlGame(random_game(rng, (2, 2, 2)), (FULL, D, F))
        lm = LiftedMapping((1, 2, 0), (FLIP, KEEP, FLIP))
        res = verify_lift(lm, g, g2, samples=40, seed=9)

        draws = np.random.default_rng(9)
        profiles = [tuple(sample_strategy(s, draws) for s in g.spaces) for _ in range(40)]
        escapes, worst = set(), 0.0
        for params in profiles:
            mapped = apply_lift(lm, params)
            escapes |= {k for k in range(3) if not in_space(g2.spaces[k], mapped[k])}
            u, u2 = oracle_payoffs(g, params), oracle_payoffs(g2, mapped)
            worst = max(worst, max(abs(u[i] - u2[lm.eta[i]]) for i in range(3)))
        assert res.space_escapes == tuple(sorted(escapes)) != ()
        assert worst > 0.1
        assert abs(res.max_deviation - worst) <= 1e-12

    @given(
        st.data(),
        st.integers(2, 4),
        st.booleans(),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 1, 7]),
    )
    @settings(max_examples=80, deadline=None)
    def test_report_equals_the_per_profile_oracle(self, data, n, image, samples, seed, block):
        # mixed spaces on both sides make escapes common; images of the
        # classical game give deviations near 1e-15, other pairs large ones;
        # `block` samples at a time, or as many as fit in BLOCK_BYTES. A
        # block of another size may round the payoffs differently
        rng = np.random.default_rng(seed)
        g = random_game(rng, (2,) * n)
        if image:
            f = random_mapping(rng, (2,) * n)
            g2, lm = image_game(f, g), lift(f, g)
        else:
            g2 = random_game(rng, (2,) * n)
            transforms = st.sampled_from([KEEP, FLIP]) | st.builds(
                AngleTransform, st.booleans(), st.floats(-7, 7), st.floats(-7, 7)
            )
            eta = data.draw(st.permutations(range(n)))
            lm = LiftedMapping(eta, tuple(data.draw(transforms) for _ in range(n)))
        spaces = st.lists(st.sampled_from(list(StrategySpace)), min_size=n, max_size=n)
        qa, qb = EwlGame(g, data.draw(spaces)), EwlGame(g2, data.draw(spaces))
        lift_module = importlib.import_module("qgame.lift")
        sample_block = lift_module._sample_block if block is None else lambda players: block
        with mock.patch.object(lift_module, "_sample_block", sample_block):
            report = verify_lift(lm, qa, qb, samples=samples, seed=seed)
        want = verify_lift_oracle(lm, qa, qb, samples, seed, LIFT_TOL)
        if block is None:
            assert report == want
        else:
            assert abs(report.max_deviation - want.max_deviation) <= 1e-12
            assert report._replace(max_deviation=want.max_deviation) == want

    @given(
        st.data(),
        st.integers(2, 4),
        st.booleans(),
        st.integers(0, 2**32 - 1),
        st.sampled_from([None, 1, 7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_equals_separate_calls(self, data, n, image, seed, block):
        # every strong isomorphism of a symmetric game onto an image of
        # it, at least the n! player permutations, checked against the
        # image or against a game they do not map onto; mixed spaces let
        # FLIP escape the alpha plane. `block` samples at a time, or as
        # many as fit in BLOCK_BYTES, with counts of one to three blocks
        rng = np.random.default_rng(seed)
        g = symmetric_game(rng, n)
        g2 = image_game(random_mapping(rng, (2,) * n), g)
        lms = [lift(f, g) for f in find_strong_isomorphisms(g, g2)]
        assert len(lms) >= 2
        if not image:
            g2 = random_game(rng, (2,) * n)
        spaces = st.lists(st.sampled_from(list(StrategySpace)), min_size=n, max_size=n)
        qa, qb = EwlGame(g, data.draw(spaces)), EwlGame(g2, data.draw(spaces))
        lift_module = importlib.import_module("qgame.lift")
        step = _sample_block(n) if block is None else block
        samples = data.draw(st.integers(1, 3 * step))
        with mock.patch.object(lift_module, "_sample_block", lambda players: step):
            reports = verify_lifts(lms, qa, qb, samples=samples, seed=seed)
            alone = [verify_lift(lm, qa, qb, samples=samples, seed=seed) for lm in lms]
        assert len(reports) == len(lms)
        for report, want in zip(reports, alone):
            assert np.float64(report.max_deviation).tobytes() == np.float64(want.max_deviation).tobytes()
            assert report.space_escapes == want.space_escapes
            assert report.passed == want.passed
            assert report == want

    def test_one_pass_keeps_each_mappings_escapes(self):
        # from the alpha and beta planes into two alpha planes: the column
        # swap reflects player 2's beta strategies out of the second; the
        # player swap moves them unreflected into the first and reflects
        # player 1's alpha strategies out of the second
        qa, qb = EwlGame(PD, (D, F)), EwlGame(PD_SWAPPED, (D, D))
        lms = [lift(f, PD) for f in find_strong_isomorphisms(PD, PD_SWAPPED)]
        reports = verify_lifts(lms, qa, qb, samples=50, seed=8)
        assert [r.space_escapes for r in reports] == [(1,), (0, 1)]
        assert [r.max_deviation < 1e-10 for r in reports] == [True, True]
        assert reports == tuple(verify_lift(lm, qa, qb, samples=50, seed=8) for lm in lms)

    def test_one_pass_of_no_mapping_reports_nothing(self):
        assert verify_lifts([], EwlGame(PD), EwlGame(PD_SWAPPED), samples=5) == ()

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sample_count_below_one_rejected(self, samples):
        lm = lift(COLUMN_SWAP, PD)
        with pytest.raises(ValueError, match="at least one sample"):
            verify_lift(lm, EwlGame(PD), EwlGame(PD_SWAPPED), samples=samples)

    def test_player_counts_must_agree(self):
        lm = lift(COLUMN_SWAP, PD)
        g3 = EwlGame(random_game(np.random.default_rng(0), (2, 2, 2)))
        with pytest.raises(ValueError, match="must agree on the player count"):
            verify_lift(lm, EwlGame(PD), g3)

    def test_flip_escape_reported_not_raised(self):
        lm = lift(COLUMN_SWAP, PD)
        qa = EwlGame(PD, (D, D))
        qb = EwlGame(PD_SWAPPED, (D, D))
        res = verify_lift(lm, qa, qb, samples=40, seed=5)
        assert res.space_escapes == (1,)
        # payoffs still agree; only the restriction is violated
        assert res.max_deviation < 1e-10
        assert not res.passed

    def test_deterministic_given_seed(self):
        lm = lift(COLUMN_SWAP, PD)
        qa, qb = EwlGame(PD), EwlGame(PD_SWAPPED)
        a = verify_lift(lm, qa, qb, samples=50, seed=11)
        b = verify_lift(lm, qa, qb, samples=50, seed=11)
        assert a == b

    def test_lifted_isomorphisms_preserve_payoffs_on_random_pairs(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            n = int(rng.integers(2, 4))
            g = random_game(rng, (2,) * n)
            f = random_mapping(rng, (2,) * n)
            g2 = image_game(f, g)
            lm = lift(f, g)
            res = verify_lift(lm, EwlGame(g), EwlGame(g2), samples=100, seed=int(rng.integers(1 << 30)))
            assert res.passed, f"payoff deviation {res.max_deviation}"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_peak_stays_within_the_sample_estimate(self, n):
        # `lift-verify`'s estimate at 4,000 and 20,000 samples, and between
        # them the peak grows by no more than the estimate: in blocks, the
        # drawn angles are all that grows with the samples. Every sample
        # in one block held 0.7-3.0 KB each at 2-4 players
        rng = np.random.default_rng(n)
        g = random_game(rng, (2,) * n)
        f = random_mapping(rng, (2,) * n)
        qa, qb, lm = EwlGame(g), EwlGame(image_game(f, g)), lift(f, g)
        peaks, needs = [], []
        for samples in (4000, 20000):
            assert _sample_block(n) < samples
            peaks.append(traced_peak(lambda: verify_lift(lm, qa, qb, samples=samples)))
            needs.append(cli._need(cli.SAMPLE_BYTES * n * samples, 2 * game_bytes(n)))
            assert peaks[-1] <= needs[-1]
        assert peaks[1] - peaks[0] <= needs[1] - needs[0]

    def test_blocks_leave_nothing_behind(self):
        # 31 and then 153 blocks of pd -> pd_swapped: what stays allocated
        # after the first run does not grow by a block. Forming each
        # transform's columns through np.moveaxis and np.stack left about
        # 380 bytes a block (13,752 and 59,200 bytes after the two runs)
        qa, qb = EwlGame(PD), EwlGame(PD_SWAPPED)
        lms = [lift(f, PD) for f in find_strong_isomorphisms(PD, PD_SWAPPED)]
        tracemalloc.start()
        try:
            left = []
            for samples, blocks in ((40000, 31), (200000, 153)):
                assert math.ceil(samples / _sample_block(2)) == blocks
                verify_lifts(lms, qa, qb, samples=samples, seed=1)
                left.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert abs(left[1] - left[0]) < 1 << 10

    @pytest.mark.parametrize("n", [3, 4])
    def test_blocks_report_as_one_block_of_every_sample(self, n):
        rng = np.random.default_rng(n)
        g = random_game(rng, (2,) * n)
        f = random_mapping(rng, (2,) * n)
        qa, qb, lm = EwlGame(g), EwlGame(image_game(f, g)), lift(f, g)
        samples = 20000
        # the report of one block of every sample, but for rounding
        lift_module = importlib.import_module("qgame.lift")
        with mock.patch.object(lift_module, "_sample_block", lambda players: samples):
            whole = verify_lift(lm, qa, qb, samples=samples)
        report = verify_lift(lm, qa, qb, samples=samples)
        assert report.passed and abs(report.max_deviation - whole.max_deviation) <= 1e-12
        assert report._replace(max_deviation=whole.max_deviation) == whole


class TestOperatorIdentitySuite:
    def test_all_checks_pass(self):
        report = operator_identity_suite(draws=200, seed=7)
        assert report.passed
        assert report.max_error < 1e-12
        assert len(report.checks) == 6

    def test_spot_value_reflection_at_zero(self):
        # U(pi, 0, pi) equals -i sigma_x
        assert np.abs(su2((math.pi, 0.0, math.pi)) - (-1j) * PAULI_X).max() < 1e-15

    def test_identity_permutation_conjugation_trivial(self):
        from qgame import permutation_operator, tensor

        us = su2([p.as_tuple() for p in random_full_params(RNG, 3)])
        S = permutation_operator((0, 1, 2))
        assert np.abs(S @ tensor(us) @ S.T - tensor(us)).max() < 1e-15

    @pytest.mark.parametrize("draws", [1, 200])
    @pytest.mark.parametrize("seed", [0, 7, 901])
    def test_matches_the_per_draw_loop(self, draws, seed):
        report = operator_identity_suite(draws=draws, seed=seed)
        oracle = identity_suite_oracle(*_identity_draws(draws, seed))
        assert [c.name for c in report.checks] == [name for name, _ in oracle]
        for check, (_, error) in zip(report.checks, oracle):
            assert abs(check.max_error - error) <= 1e-15

    def test_checks_fail_on_a_wrong_reflection_or_permutation(self, monkeypatch):
        lift_module = importlib.import_module("qgame.lift")

        def failing():
            return [c.name[:3] for c in operator_identity_suite(50, 1).checks if not c.passed]

        monkeypatch.setattr(lift_module, "FLIP", AngleTransform(True, TWO_PI, math.pi + 1e-6))
        assert failing() == ["(b)", "(c)"]
        monkeypatch.undo()
        def transposed(perm):
            # for a 3-cycle, the operator of the opposite cycle
            return permutation_operator(perm).T

        monkeypatch.setattr(lift_module, "permutation_operator", transposed)
        assert failing() == ["(d)", "(f)"]

    @pytest.mark.parametrize("draws", [0, -1])
    def test_draw_count_below_one_rejected(self, draws):
        with pytest.raises(ValueError, match="at least one draw"):
            operator_identity_suite(draws=draws)

    def test_report_is_deterministic(self):
        a = operator_identity_suite(draws=50, seed=3)
        b = operator_identity_suite(draws=50, seed=3)
        assert a == b

    def test_peak_stays_within_the_draw_estimate(self):
        # `identities`' estimate at 1,000 and 4,000 draws, and between them
        # the peak grows by no more than the estimate
        peaks, needs = [], []
        for draws in (1000, 4000):
            peaks.append(traced_peak(lambda: operator_identity_suite(draws=draws)))
            needs.append(cli._need(cli.DRAW_BYTES * draws))
            assert peaks[-1] <= needs[-1]
        assert peaks[1] - peaks[0] <= needs[1] - needs[0]
