import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_pure_nash,
    brute_force_strong_isomorphisms,
    compose,
    identity_mapping,
    is_mixed_equilibrium_2x2,
    pd_game,
    random_game,
    random_mapping,
)
from qgame import (
    ClassicalGame,
    GameMapping,
    MixedProfile2x2,
    apply_mapping,
    equilibrium_transport_check,
    find_strong_isomorphisms,
    image_game,
    is_strong_isomorphism,
    mixed_nash_2x2,
    pure_nash_equilibria,
    strategic_equivalence,
)

# Worked 2-player example: swap the players, keep player 1's strategy
# order, reverse player 2's.
SWAP_PLAYERS = GameMapping(eta=(1, 0), phi=((0, 1), (1, 0)))

ANTIDIAG = ClassicalGame((("t", "b"), ("l", "r")), [[(4, 4), (1, 3)], [(3, 1), (2, 2)]])
ANTIDIAG_SWAPPED = ClassicalGame((("t", "b"), ("l", "r")), [[(4, 4), (3, 1)], [(1, 3), (2, 2)]])

PD = pd_game(5, 3, 1, 0)
PD_SWAPPED = ClassicalGame((("t", "b"), ("l", "r")), [[(0, 5), (3, 3)], [(1, 1), (5, 0)]])
COLUMN_SWAP = GameMapping(eta=(0, 1), phi=((0, 1), (1, 0)))


class TestClassicalGame:
    def test_shape_and_payoff_access(self):
        assert PD.shape == (2, 2)
        assert tuple(PD.payoffs[1, 0]) == (5.0, 0.0)
        assert (PD.labels[0][1], PD.labels[1][0]) == ("b", "l")

    @pytest.mark.parametrize(
        "labels,shape,message",
        [
            ((("a", "a"),), (2, 1), "player 1 has duplicate strategy labels"),
            ((), (0,), "need at least one player"),
            ((("a",), ("x", "y")), (1, 2, 2), "player 1 needs at least two strategies"),
        ],
    )
    def test_bad_labels_rejected(self, labels, shape, message):
        with pytest.raises(ValueError, match=message):
            ClassicalGame(labels, np.zeros(shape))

    def test_wrong_tensor_shape_rejected(self):
        with pytest.raises(ValueError):
            ClassicalGame((("a", "b"), ("x", "y")), np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        cells = [[(np.inf, 0), (0, 0)], [(0, 0), (0, 0)]]
        with pytest.raises(ValueError):
            ClassicalGame((("a", "b"), ("x", "y")), cells)

    def test_pd_ordering_enforced(self):
        with pytest.raises(ValueError):
            pd_game(T=1, R=3, P=1, S=0)


class TestGameMapping:
    def test_rejects_non_permutation_or_wrong_phi_count(self):
        with pytest.raises(ValueError):
            GameMapping(eta=(0, 0), phi=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            GameMapping(eta=(0, 1), phi=((0, 0), (0, 1)))
        with pytest.raises(ValueError, match="need one strategy bijection per player"):
            GameMapping(eta=(0, 1), phi=((0, 1),))

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            shape = tuple(rng.integers(2, 4, size=rng.integers(1, 4)))
            f = random_mapping(rng, shape)
            g = random_game(rng, shape)
            s = tuple(int(rng.integers(0, m)) for m in shape)
            assert apply_mapping(f.inverse(), apply_mapping(f, s)) == s
            assert f.inverse().inverse() == f

    def test_identity(self):
        f = identity_mapping((2, 2))
        assert apply_mapping(f, (1, 0)) == (1, 0)


class TestApplyMapping:
    def test_worked_two_player_case(self):
        # (t, l) -> (b', l') under the player-swapping mapping
        assert apply_mapping(SWAP_PLAYERS, (0, 0)) == (1, 0)
        assert apply_mapping(SWAP_PLAYERS, (0, 1)) == (0, 0)
        assert apply_mapping(SWAP_PLAYERS, (1, 0)) == (1, 1)
        assert apply_mapping(SWAP_PLAYERS, (1, 1)) == (0, 1)

    def test_three_player_cycle(self):
        f = GameMapping(eta=(1, 2, 0), phi=((0, 1), (1, 0), (1, 0)))
        # (t, r, v) -> (b', l', v')
        assert apply_mapping(f, (0, 1, 0)) == (1, 0, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_mapping(SWAP_PLAYERS, (0, 0, 0))
        with pytest.raises(ValueError):
            apply_mapping(SWAP_PLAYERS, (0, 2))


class TestStrongIsomorphism:
    def test_constructed_player_swap_pair(self):
        # second game built so the player-swapping mapping preserves payoffs
        a = [[1, 2], [3, 4]]
        b = [[5, 6], [7, 8]]
        g = ClassicalGame((("t", "b"), ("l", "r")),
                          [[(a[0][0], b[0][0]), (a[0][1], b[0][1])],
                           [(a[1][0], b[1][0]), (a[1][1], b[1][1])]])
        g2 = ClassicalGame((("t", "b"), ("l", "r")),
                           [[(b[0][1], a[0][1]), (b[1][1], a[1][1])],
                            [(b[0][0], a[0][0]), (b[1][0], a[1][0])]])
        assert is_strong_isomorphism(SWAP_PLAYERS, g, g2)

    def test_identity_on_self(self):
        for g in (PD, ANTIDIAG):
            assert is_strong_isomorphism(identity_mapping(g.shape), g, g)

    def test_antidiagonal_pair_has_no_isomorphism(self):
        shapes = [GameMapping(eta, (p1, p2))
                  for eta in ((0, 1), (1, 0))
                  for p1 in ((0, 1), (1, 0))
                  for p2 in ((0, 1), (1, 0))]
        assert len(shapes) == 8
        for f in shapes:
            assert not is_strong_isomorphism(f, ANTIDIAG, ANTIDIAG_SWAPPED)

    def test_shape_mismatch_is_false_not_error(self):
        g3 = random_game(np.random.default_rng(0), (2, 3))
        assert not is_strong_isomorphism(SWAP_PLAYERS, PD, g3)


class TestFindStrongIsomorphisms:
    def test_self_isomorphisms_contain_identity(self):
        g = random_game(np.random.default_rng(1), (2, 2))
        isos = find_strong_isomorphisms(g, g)
        assert identity_mapping((2, 2)) in isos

    def test_pd_pair_contains_column_swap(self):
        isos = find_strong_isomorphisms(PD, PD_SWAPPED)
        assert isos
        assert COLUMN_SWAP in isos

    def test_antidiagonal_pair_empty(self):
        assert find_strong_isomorphisms(ANTIDIAG, ANTIDIAG_SWAPPED) == []

    def test_deterministic_order(self):
        a = find_strong_isomorphisms(PD, PD_SWAPPED)
        b = find_strong_isomorphisms(PD, PD_SWAPPED)
        assert a == b

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_image_under_random_mapping_is_found(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        shape = tuple(int(v) for v in rng.integers(2, 4, size=n))
        g = random_game(rng, shape)
        f = random_mapping(rng, shape)
        g2 = image_game(f, g)
        isos = find_strong_isomorphisms(g, g2)
        assert f in isos
        assert equilibrium_transport_check(f, g, g2)

    def test_inverse_is_isomorphism(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_game(rng, (2, 2, 2))
            f = random_mapping(rng, (2, 2, 2))
            g2 = image_game(f, g)
            assert is_strong_isomorphism(f, g, g2)
            assert is_strong_isomorphism(f.inverse(), g2, g)

    def test_image_of_a_mismatched_shape_rejected(self):
        g = random_game(np.random.default_rng(7), (3, 2))
        with pytest.raises(ValueError, match="mapping does not match game shape"):
            image_game(SWAP_PLAYERS, g)

    def test_composition_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_game(rng, (2, 2))
            f1 = random_mapping(rng, (2, 2))
            g2 = image_game(f1, g)
            f2 = random_mapping(rng, (2, 2))
            g3 = image_game(f2, g2)
            combined = compose(f1, f2)
            assert combined in find_strong_isomorphisms(g, g3)

    @pytest.mark.parametrize(
        "m,max_mappings,message",
        [
            (5, 28_800, None),
            (5, 28_799, "more than 28,799 candidate mappings: 28,800 to check"),
            (7, 5_040, "more than 5,040 candidate mappings: 50,803,200 to check"),
            (7, 5_039, "more than 5,039 candidate mappings: 5,040 partial strategy bijections"),
        ],
    )
    def test_max_mappings_boundary(self, m, max_mappings, message):
        # every mapping of a constant game is an isomorphism: 2 * (m!)^2
        # candidates, from m! bijections for each pair of players
        g = ClassicalGame([[f"s{k}" for k in range(m)]] * 2, np.zeros((m, m, 2)))
        if message is None:
            found = find_strong_isomorphisms(g, g, max_mappings=max_mappings)
            assert len(found) == max_mappings
            assert found == find_strong_isomorphisms(g, g)
        else:
            with pytest.raises(ValueError, match=message):
                find_strong_isomorphisms(g, g, max_mappings=max_mappings)


class TestIsomorphismSearchAgainstOracle:
    """`find_strong_isomorphisms` must return exactly the brute-force
    oracle's list, order included, on tie-heavy games where the
    signature filter prunes least."""

    @pytest.mark.parametrize(
        "kind, moved",
        [("image", 0.0), ("image", 5e-13), ("image", 1e-11), ("unrelated", 0.0), ("other shape", 0.0)],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.lists(st.integers(2, 3), min_size=1, max_size=3).map(tuple),
        high=st.sampled_from((2, 3, 10)),
    )
    @example(seed=0, shape=(2, 3, 2), high=2)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, kind, moved, seed, shape, high):
        rng = np.random.default_rng(seed)
        g = random_game(rng, shape, high=high)
        # eta is any permutation, so the image may reorder unequal players
        f = GameMapping(
            tuple(rng.permutation(len(shape))), tuple(tuple(rng.permutation(m)) for m in shape)
        )
        g2 = image_game(f, g)
        if moved:
            payoffs = g2.payoffs.copy()
            payoffs[tuple(int(rng.integers(0, m)) for m in payoffs.shape)] += moved
            g2 = ClassicalGame(g2.labels, payoffs)
        if kind == "unrelated":
            g2 = random_game(rng, g2.shape, high=high)
        elif kind == "other shape":
            # same player count, one player's strategy count changed
            g2 = random_game(rng, (5 - shape[0],) + shape[1:], high=high)
        found = find_strong_isomorphisms(g, g2)
        assert found == brute_force_strong_isomorphisms(g, g2)
        if kind == "image":
            # the 1e-11 move breaks f; within PAYOFF_TOL it survives
            assert (f in found) == (moved < 1e-12)

    def test_constant_game_returns_every_mapping(self):
        g = ClassicalGame([("a", "b", "c")] * 3, np.full((3, 3, 3, 3), 2.0))
        found = find_strong_isomorphisms(g, g)
        assert len(found) == 6 * 6**3
        assert found == brute_force_strong_isomorphisms(g, g)

    def test_latin_square_with_equal_signatures(self):
        i, j = np.indices((3, 3))
        g = ClassicalGame([("a", "b", "c")] * 2, np.stack([(i + j) % 3, (i + 2 * j) % 3], -1))
        # every strategy's own-payoff slice is {0, 1, 2}: nothing is pruned
        g2 = image_game(GameMapping((1, 0), ((2, 0, 1), (1, 2, 0))), g)
        for other in (g, g2):
            found = find_strong_isomorphisms(g, other)
            assert found
            assert found == brute_force_strong_isomorphisms(g, other)

    def test_equal_signatures_still_need_the_profile_check(self):
        # swapping u1(t, l) and u1(t, r) keeps every signature, so only
        # the per-profile check at PAYOFF_TOL rejects the identity
        g = ClassicalGame((("t", "b"), ("l", "r")), [[(1, 0), (1 + 1e-11, 0)], [(0, 0), (0, 0)]])
        g2 = ClassicalGame((("t", "b"), ("l", "r")), [[(1 + 1e-11, 0), (1, 0)], [(0, 0), (0, 0)]])
        found = find_strong_isomorphisms(g, g2)
        assert identity_mapping((2, 2)) not in found
        assert found == brute_force_strong_isomorphisms(g, g2)

    def test_four_players_four_strategies_stays_fast(self):
        # 4! * (4!)^4, about 8M candidates for an exhaustive search
        rng = np.random.default_rng(2024)
        shape = (4, 4, 4, 4)
        g = random_game(rng, shape)
        f = random_mapping(rng, shape)
        g2 = image_game(f, g)
        start = time.perf_counter()
        found = find_strong_isomorphisms(g, g2)
        elapsed = time.perf_counter() - start
        assert f in found
        assert elapsed < 1.0


class TestStrategicEquivalence:
    def test_self_fit(self):
        assert strategic_equivalence(PD, PD) == [(1.0, 0.0), (1.0, 0.0)]

    def test_affine_image(self):
        g2 = ClassicalGame(PD.labels, 2.0 * PD.payoffs + 5.0)
        assert strategic_equivalence(PD, g2) == [(2.0, 5.0), (2.0, 5.0)]

    def test_scaled_prisoners_dilemma(self):
        doubled = pd_game(10, 6, 2, 0)
        fits = strategic_equivalence(PD, doubled)
        assert fits is not None
        for alpha, beta in fits:
            assert alpha == pytest.approx(2.0, abs=1e-9)
            assert beta == pytest.approx(0.0, abs=1e-9)
        # direct substitution: v = 2u + 0 at every profile
        for s in np.ndindex(*PD.shape):
            assert np.allclose(doubled.payoffs[s], 2.0 * PD.payoffs[s])

    def test_constant_payoff_convention(self):
        g = ClassicalGame((("t", "b"), ("l", "r")), [[(1, 0), (1, 2)], [(1, 5), (1, 1)]])
        g2 = ClassicalGame((("t", "b"), ("l", "r")), [[(4, 0), (4, 2)], [(4, 5), (4, 1)]])
        fits = strategic_equivalence(g, g2)
        assert fits is not None
        assert fits[0] == (1.0, 3.0)

    def test_not_equivalent(self):
        assert strategic_equivalence(PD, ANTIDIAG) is None

    def test_negative_scaling_rejected(self):
        g2 = ClassicalGame(PD.labels, -1.0 * PD.payoffs)
        assert strategic_equivalence(PD, g2) is None

    def test_label_mismatch_raises(self):
        other = ClassicalGame((("x", "y"), ("l", "r")), [[(0, 0), (0, 0)], [(0, 0), (0, 0)]])
        with pytest.raises(ValueError):
            strategic_equivalence(PD, other)

    def test_equivalence_implies_same_equilibria(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_game(rng, (2, 3))
            alphas = rng.uniform(0.5, 3.0, size=2)
            betas = rng.uniform(-5, 5, size=2)
            g2 = ClassicalGame(g.labels, g.payoffs * alphas + betas)
            assert strategic_equivalence(g, g2) is not None
            assert pure_nash_equilibria(g) == pure_nash_equilibria(g2)


class TestPureNash:
    def test_antidiagonal_game(self):
        assert pure_nash_equilibria(ANTIDIAG) == [(0, 0), (1, 1)]

    def test_antidiagonal_swapped(self):
        assert pure_nash_equilibria(ANTIDIAG_SWAPPED) == [(0, 0)]

    def test_constant_game_all_profiles(self):
        g = ClassicalGame((("t", "b"), ("l", "r")), [[(1, 1), (1, 1)], [(1, 1), (1, 1)]])
        assert pure_nash_equilibria(g) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            shape = tuple(int(v) for v in rng.integers(2, 4, size=n))
            g = random_game(rng, shape, low=0, high=5)
            assert pure_nash_equilibria(g) == brute_force_pure_nash(g)


class TestMixedNash2x2:
    def test_antidiagonal_three_equilibria(self):
        eqs = mixed_nash_2x2(ANTIDIAG)
        assert eqs == [
            MixedProfile2x2(1.0, 1.0),
            MixedProfile2x2(0.0, 0.0),
            MixedProfile2x2(0.5, 0.5),
        ]

    def test_antidiagonal_swapped_single(self):
        assert mixed_nash_2x2(ANTIDIAG_SWAPPED) == [MixedProfile2x2(1.0, 1.0)]

    def test_matching_pennies(self):
        g = ClassicalGame((("h", "t"), ("h", "t")), [[(1, -1), (-1, 1)], [(-1, 1), (1, -1)]])
        assert mixed_nash_2x2(g) == [MixedProfile2x2(0.5, 0.5)]

    def test_degenerate_continuum_flagged(self):
        # player 2 indifferent everywhere; segments of equilibria exist
        g = ClassicalGame((("t", "b"), ("l", "r")), [[(1, 0), (0, 0)], [(0, 0), (1, 0)]])
        eqs = mixed_nash_2x2(g)
        assert any(e.continuum for e in eqs)
        for e in eqs:
            assert is_mixed_equilibrium_2x2(g, e.p, e.q)
        # the component's extreme points around the pure (t, l) corner
        assert MixedProfile2x2(1.0, 0.5, True) in eqs

    def test_every_reported_profile_is_an_equilibrium(self):
        rng = np.random.default_rng(29)
        for k in range(200):
            # mix generic and tie-heavy payoff tables to hit degenerate paths
            high = 4 if k % 2 else 10
            g = random_game(rng, (2, 2), low=0, high=high)
            for e in mixed_nash_2x2(g):
                assert is_mixed_equilibrium_2x2(g, e.p, e.q), (g.payoffs, e)

    def test_interior_equilibria_not_missed(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            g = random_game(rng, (2, 2), low=0, high=10)
            eqs = mixed_nash_2x2(g)
            # scan a fine probability lattice for equilibria the solver
            # should have reported (generic interior ones land on the
            # indifference point, so the scan only cross-checks coverage)
            A, B = g.payoffs[..., 0], g.payoffs[..., 1]
            den_q = A[0, 0] - A[1, 0] - A[0, 1] + A[1, 1]
            den_p = B[0, 0] - B[0, 1] - B[1, 0] + B[1, 1]
            if abs(den_q) < 1e-9 or abs(den_p) < 1e-9:
                continue
            q = (A[1, 1] - A[0, 1]) / den_q
            p = (B[1, 1] - B[1, 0]) / den_p
            if 0 <= p <= 1 and 0 <= q <= 1:
                assert any(
                    abs(e.p - p) < 1e-9 and abs(e.q - q) < 1e-9 for e in eqs
                )

    def test_wrong_shape_rejected(self):
        g = random_game(np.random.default_rng(0), (2, 3))
        with pytest.raises(ValueError):
            mixed_nash_2x2(g)


class TestEquilibriumTransport:
    def test_pd_column_swap(self):
        assert equilibrium_transport_check(COLUMN_SWAP, PD, PD_SWAPPED)

    def test_identity(self):
        f = identity_mapping((2, 2))
        assert equilibrium_transport_check(f, ANTIDIAG, ANTIDIAG)

    def test_random_three_player_pair(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_game(rng, (2, 2, 2))
            f = random_mapping(rng, (2, 2, 2))
            g2 = image_game(f, g)
            assert equilibrium_transport_check(f, g, g2)

    def test_non_isomorphism_rejected(self):
        with pytest.raises(ValueError):
            equilibrium_transport_check(COLUMN_SWAP, PD, ANTIDIAG)
