import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    basis_state,
    expectation,
    is_unitary,
    permutation_operator_oracle,
    su2_oracle,
)
from qgame.ewl import _UNIT_ANGLES
from qgame.linalg import (
    ID2,
    PAULI_X,
    TWO_PI,
    SU2Params,
    basis_index,
    entangler,
    permutation_operator,
    su2,
    tensor,
)

RNG = np.random.default_rng(2024)


def random_params(rng):
    return SU2Params(rng.uniform(0, math.pi), rng.uniform(0, TWO_PI), rng.uniform(0, TWO_PI))


class TestSU2Params:
    def test_angle_normalization(self):
        p = SU2Params(1.0, 2 * math.pi + 0.5, -0.5)
        assert p.alpha == pytest.approx(0.5)
        assert p.beta == pytest.approx(TWO_PI - 0.5)

    def test_exact_two_pi_wraps_to_zero(self):
        assert SU2Params(0.3, TWO_PI, TWO_PI).alpha == 0.0

    @pytest.mark.parametrize("theta", [-0.1, math.pi + 0.1, 7.0])
    def test_theta_out_of_range_rejected(self, theta):
        with pytest.raises(ValueError):
            SU2Params(theta)

    @pytest.mark.parametrize(
        "alpha,beta",
        [(math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (0.0, math.inf), (0.0, math.nan)],
    )
    def test_non_finite_phase_rejected(self, alpha, beta):
        # inf % 2pi is nan, so an unchecked phase would give nan payoffs
        with pytest.raises(ValueError, match="alpha and beta must be finite"):
            SU2Params(1.0, alpha, beta)


class TestSU2Matrix:
    def test_identity(self):
        assert np.allclose(su2((0, 0, 0)), ID2, atol=1e-15)

    def test_pi_is_i_sigma_x(self):
        assert np.allclose(su2((math.pi, 0, 0)), 1j * PAULI_X, atol=1e-15)

    def test_reflection_is_minus_i_sigma_x_times_original(self):
        # U(pi-t, 2pi-b, pi-a) = -i X U(t, a, b)
        for _ in range(100):
            p = random_params(RNG)
            lhs = su2(SU2Params(math.pi - p.theta, TWO_PI - p.beta, math.pi - p.alpha).as_tuple())
            rhs = -1j * PAULI_X @ su2(p.as_tuple())
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_two_param_reflection(self):
        # beta = 0 special case of the full reflection
        for _ in range(100):
            t, a = RNG.uniform(0, math.pi), RNG.uniform(0, TWO_PI)
            lhs = su2(SU2Params(math.pi - t, 0.0, math.pi - a).as_tuple())
            rhs = -1j * PAULI_X @ su2((t, a, 0.0))
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_array_form_matches_su2(self):
        # bitwise equal to the scalar formula of the dense oracle, row by
        # row, on one row, the four quaternion units and a 2-d stack
        angles = RNG.uniform(0, 1, (40, 3)) * (math.pi, TWO_PI, TWO_PI)
        stack = su2(angles.reshape(8, 5, 3))
        assert stack.shape == (8, 5, 2, 2)
        for rows, got in [
            (angles[:1], su2(angles[0])[None]),
            (_UNIT_ANGLES, su2(_UNIT_ANGLES)),
            (angles, stack.reshape(-1, 2, 2)),
        ]:
            want = np.stack([su2_oracle(SU2Params(*a)) for a in rows])
            assert got.tobytes() == want.tobytes()

    def test_unitary_and_det_one_many_draws(self):
        for _ in range(1000):
            u = su2(random_params(RNG).as_tuple())
            assert is_unitary(u, tol=1e-12)
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    @given(
        st.floats(0, math.pi, allow_nan=False),
        st.floats(0, TWO_PI, exclude_max=True, allow_nan=False),
        st.floats(0, TWO_PI, exclude_max=True, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_unitary_property(self, theta, alpha, beta):
        u = su2((theta, alpha, beta))
        assert np.abs(u.conj().T @ u - ID2).max() < 1e-12


class TestTensor:
    def test_identity_factors(self):
        assert np.allclose(tensor([ID2, ID2]), np.eye(4))

    def test_x_on_first_qubit(self):
        state = tensor([PAULI_X, ID2]) @ basis_state(2, (0, 0))
        assert np.allclose(state, basis_state(2, (1, 0)))

    def test_associativity(self):
        for _ in range(20):
            mats = su2([random_params(RNG).as_tuple() for _ in range(3)])
            a = tensor(mats)
            b = np.kron(mats[0], tensor(mats[1:]))
            assert np.abs(a - b).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tensor([])


class TestEntangler:
    def test_bell_like_initial_state(self):
        state = entangler(2) @ basis_state(2, (0, 0))
        expected = (basis_state(2, (0, 0)) + 1j * basis_state(2, (1, 1))) / math.sqrt(2)
        assert np.abs(state - expected).max() < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unitary(self, n):
        assert is_unitary(entangler(n), tol=1e-12)

    def test_commutes_with_x_pattern(self):
        J = entangler(3)
        op = tensor([PAULI_X, ID2, PAULI_X])
        assert np.abs(J @ op - op @ J).max() < 1e-12

    def test_commutes_with_all_x(self):
        for n in (2, 3):
            J = entangler(n)
            xs = tensor([PAULI_X] * n)
            assert np.abs(J @ xs - xs @ J).max() < 1e-12

    def test_commutes_with_qubit_permutations(self):
        for n in (2, 3):
            J = entangler(n)
            for perm in permutations(range(n)):
                S = permutation_operator(perm)
                assert np.abs(J @ S - S @ J).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_the_kronecker_form_bitwise(self, n):
        J = (np.eye(2**n, dtype=complex) + 1j * tensor([PAULI_X] * n)) / math.sqrt(2.0)
        assert entangler(n).tobytes() == J.tobytes()

    @pytest.mark.parametrize("n", [0, 5])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            entangler(n)


class TestPermutationOperator:
    def test_identity_permutation(self):
        assert np.allclose(permutation_operator((0, 1, 2)), np.eye(8))

    def test_three_cycle_matrix(self):
        # The cycle 1->2->3->1 written out as an outer-product sum:
        # |000><000| + |001><010| + |010><100| + |011><110|
        # + |100><001| + |101><011| + |110><101| + |111><111|
        expected = np.zeros((8, 8), dtype=complex)
        for ket, bra in [(0, 0), (1, 2), (2, 4), (3, 6), (4, 1), (5, 3), (6, 5), (7, 7)]:
            expected[ket, bra] = 1.0
        assert np.array_equal(permutation_operator((1, 2, 0)), expected)

    def test_conjugation_reorders_factors(self):
        for perm in permutations(range(3)):
            us = su2([random_params(RNG).as_tuple() for _ in range(3)])
            S = permutation_operator(perm)
            inv = [perm.index(k) for k in range(3)]
            lhs = S @ tensor(us) @ S.conj().T
            rhs = tensor([us[i] for i in inv])
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = tuple(int(v) for v in rng.permutation(3))
            q = tuple(int(v) for v in rng.permutation(3))
            pq = tuple(p[q[i]] for i in range(3))  # apply q first, then p
            assert np.array_equal(
                permutation_operator(pq),
                permutation_operator(p) @ permutation_operator(q),
            )

    def test_dual_vectors_see_the_inverse(self):
        perm = (1, 2, 0)
        S = permutation_operator(perm)
        for j in range(8):
            bits = [(j >> (2 - i)) & 1 for i in range(3)]
            inv_bits = [bits[perm[k]] for k in range(3)]
            row = S[j, :]
            assert row[basis_index(inv_bits)] == 1.0
            assert row.sum() == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_per_ket_loop_bitwise(self, n):
        for perm in permutations(range(n)):
            for fast, slow in [
                (permutation_operator(perm), permutation_operator_oracle(perm)),
                (permutation_operator(list(perm)), permutation_operator_oracle(perm)),
            ]:
                assert fast.dtype == slow.dtype == complex
                assert np.array_equal(fast, slow)

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            permutation_operator((0, 0, 1))


class TestExpectation:
    def test_identity_observable(self):
        state = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        state /= np.linalg.norm(state)
        assert expectation(state, np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_projector_weight(self):
        obs = np.diag([4.0, 7.0, 1.0, 2.0]).astype(complex)
        assert expectation(basis_state(2, (0, 0)), obs) == pytest.approx(4.0)

    def test_diagonal_matches_direct_sum(self):
        for _ in range(50):
            state = RNG.normal(size=8) + 1j * RNG.normal(size=8)
            state /= np.linalg.norm(state)
            diag = RNG.normal(size=8)
            direct = sum(d * abs(c) ** 2 for d, c in zip(diag, state))
            assert abs(expectation(state, np.diag(diag)) - direct) < 1e-12

    def test_non_hermitian_rejected(self):
        obs = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            expectation(np.array([1, 0], dtype=complex), obs)
