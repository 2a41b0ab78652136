"""Tests for chiral pair validation, super operators, and index routes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwalk.chiral import (
    gamma_signature,
    graded_decomposition,
    index_alpha,
    make_pair,
    projection_pair_index,
    super_operators,
    witten_index,
)
from chiralwalk.errors import (
    ChiralSymmetryViolated,
    DimensionMismatch,
    NotInvolution,
    NotProjection,
    NotUnitary,
)
from chiralwalk.linalg import kernel_basis, spans_match, subspace_intersection
from chiralwalk.models import grover_search, toy_four_dim, toy_two_dim
from chiralwalk.selfcheck import random_chiral_pair


def phase_swap(angle):
    return np.array([[0.0, np.exp(1j * angle)], [np.exp(-1j * angle), 0.0]])


def hadamard_grading_and_skewed_coin():
    """Gamma = H_64 / 8 and a coin 7e-10 from Hermitian.

    The pair (Gamma C, Gamma) is chiral to 8.75e-11, inside the default
    structural bound, while C fails the bound by a factor of seven.
    """
    h = np.ones((1, 1))
    for _ in range(6):
        h = np.block([[h, h], [h, -h]])
    phi = np.arcsin(3.5e-10)
    coin = np.diag(np.concatenate([[np.exp(1j * phi)], np.ones(31), -np.ones(32)]))
    return h / 8.0, coin


class TestMakePair:
    def test_two_dim_phase_pair(self):
        beta, gamma_phase = 0.4, 1.1
        c = gamma_phase - beta
        u = np.diag([np.exp(1j * beta), np.exp(-1j * beta)])
        pair = make_pair(u, phase_swap(gamma_phase))
        assert np.max(np.abs(pair.coin - phase_swap(c))) < 1e-12

    def test_identity_pair(self):
        pair = make_pair(np.eye(3), np.eye(3))
        assert np.array_equal(pair.coin, np.eye(3))

    def test_commuting_grading_violates_chirality(self):
        # the grading commutes with this evolution, so conjugation gives
        # back the evolution itself, not its adjoint
        u = np.diag([np.exp(1j * np.pi / 4)] * 2)
        with pytest.raises(ChiralSymmetryViolated) as excinfo:
            make_pair(u, np.diag([1.0, -1.0]))
        assert excinfo.value.residual == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_rejects_non_unitary_evolution(self):
        with pytest.raises(NotUnitary):
            make_pair(np.diag([2.0, 1.0]), np.eye(2))

    def test_rejects_non_involutory_grading(self):
        with pytest.raises(NotInvolution):
            make_pair(np.eye(2), np.diag([1j, -1j]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_pair(np.eye(2), np.eye(3))

    def test_rejects_coin_beyond_hermitian_bound(self):
        # Every report eigendecomposes the coin as Hermitian at the
        # structural bound, so the pair must be refused up front.
        gamma, coin = hadamard_grading_and_skewed_coin()
        with pytest.raises(NotInvolution,
                           match="coin is not Hermitian: residual 7.0+e-10 exceeds 1.0+e-10"):
            make_pair(gamma @ coin, gamma)


class TestSuperOperators:
    def test_diagonal_phases(self):
        beta = 0.8
        pair = toy_two_dim(beta, 1.3)
        ops = super_operators(pair)
        assert np.allclose(ops.q, np.diag([np.sin(beta), -np.sin(beta)]))
        assert np.allclose(ops.r, np.diag([np.cos(beta), np.cos(beta)]))

    def test_evolution_equal_to_grading_kills_supercharge(self):
        gamma = phase_swap(0.2)
        pair = make_pair(gamma, gamma)  # coin is the identity
        ops = super_operators(pair)
        assert np.max(np.abs(ops.q)) < 1e-12
        assert np.max(np.abs(ops.h)) < 1e-12

    def test_squared_supercharge_spectrum_bounded(self):
        pair = random_chiral_pair(np.random.default_rng(17), 8)
        ops = super_operators(pair)
        w = np.linalg.eigvalsh(ops.h)
        assert np.all(w >= -1e-12)
        assert np.all(w <= 1.0 + 1e-12)

    def test_commutation_structure(self):
        pair = random_chiral_pair(np.random.default_rng(23), 10)
        ops = super_operators(pair)
        g = pair.gamma
        assert np.max(np.abs(g @ ops.q + ops.q @ g)) < 1e-10 * 10
        assert np.max(np.abs(g @ ops.r - ops.r @ g)) < 1e-10 * 10


class TestGradedDecomposition:
    def test_identity_grading_has_empty_minus_block(self):
        pair = make_pair(np.eye(4), np.eye(4))
        graded = graded_decomposition(pair)
        assert graded.minus_basis.dim == 0
        assert graded.alpha.shape == (0, 4)

    def test_swap_grading_gives_one_by_one_block(self):
        gamma = phase_swap(0.0)
        coin = phase_swap(0.9)
        pair = make_pair(gamma @ coin, gamma)
        graded = graded_decomposition(pair)
        assert graded.alpha.shape == (1, 1)
        # eigenvectors of the swap are (e1 +- e2)/sqrt(2)
        assert np.allclose(np.abs(graded.plus_basis.basis), np.full((2, 1), 1 / np.sqrt(2)))

    def test_four_dim_block_shape(self):
        graded = graded_decomposition(toy_four_dim(2))
        assert graded.alpha.shape == (3, 1)

    def test_block_reconstructs_supercharge(self):
        pair = random_chiral_pair(np.random.default_rng(5), 9)
        graded = graded_decomposition(pair)
        ops = super_operators(pair)
        plus, minus = graded.plus_basis.basis, graded.minus_basis.basis
        rebuilt = (minus @ graded.alpha @ plus.conj().T
                   + plus @ graded.alpha.conj().T @ minus.conj().T)
        assert np.max(np.abs(rebuilt - ops.q)) < 1e-10 * 9


class TestIndexRoutes:
    @pytest.mark.parametrize("variant,expected", [(1, -4), (3, 0), (5, 4)])
    def test_four_dim_index(self, variant, expected):
        assert index_alpha(toy_four_dim(variant)) == expected

    def test_witten_index_trivial_grading(self):
        # coin equals the evolution, which is an involution here
        pair = toy_four_dim(5)
        assert witten_index(pair) == 4

    def test_witten_index_evolution_equal_to_grading(self):
        gamma = np.diag([1.0, 1.0, -1.0])
        pair = make_pair(gamma, gamma)
        assert witten_index(pair) == 2 - 1

    def test_two_dim_swap_index_zero(self):
        assert witten_index(toy_two_dim(0.7, 1.9)) == 0

    def test_routes_agree_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for dim in (2, 5, 9, 16):
            pair = random_chiral_pair(rng, dim)
            ia = index_alpha(pair)
            assert witten_index(pair) == ia
            assert gamma_signature(pair) == ia

    def test_signature_closed_form_against_nullity_oracle(self):
        # independent oracle: rank-nullity on the supercharge block
        rng = np.random.default_rng(47)
        for dim in (3, 8, 17, 32):
            pair = random_chiral_pair(rng, dim)
            graded = graded_decomposition(pair)
            d_plus = graded.plus_basis.dim
            d_minus = graded.minus_basis.dim
            rank = np.linalg.matrix_rank(graded.alpha, tol=1e-10)
            oracle = (d_plus - rank) - (d_minus - rank)
            assert index_alpha(pair) == oracle == d_plus - d_minus


class TestProjectionPairIndex:
    def test_equal_projections(self):
        p = np.diag([1.0, 0.0, 0.0])
        assert projection_pair_index(p, p) == 0

    def test_identity_versus_zero(self):
        n = 4
        assert projection_pair_index(np.eye(n), np.zeros((n, n))) == n

    def test_rejects_non_projection(self):
        with pytest.raises(NotProjection):
            projection_pair_index(np.diag([2.0, 0.0]), np.zeros((2, 2)))

    def test_search_pair_identity(self):
        pair = grover_search(2, 3)
        eye = np.eye(pair.dim)
        gamma_plus = (eye + pair.gamma) / 2
        total = (projection_pair_index(gamma_plus, (eye + pair.coin) / 2)
                 + projection_pair_index(gamma_plus, (eye - pair.coin) / 2))
        assert total == index_alpha(pair) == -4


class TestKernelIdentities:
    def test_supercharge_kernel_is_squared_evolution_kernel(self):
        rng = np.random.default_rng(13)
        for dim in (4, 7, 12):
            pair = random_chiral_pair(rng, dim)
            ops = super_operators(pair)
            ker_q = kernel_basis(ops.q)
            ker_u2 = kernel_basis(np.eye(dim) - pair.u @ pair.u)
            same, residual = spans_match(ker_q, ker_u2)
            assert same and residual < 1e-8

    def test_alpha_kernels_are_graded_supercharge_kernels(self):
        rng = np.random.default_rng(29)
        for dim in (4, 9, 14):
            pair = random_chiral_pair(rng, dim)
            ops = super_operators(pair)
            graded = graded_decomposition(pair)
            ker_q = kernel_basis(ops.q)
            for block, grading_space in (
                (graded.alpha, graded.plus_basis),
                (graded.alpha.conj().T, graded.minus_basis),
            ):
                lifted = grading_space.basis @ kernel_basis(block).basis
                expected = subspace_intersection(ker_q, grading_space)
                assert lifted.shape[1] == expected.dim
                b = expected.basis
                residual = np.max(np.abs(lifted - b @ (b.conj().T @ lifted))) \
                    if lifted.size else 0.0
                assert residual < 1e-8


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(min_value=2, max_value=12),
       seed=st.integers(min_value=0, max_value=10**6))
def test_index_routes_and_anticommutation_property(dim, seed):
    pair = random_chiral_pair(np.random.default_rng(seed), dim)
    ia = index_alpha(pair)
    assert witten_index(pair) == ia
    assert gamma_signature(pair) == ia
    ops = super_operators(pair)
    assert np.max(np.abs(pair.gamma @ ops.q + ops.q @ pair.gamma)) <= 1e-10 * dim
    assert np.max(np.abs(pair.gamma @ ops.r - ops.r @ pair.gamma)) <= 1e-10 * dim


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(min_value=2, max_value=10),
       seed=st.integers(min_value=0, max_value=10**6))
def test_index_sign_flip_property(dim, seed):
    pair = random_chiral_pair(np.random.default_rng(seed), dim)
    ia = index_alpha(pair)
    assert index_alpha(make_pair(-pair.u, pair.gamma)) == ia
    assert index_alpha(make_pair(pair.u, -pair.gamma)) == -ia
    assert index_alpha(make_pair(pair.u.conj().T, pair.gamma)) == ia


class TestIndexInvariances:
    def test_sign_flips(self):
        rng = np.random.default_rng(37)
        for dim in (3, 6, 11):
            pair = random_chiral_pair(rng, dim)
            ia = index_alpha(pair)
            assert index_alpha(make_pair(-pair.u, pair.gamma)) == ia
            assert index_alpha(make_pair(pair.u, -pair.gamma)) == -ia

    def test_inverse_invariance(self):
        rng = np.random.default_rng(41)
        for dim in (2, 8, 13):
            pair = random_chiral_pair(rng, dim)
            assert index_alpha(make_pair(pair.u.conj().T, pair.gamma)) == index_alpha(pair)

    def test_conjugation_invariance(self):
        from chiralwalk.selfcheck import haar_unitary

        rng = np.random.default_rng(43)
        for dim in (3, 7, 10):
            pair = random_chiral_pair(rng, dim)
            v = haar_unitary(rng, dim)
            moved = make_pair(v @ pair.u @ v.conj().T, v @ pair.gamma @ v.conj().T)
            assert index_alpha(moved) == index_alpha(pair)

    def test_unit_eigenvalue_count_bounds_index(self):
        rng = np.random.default_rng(53)
        for dim in (2, 6, 12, 20):
            pair = random_chiral_pair(rng, dim)
            eye = np.eye(dim)
            count = kernel_basis(pair.u - eye).dim + kernel_basis(pair.u + eye).dim
            assert count >= abs(index_alpha(pair))
