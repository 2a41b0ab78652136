"""Tests for the tolerance-disciplined linear algebra core."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwalk.errors import DimensionMismatch, NotHermitian, NotUnitary
from chiralwalk.linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _canonical_phases,
    eig_hermitian,
    eig_unitary,
    is_involution,
    is_unitary,
    kernel_basis,
    spans_match,
    subspace_intersection,
)


def basis_vector(n, k):
    v = np.zeros((n, 1), dtype=complex)
    v[k, 0] = 1.0
    return v


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.structural == 1e-10
        assert tol.rank == 1e-8
        assert tol.cluster == 1e-8

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.0, 2.0, 1e-300])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerance(structural=bad)
        with pytest.raises(ValueError):
            Tolerance(rank=bad)
        with pytest.raises(ValueError):
            Tolerance(cluster=bad)


def _canonical_phases_by_column(v):
    """Column-by-column reference for the vectorized phase convention."""
    out = np.array(v)
    pivots = np.argmax(np.abs(out), axis=0)
    for k in range(out.shape[1]):
        entry = out[pivots[k], k]
        mag = abs(entry)
        if mag > 0.0:
            out[:, k] *= entry.conjugate() / mag
    return out


class TestCanonicalPhases:
    def test_matches_column_reference_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for rows, cols in ((1, 1), (7, 3), (40, 40)):
            z = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            z[:, 0] = 0.0  # a zero column is left alone
            assert np.array_equal(_canonical_phases(z), _canonical_phases_by_column(z))
            x = rng.normal(size=(rows, cols))
            assert np.array_equal(_canonical_phases(x), _canonical_phases_by_column(x))

    def test_real_columns_stay_real(self):
        v = _canonical_phases(np.array([[0.6, -0.8], [-0.8, -0.6]]))
        assert v.dtype == np.float64
        assert np.array_equal(v, [[-0.6, 0.8], [0.8, 0.6]])


class TestPredicates:
    def test_identity_is_unitary(self):
        assert is_unitary(np.eye(5))

    def test_diagonal_phases_are_unitary(self):
        beta = 0.3
        assert is_unitary(np.diag([np.exp(1j * beta), np.exp(-1j * beta)]))

    def test_stretched_diagonal_is_not_unitary(self):
        assert not is_unitary(np.diag([2.0, 1.0]))

    def test_phase_swap_is_involution(self):
        gamma = 0.7
        swap = np.array([[0.0, np.exp(1j * gamma)], [np.exp(-1j * gamma), 0.0]])
        assert is_involution(swap)
        assert is_unitary(swap)

    def test_identity_is_involution(self):
        assert is_involution(np.eye(3))

    def test_imaginary_diagonal_squares_to_minus_one(self):
        assert not is_involution(np.diag([1j, -1j]))


class TestKernelBasis:
    def test_zero_matrix_full_kernel(self):
        sub = kernel_basis(np.zeros((3, 3)))
        assert sub.dim == 3

    def test_identity_trivial_kernel(self):
        assert kernel_basis(np.eye(4)).dim == 0

    def test_tiny_singular_value_counts_as_kernel(self):
        # cutoff is 1e-8 relative to the largest singular value 1
        sub = kernel_basis(np.diag([1.0, 0.0, 1e-15]))
        assert sub.dim == 2

    def test_numerically_zero_matrix_counts_as_zero(self):
        # a pure-roundoff matrix must not be declared full rank
        assert kernel_basis(np.full((2, 2), 1e-16)).dim == 2

    def test_rectangular_shapes(self):
        assert kernel_basis(np.zeros((0, 4))).dim == 4
        assert kernel_basis(np.zeros((4, 0))).dim == 0
        assert kernel_basis(np.array([[1.0, 2.0, 3.0]])).dim == 2

    def test_basis_is_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 6))
        sub = kernel_basis(a)
        assert sub.dim == 3
        assert np.max(np.abs(a @ sub.basis)) < 1e-12
        gram = sub.basis.conj().T @ sub.basis
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_purely_imaginary_input_is_factorized_as_real(self):
        # A unit scalar leaves the kernel as it is, so 1j * a is handled
        # as a, in real arithmetic.
        rng = np.random.default_rng(12)
        a = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5))
        for m in (1j * a, a.astype(complex)):
            sub = kernel_basis(m)
            assert sub.basis.dtype == np.float64
            assert np.array_equal(sub.basis, kernel_basis(a).basis)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=8),
       r=st.integers(min_value=0, max_value=8),
       seed=st.integers(min_value=0, max_value=10**6))
def test_nullity_plus_rank_is_dimension(n, r, seed):
    r = min(r, n)
    rng = np.random.default_rng(seed)
    a = (rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))) @ \
        (rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n)))
    nullity = kernel_basis(a).dim
    oracle_rank = np.linalg.matrix_rank(a, tol=1e-10)
    assert nullity + oracle_rank == n


class TestEigHermitian:
    def test_exactly_real_complex_input_is_factorized_as_real(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        w, v = eig_hermitian(a)
        assert v.dtype == np.float64
        assert np.allclose(w, [1.0, 3.0])

    def test_diagonal_sorted_ascending(self):
        w, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        w, v = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2))

    def test_one_by_one(self):
        w, _ = eig_hermitian(np.array([[2.5]]))
        assert np.allclose(w, [2.5])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        a = z + z.conj().T
        w, v = eig_hermitian(a)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - a)) < 1e-10 * 7

    def test_deterministic_phases(self):
        a = np.diag([1.0, 1.0, -1.0])
        _, v1 = eig_hermitian(a)
        _, v2 = eig_hermitian(a)
        assert np.array_equal(v1, v2)


class TestEigUnitary:
    def test_identity(self):
        w, _ = eig_unitary(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_phase_pair_sorted_by_argument(self):
        w, _ = eig_unitary(np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)]))
        assert np.allclose(np.angle(w), [-np.pi / 3, np.pi / 3])

    def test_cyclic_shift_gives_cube_roots_of_unity(self):
        shift = np.roll(np.eye(3), 1, axis=0)
        w, v = eig_unitary(shift)
        # characteristic polynomial is z^3 = 1
        assert np.max(np.abs(w**3 - 1.0)) < 1e-12
        assert np.allclose(sorted(np.angle(w)),
                           [-2 * np.pi / 3, 0.0, 2 * np.pi / 3], atol=1e-12)
        assert np.max(np.abs(shift @ v - v * w)) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            eig_unitary(np.diag([2.0, 1.0]))

    def test_real_matrix_with_degenerate_clusters(self):
        # The clusters of a real rotation's Hermitian part are split by
        # complex rotations; they must not be cast into a real array.
        c, s = np.cos(0.7), np.sin(0.7)
        rotation = np.array([[c, -s], [s, c]])
        q, _ = np.linalg.qr(np.random.default_rng(9).normal(size=(7, 7)))
        blocks = np.zeros((7, 7))
        blocks[:2, :2] = blocks[2:4, 2:4] = rotation
        blocks[4:, 4:] = np.diag([1.0, -1.0, -1.0])
        u = q @ blocks @ q.T
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            w, v = eig_unitary(u)
        assert np.max(np.abs(v.conj().T @ v - np.eye(7))) < 1e-12
        assert np.max(np.abs(u @ v - v * w)) < 1e-10
        assert np.allclose(w, np.exp(1j * np.array([-0.7, -0.7, 0.0, 0.7, 0.7, np.pi, np.pi])))

    def test_degenerate_eigenspace_stays_orthonormal(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        q, _ = np.linalg.qr(z)
        u = q @ np.diag([1, 1, 1, -1, 1j, -1j]) @ q.conj().T
        w, v = eig_unitary(u)
        assert np.max(np.abs(v.conj().T @ v - np.eye(6))) < 1e-12
        assert np.max(np.abs(u @ v - v * w)) < 1e-10
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=8),
       seed=st.integers(min_value=0, max_value=10**6))
def test_unitary_eigenvalues_unimodular(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    w, v = eig_unitary(q)
    assert np.max(np.abs(np.abs(w) - 1.0)) <= DEFAULT_TOL.structural
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12


class TestSubspaceIntersection:
    def test_same_line(self):
        s = Subspace(3, basis_vector(3, 0))
        out = subspace_intersection(s, s)
        assert out.dim == 1
        assert np.abs(np.vdot(out.basis[:, 0], basis_vector(3, 0))) == pytest.approx(1.0)

    def test_orthogonal_lines(self):
        s1 = Subspace(3, basis_vector(3, 0))
        s2 = Subspace(3, basis_vector(3, 1))
        assert subspace_intersection(s1, s2).dim == 0

    def test_planes_meet_in_line(self):
        s1 = Subspace(3, np.hstack([basis_vector(3, 0), basis_vector(3, 1)]))
        s2 = Subspace(3, np.hstack([basis_vector(3, 1), basis_vector(3, 2)]))
        out = subspace_intersection(s1, s2)
        assert out.dim == 1
        assert np.abs(np.vdot(out.basis[:, 0], basis_vector(3, 1))) == pytest.approx(1.0)

    def test_shared_line_beside_a_nearly_shared_direction(self):
        # One direction is shared exactly (its sine is roundoff), the other
        # is 2.5e-8 off; the shared line must be kept and the other dropped
        # whatever the scale of the largest sine.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
            theta = 2.5e-8
            tilted = np.cos(theta) * q[:, 1] + np.sin(theta) * q[:, 4]
            b1, _ = np.linalg.qr(np.column_stack([q[:, 0], tilted]))
            out = subspace_intersection(Subspace(6, b1), Subspace(6, q[:, :3]))
            assert out.dim == 1
            assert np.abs(np.vdot(out.basis[:, 0], q[:, 0])) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_intersection(Subspace(2, basis_vector(2, 0)),
                                  Subspace(3, basis_vector(3, 0)))

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        s1 = Subspace(6, q[:, :4])
        # share a 2-dim piece with s1, then two fresh directions
        s2 = Subspace(6, np.hstack([q[:, 2:4], q[:, 4:6]]))
        a = subspace_intersection(s1, s2)
        b = subspace_intersection(s2, s1)
        assert a.dim == b.dim == 2
        same, residual = spans_match(a, b)
        assert same and residual <= DEFAULT_TOL.structural
