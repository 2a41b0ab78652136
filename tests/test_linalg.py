"""Tests for the tolerance-disciplined linear algebra core."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwalk import linalg
from chiralwalk.errors import DimensionMismatch
from chiralwalk.linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _canonical_phases,
    _eig_unitary,
    _eigh,
    _identity_residual,
    _involution_eigenspaces,
    kernel_basis,
    spans_match,
    subspace_intersection,
    unitarity_residual,
)
from chiralwalk.models import grover_search
from chiralwalk.selfcheck import haar_unitary


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


# The small-array helpers as first written, kept as references: the lean
# forms must give the same bits, NaN included.
def _maxabs_reference(a):
    if a.dtype.kind == "c" or not a.size:
        return float(np.max(np.abs(a))) if a.size else 0.0
    return max(abs(float(a.max())), abs(float(a.min())))


def _as_matrix_reference(a):
    arr = np.asarray(a)
    if arr.dtype != np.float64:
        arr = arr.astype(np.complex128, copy=False)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def _real_if_exact_reference(m):
    if np.iscomplexobj(m) and not m.imag.any():
        return m.real
    return m


def _canonical_phases_reference(v):
    if v.size == 0:
        return v
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    mag = np.hypot(pivot.real, pivot.imag)
    phase = np.ones_like(pivot)
    np.divide(pivot.conj(), mag, out=phase, where=mag > 0.0)
    return v * phase


def _near_unit_reference(values, target, rank_tol):
    dist = np.abs(values - target)
    dmax = float(dist.max()) if dist.size else 0.0
    return dist <= rank_tol * (dmax if dmax > rank_tol else 1.0)


def _helper_inputs():
    """Real and complex arrays up to 16 x 16 and long vectors, with zero
    columns, -0.0, exact reals held as complex, NaN and empty shapes."""
    rng = np.random.default_rng(24)
    for shape in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (7, 3), (16, 16), (16, 1),
                  (4096,), (0,)):
        x = rng.normal(size=shape)
        z = x + 1j * rng.normal(size=shape)
        yield x
        yield z
        yield x + 0j
        if x.ndim == 2 and x.shape[1] and x.shape[0]:
            for a in (x.copy(), z.copy()):
                a[:, 0] = 0.0
                a[:, -1] = -0.0
                yield a
                yield -a
        if x.size:
            for a in (x.copy(), z.copy()):
                a.flat[a.size // 2] = -0.0
                yield a
                a.flat[0] = np.nan
                yield a
            z = z.copy()
            z.flat[-1] = complex(0.0, np.nan)
            yield z


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("index", range(len(list(_helper_inputs()))))
def test_lean_helpers_match_their_references_bit_for_bit(index):
    a = list(_helper_inputs())[index]
    assert _same_bits(linalg._maxabs(a), _maxabs_reference(a))
    assert _same_bits(linalg._real_if_exact(a), _real_if_exact_reference(a))
    if a.ndim == 1:
        for target in (0.0, 1.0, -1.0):
            assert _same_bits(linalg._near_unit(a, target, 1e-8),
                              _near_unit_reference(a, target, 1e-8))
        return
    assert _same_bits(_canonical_phases(a), _canonical_phases_reference(a))
    others = [a, a.astype(np.complex64), a.tolist()]
    if a.dtype.kind == "f":
        others.append(a.astype(np.float32))
    for other in others:
        assert _outcome(linalg.as_matrix, other) == _outcome(_as_matrix_reference, other)


def _outcome(fn, a):
    """The bits, dtype and shape ``fn(a)`` returns, or the class and message it raises."""
    try:
        out = fn(a)
    except (ValueError, DimensionMismatch) as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


def test_lean_helpers_propagate_nan():
    z = np.ones((4, 4), dtype=complex)
    z[1, 2] = complex(np.nan, 0.0)
    assert np.isnan(linalg._maxabs(z)) and np.isnan(linalg._maxabs(z.real))
    v = _canonical_phases(z)
    assert np.isnan(v[1, 2]) and np.array_equal(v[:, :2], z[:, :2])
    assert linalg._near_unit(np.array([0.0, np.nan]), 0.0, 1e-8).tolist() == [True, False]


class TestPredicates:
    def test_identity_is_unitary(self):
        assert unitarity_residual(np.eye(5)) == 0.0

    def test_diagonal_phases_are_unitary(self):
        beta = 0.3
        assert unitarity_residual(np.diag([np.exp(1j * beta), np.exp(-1j * beta)])) \
            <= DEFAULT_TOL.structural

    def test_stretched_diagonal_is_not_unitary(self):
        assert unitarity_residual(np.diag([2.0, 1.0])) == pytest.approx(3.0)

    def test_phase_swap_is_involution(self):
        gamma = 0.7
        swap = np.array([[0.0, np.exp(1j * gamma)], [np.exp(-1j * gamma), 0.0]])
        assert _identity_residual(swap @ swap) <= DEFAULT_TOL.structural
        assert unitarity_residual(swap) <= DEFAULT_TOL.structural

    def test_identity_is_involution(self):
        assert _identity_residual(np.eye(3) @ np.eye(3)) == 0.0

    def test_imaginary_diagonal_squares_to_minus_one(self):
        m = np.diag([1j, -1j])
        assert _identity_residual(m @ m) == pytest.approx(2.0)


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

    def test_exactly_real_complex_input_is_factorized_as_real(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5))
        sub = kernel_basis(a.astype(complex))
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
    def test_diagonal_sorted_ascending(self):
        w, _ = _eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        w, v = _eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])
        assert np.allclose(v.conj().T @ v, np.eye(2))

    def test_one_by_one(self):
        w, _ = _eigh(np.array([[2.5]]))
        assert np.allclose(w, [2.5])

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        a = z + z.conj().T
        w, v = _eigh(a)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - a)) < 1e-10 * 7

    def test_deterministic_phases(self):
        a = np.diag([1.0, 1.0, -1.0])
        _, v1 = _eigh(a)
        _, v2 = _eigh(a)
        assert np.array_equal(v1, v2)


def _rayleigh_by_column(m, v):
    """Column-by-column reference for _eig_unitary's eigenvalues."""
    m = np.asarray(m, dtype=complex)
    return np.array([v[:, k].conj() @ m @ v[:, k] for k in range(v.shape[1])])


def _rotated_real_unitary(seed, angles, signs):
    """Real orthogonal matrix with rotation blocks and +-1 entries, in a random basis."""
    n = 2 * len(angles) + len(signs)
    blocks = np.zeros((n, n))
    for k, a in enumerate(angles):
        c, s = np.cos(a), np.sin(a)
        blocks[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
    blocks[2 * len(angles):, 2 * len(angles):] = np.diag(signs)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return q @ blocks @ q.T


class TestEigUnitary:
    def test_identity(self):
        w, _ = _eig_unitary(np.eye(2), DEFAULT_TOL)
        assert np.allclose(w, [1.0, 1.0])

    def test_phase_pair_sorted_by_argument(self):
        phases = np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
        w, _ = _eig_unitary(phases, DEFAULT_TOL)
        assert np.allclose(np.angle(w), [-np.pi / 3, np.pi / 3])

    def test_cyclic_shift_gives_cube_roots_of_unity(self):
        shift = np.roll(np.eye(3), 1, axis=0)
        w, v = _eig_unitary(shift, DEFAULT_TOL)
        # characteristic polynomial is z^3 = 1
        assert np.max(np.abs(w**3 - 1.0)) < 1e-12
        assert np.allclose(sorted(np.angle(w)),
                           [-2 * np.pi / 3, 0.0, 2 * np.pi / 3], atol=1e-12)
        assert np.max(np.abs(shift @ v - v * w)) < 1e-10

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
            w, v = _eig_unitary(u, DEFAULT_TOL)
        assert np.max(np.abs(v.conj().T @ v - np.eye(7))) < 1e-12
        assert np.max(np.abs(u @ v - v * w)) < 1e-10
        assert np.allclose(w, np.exp(1j * np.array([-0.7, -0.7, 0.0, 0.7, 0.7, np.pi, np.pi])))

    def test_degenerate_real_eigenspace_is_kept_real(self):
        # The anti-Hermitian part vanishes on the search evolution's
        # degenerate -1 eigenspace, so that cluster is not split and its
        # columns keep a zero imaginary part.
        u = grover_search(3, 1).u
        w, v = _eig_unitary(u, DEFAULT_TOL)
        minus = np.abs(w + 1.0) < 1e-8
        assert minus.sum() > 1
        assert not v[:, minus].imag.any()
        assert np.max(np.abs(u @ v - v * w)) <= 1e-12

    def test_cluster_with_small_nonzero_block_is_still_split(self):
        # Eigenvalues -1 +- 1e-9 i share a cluster of the Hermitian part,
        # but the anti-Hermitian block (norm ~1.4e-9) is above the
        # structural bound, so the cluster is split.
        u = _rotated_real_unitary(4, [np.pi - 1e-9], [1.0, -1.0, -1.0])
        w, v = _eig_unitary(u, DEFAULT_TOL)
        assert np.max(np.abs(u @ v - v * w)) <= 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(5))) < 1e-12
        near = np.sort(w[np.abs(w.imag) > 1e-12].imag)
        assert near == pytest.approx([-np.sin(1e-9), np.sin(1e-9)], rel=1e-6)

    def test_eigenvalues_match_column_rayleigh_quotients(self):
        rng = np.random.default_rng(13)
        for u in (haar_unitary(rng, 9),
                  _rotated_real_unitary(6, [0.7, 0.7, 2.0], [1.0, -1.0]),
                  grover_search(3, 5).u):
            w, v = _eig_unitary(u, DEFAULT_TOL)
            assert np.max(np.abs(w - _rayleigh_by_column(u, v))) <= 1e-14

    def test_degenerate_eigenspace_stays_orthonormal(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        q, _ = np.linalg.qr(z)
        u = q @ np.diag([1, 1, 1, -1, 1j, -1j]) @ q.conj().T
        w, v = _eig_unitary(u, DEFAULT_TOL)
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
    w, v = _eig_unitary(q, DEFAULT_TOL)
    assert np.max(np.abs(np.abs(w) - 1.0)) <= DEFAULT_TOL.structural
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12


def _eigenspaces_with_shared_part(rng, n, k1, k2, shared, real):
    """+-1 eigenspaces of two random involutions whose +1 sides share ``shared`` dimensions."""
    def orthonormal(cols):
        z = rng.normal(size=(n, cols))
        if not real:
            z = z + 1j * rng.normal(size=(n, cols))
        return np.linalg.qr(z)[0]

    q1 = orthonormal(n)
    q2, _ = np.linalg.qr(np.hstack([q1[:, :shared], orthonormal(n - shared)]))
    spaces = []
    for q, k in ((q1, k1), (q2, k2)):
        p = q[:, :k] @ q[:, :k].conj().T
        spaces.append(_involution_eigenspaces(2.0 * p - np.eye(n)))
    return spaces


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=2, max_value=12),
       k1=st.integers(min_value=0, max_value=12),
       k2=st.integers(min_value=0, max_value=12),
       shared=st.integers(min_value=0, max_value=12),
       real=st.booleans(),
       seed=st.integers(min_value=0, max_value=10**6))
def test_complement_route_matches_plain_route(n, k1, k2, shared, real, seed):
    # Sines from B2perp* B1 and from B1 - B2 (B2* B1) must give the same
    # intersection; dropping the complement selects the plain route.
    k1, k2 = min(k1, n), min(k2, n)
    shared = min(shared, k1, k2)
    (plus1, minus1), (plus2, minus2) = _eigenspaces_with_shared_part(
        np.random.default_rng(seed), n, k1, k2, shared, real)
    for a, b in ((plus1, plus2), (plus1, minus2), (minus1, plus2), (minus1, minus2)):
        assert a.complement is not None and b.complement is not None
        fast = subspace_intersection(a, b)
        plain = subspace_intersection(Subspace(n, a.basis), Subspace(n, b.basis))
        same, residual = spans_match(fast, plain)
        assert same and residual <= 1e-12
    assert subspace_intersection(plus1, plus2).dim >= shared


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

    def test_complement_shape_is_checked(self):
        with pytest.raises(DimensionMismatch):
            Subspace(3, basis_vector(3, 0), complement=basis_vector(3, 1))
        s = Subspace(2, basis_vector(2, 0), complement=basis_vector(2, 1))
        assert repr(s) == repr(Subspace(2, basis_vector(2, 0)))

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


def _orthonormal(rng, n, cols, real):
    z = rng.normal(size=(n, cols))
    if not real:
        z = z + 1j * rng.normal(size=(n, cols))
    return np.linalg.qr(z)[0]


def _dense_complement(perp):
    """A basis of ``perp``'s orthogonal complement from an SVD, not from a QR of it."""
    return np.linalg.svd(perp, full_matrices=True)[0][:, perp.shape[1]:]


class TestSubspaceHeldByComplement:
    def test_dimension_and_lazy_basis(self):
        rng = np.random.default_rng(5)
        for real in (True, False):
            perp = _orthonormal(rng, 70, 3, real)
            s = Subspace(70, complement=perp)
            assert s.dim == 67 and s.by_complement
            basis = s.basis
            # Reading the basis leaves the subspace held by its complement.
            assert s.by_complement and s.basis is basis
            assert basis.shape == (70, 67) and basis.dtype == perp.dtype
            assert np.max(np.abs(basis.conj().T @ basis - np.eye(67))) <= 1e-13
            assert np.max(np.abs(perp.conj().T @ basis)) <= 1e-13

    def test_shapes_are_checked(self):
        with pytest.raises(DimensionMismatch):
            Subspace(3)
        with pytest.raises(DimensionMismatch):
            Subspace(3, complement=np.zeros((2, 1)))
        assert Subspace(3, complement=np.zeros((3, 0))).dim == 3

    def test_overlap_with_a_subspace_held_by_its_complement(self):
        # X is held by a 4-column complement. Two of those columns are
        # orthogonal to X, while a direction of X is not; the overlap is
        # taken without forming X's basis.
        rng = np.random.default_rng(9)
        q = _orthonormal(rng, 80, 80, False)
        x = Subspace(80, complement=q[:, :4])
        assert linalg._overlap(x, Subspace(80, q[:, 1:3])) <= 1e-13
        assert linalg._overlap(Subspace(80, q[:, 4:5]), x) > 0.1
        assert x.by_complement


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=linalg._NARROW_MIN_DIM, max_value=128),
       k1=st.integers(min_value=1, max_value=16),
       k2=st.integers(min_value=1, max_value=16),
       shared=st.integers(min_value=0, max_value=16),
       real=st.booleans(),
       seed=st.integers(min_value=0, max_value=10**6))
def test_subspaces_held_by_complements_match_dense_ones(n, k1, k2, shared, real, seed):
    # Two wide subspaces held by complements that share ``shared``
    # directions must give the intersection and the span decisions that
    # dense bases of the same subspaces give, and the intersection must
    # be held by its complement too.
    rng = np.random.default_rng(seed)
    shared = min(shared, k1, k2)
    perp1 = _orthonormal(rng, n, k1, real)
    perp2 = np.linalg.qr(np.hstack([perp1[:, :shared], _orthonormal(rng, n, k2 - shared, real)]))[0]
    held = [Subspace(n, complement=p) for p in (perp1, perp2)]
    dense = [Subspace(n, _dense_complement(p)) for p in (perp1, perp2)]
    for a, b in zip(held, dense):
        assert a.dim == b.dim
        same, residual = spans_match(a, b)
        assert same and residual <= 1e-12
    fast = subspace_intersection(*held)
    assert fast.by_complement
    plain = subspace_intersection(*dense)
    assert fast.dim == plain.dim == n - (k1 + k2 - shared)
    same, residual = spans_match(fast, plain)
    assert same and residual <= 1e-12
    # Equal or different spans are told apart the same way.
    for other_held, other_dense in ((held[1], dense[1]), (Subspace(n, complement=perp1[:, ::-1]),
                                                         dense[0])):
        got, want = spans_match(held[0], other_held), spans_match(dense[0], other_dense)
        assert got[0] == want[0] and (got[1] <= 1e-12) == (want[1] <= 1e-12)


def _narrow_involution(seed, n, k, sign, real, pinned, perturb):
    """Involution whose ``sign`` side has dimension k, optionally uneven and perturbed.

    With ``pinned`` the small side contains the first standard basis
    vector and is Haar-random otherwise, so the projector's diagonal runs
    from 1 down to about k/n. ``perturb`` adds a Hermitian matrix with
    entries up to that fraction of ``tol.structural``.
    """
    rng = np.random.default_rng(seed)
    w = np.linalg.qr(rng.normal(size=(n, n)))[0] if real else haar_unitary(rng, n)
    if pinned:
        w = np.linalg.qr(np.hstack([np.eye(n)[:, :1], w[:, :n - 1]]))[0]
    x = sign * (2.0 * w[:, :k] @ w[:, :k].conj().T - np.eye(n))
    e = rng.uniform(-1.0, 1.0, size=(n, n))
    if not real:
        e = e + 1j * rng.uniform(-1.0, 1.0, size=(n, n))
    e = (e + e.conj().T) / 2.0
    return x + perturb * DEFAULT_TOL.structural * e / np.max(np.abs(e))


def _eigh_oracle(x):
    """Both sides' projectors from numpy's own eigensolve, by the sign of each value."""
    w, v = np.linalg.eigh(x)
    plus, minus = v[:, w >= 0.0], v[:, w < 0.0]
    return plus @ plus.conj().T, minus @ minus.conj().T


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=linalg._NARROW_MIN_DIM, max_value=128),
       k_share=st.floats(min_value=0.0, max_value=1.0),
       minus_small=st.booleans(),
       real=st.booleans(),
       pinned=st.booleans(),
       perturb=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(min_value=0, max_value=10**6))
def test_narrow_eigenspaces_match_eigh(n, k_share, minus_small, real, pinned, perturb, seed):
    # The trace, a pivoted Cholesky factor and one complete QR must give
    # the eigenspaces numpy's eigensolve gives, on either sign, in real
    # and complex arithmetic, for uneven diagonals and gradings that are
    # involutions only to within tol.structural.
    k = 1 + int(k_share * (n // 4 - 1))
    x = _narrow_involution(seed, n, k, -1.0 if minus_small else 1.0, real, pinned, perturb)
    spaces = linalg._narrow_eigenspaces(x, DEFAULT_TOL)
    assert spaces is not None
    plus, minus = spaces
    assert (minus.dim if minus_small else plus.dim) == k
    # The larger side is held by the smaller side's basis alone; its own
    # basis is formed when read below.
    small, large = (minus, plus) if minus_small else (plus, minus)
    assert large.by_complement and large.complement is small.basis
    for side, oracle in zip((plus, minus), _eigh_oracle(x)):
        assert side.dim == round(np.trace(oracle).real)
        assert side.basis.dtype == (np.float64 if real else np.complex128)
        assert np.max(np.abs(side.basis @ side.basis.conj().T - oracle)) <= 1e-12
        assert np.max(np.abs(side.basis.conj().T @ side.basis - np.eye(side.dim))) <= 1e-13
    assert np.max(np.abs(plus.basis.conj().T @ minus.basis)) <= 1e-13
    _assert_same_subspaces(linalg._involution_eigenspaces(x), spaces)


def _eigh_calls(monkeypatch):
    calls = []

    def recorded(a, *args, _fn=np.linalg.eigh, **kwargs):
        calls.append(np.asarray(a).shape)
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return calls


def _eigh_route(x, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_NARROW_MIN_DIM", 10**9)
        return linalg._involution_eigenspaces(x)


def _assert_same_subspaces(a, b):
    for s, t in zip(a, b):
        assert np.array_equal(s.basis, t.basis)
        assert np.array_equal(s.complement, t.complement)


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("minus_small", [False, True])
def test_failed_narrow_certificate_falls_back_to_eigh(monkeypatch, real, minus_small):
    x = _narrow_involution(4, 96, 5, -1.0 if minus_small else 1.0, real, True, 0.0)
    dense = _eigh_route(x, monkeypatch)
    calls = _eigh_calls(monkeypatch)
    assert linalg._involution_eigenspaces(x)[1 if minus_small else 0].dim == 5
    assert calls == []
    monkeypatch.setattr(linalg, "_narrow_certificate_bound", lambda n, tol: -1.0)
    _assert_same_subspaces(linalg._involution_eigenspaces(x), dense)
    assert calls == [(96, 96)]


def test_grading_off_by_more_than_the_certificate_takes_eigh(monkeypatch):
    # A traceless Hermitian perturbation of 1e-6 keeps the trace's count
    # but moves the narrow side further from an eigenspace than the
    # certificate allows.
    exact = _narrow_involution(6, 96, 3, 1.0, False, False, 0.0)
    x = _narrow_involution(6, 96, 3, 1.0, False, False, 1e4)
    x -= np.trace(x - exact) / 96 * np.eye(96)
    assert np.trace(x - exact) == pytest.approx(0.0, abs=1e-12)
    dense = _eigh_route(x, monkeypatch)
    calls = _eigh_calls(monkeypatch)
    _assert_same_subspaces(linalg._involution_eigenspaces(x), dense)
    assert calls == [(96, 96)]


@pytest.mark.parametrize("n, k", [(96, 25), (96, 48), (63, 2), (128, 0)])
def test_involution_outside_the_narrow_gate_takes_eigh(monkeypatch, n, k):
    # k above n/4, a balanced grading, a dimension below the size floor
    # and an empty side all keep the eigensolve.
    x = _narrow_involution(9, n, k, 1.0, False, False, 0.0)
    dense = _eigh_route(x, monkeypatch)
    calls = _eigh_calls(monkeypatch)
    _assert_same_subspaces(linalg._involution_eigenspaces(x), dense)
    assert calls == [(n, n)]
