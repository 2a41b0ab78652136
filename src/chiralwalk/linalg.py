"""Tolerance-disciplined dense linear algebra, real where the input is.

Hermitian and unitary eigendecompositions, SVD-based kernel bases, and
orthonormal subspace arithmetic. Everything is a pure function of its
inputs; matrices are never mutated, and eigenvector phases follow a fixed
convention so identical inputs give identical outputs.

Matrices are float64 or complex128. A float64 matrix stays real, and the
factorizations take the real part of a complex matrix whose imaginary
parts are all exactly zero, so an exactly real chiral pair is factorized
by the real LAPACK drivers (dsyevd and dgesdd in place of zheevd and
zgesdd). The only complex factorizations a real pair needs are the
cluster splits of :func:`eig_unitary`, whose eigenvectors are complex.

A degenerate eigenspace costs what its complement costs.
:func:`eig_unitary` splits only the clusters of the Hermitian part on
which the anti-Hermitian part is nonzero, so a degenerate +-1 eigenspace
of a real unitary is kept real and is not factorized again. A
:class:`Subspace` can carry an orthonormal basis of its orthogonal
complement where a factorization yields one for free, and
:func:`subspace_intersection` then takes the principal-angle sines from
a matrix no larger than that complement's dimension times the smaller
subspace's, and :func:`spans_match` compares a basis with a narrow
complement instead of with a wide basis.

Kernel, rank and "eigenvalue at +-1" decisions are made by two rules.
:func:`_near_unit` holds the relative cutoff that :func:`kernel_basis`
applies to singular values and the spectral code applies to the
distances ``|lambda - target|`` of a normal operator's eigenvalues, which
are the singular values of ``A - target``. :func:`subspace_intersection`
compares principal-angle sines, already on the unit scale, with
``tol.rank``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotUnitary


_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds for validation, rank, and clustering decisions.

    ``structural`` bounds residuals of algebraic identities (unitarity,
    involutivity, commutation). ``rank`` is the relative singular-value
    cutoff for kernel and rank decisions. ``cluster`` is the absolute gap
    below which nearby eigenvalues are grouped together. Each lies in
    [machine epsilon, 1).
    """

    structural: float = 1e-10
    rank: float = 1e-8
    cluster: float = 1e-8

    def __post_init__(self) -> None:
        for name in ("structural", "rank", "cluster"):
            value = getattr(self, name)
            if not _EPS <= value < 1.0:
                raise ValueError(
                    f"tolerance {name!r} must lie in [{_EPS:.3e}, 1) (machine "
                    f"epsilon to 1), got {value}"
                )


DEFAULT_TOL = Tolerance()


def _maxabs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d array with finite entries.

    A float64 array stays float64; any other input becomes complex128.
    """
    arr = np.asarray(a)
    if arr.dtype != np.float64:
        arr = arr.astype(np.complex128, copy=False)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def as_square_matrix(a) -> np.ndarray:
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """The real part of ``m`` when every imaginary part is exactly zero."""
    if np.iscomplexobj(m) and not m.imag.any():
        return m.real
    return m


def _canonical_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    A column that is entirely zero is left as it is.
    """
    if v.size == 0:
        return v
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    # hypot rounds as scalar abs() does; the vectorized complex abs can
    # differ from it in the last bit, which would move the phases.
    mag = np.hypot(pivot.real, pivot.imag)
    phase = np.ones_like(pivot)
    np.divide(pivot.conj(), mag, out=phase, where=mag > 0.0)
    return v * phase


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim given by orthonormal basis columns.

    ``complement``, when given, is an orthonormal basis of the orthogonal
    complement. It is filled only where a factorization yields it for
    free (the other sign's eigenvectors of an involution, the leading
    right singular vectors beside a kernel), lets
    :func:`subspace_intersection` work with a small matrix, and takes no
    part in equality or the repr.
    """

    ambient_dim: int
    basis: np.ndarray
    complement: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.basis.ndim != 2 or self.basis.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis of shape {self.basis.shape} does not sit in "
                f"dimension {self.ambient_dim}"
            )
        if self.complement is not None and \
                self.complement.shape != (self.ambient_dim, self.ambient_dim - self.dim):
            raise DimensionMismatch(
                f"complement of shape {self.complement.shape} does not "
                f"complete a {self.dim}-dim subspace of dimension {self.ambient_dim}"
            )

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])

    def residual_outside(self, other: "Subspace") -> float:
        """Largest component of this basis outside the other subspace."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspaces live in different ambient dimensions")
        if self.dim == 0:
            return 0.0
        return _maxabs(_outside(self.basis, other.basis))


def spans_match(a: Subspace, b: Subspace) -> tuple[bool, float]:
    """Whether two subspaces coincide: equal dimension and mutual residual.

    The residual is the larger of the two one-sided projection residuals;
    on a dimension mismatch it is the integer gap between the dimensions.
    When a side carries a ``complement`` narrower than its basis, the
    residual is instead the other side's basis projected onto the
    narrowest such complement, a product no wider than that complement:
    for equal dimensions both one-sided residuals have the largest
    principal-angle sine as spectral norm, so one side suffices.
    """
    if a.dim != b.dim:
        return False, float(abs(a.dim - b.dim))
    narrow = [s for s in (a, b) if s.complement is not None and s.complement.shape[1] < s.dim]
    if narrow:
        inside = min(narrow, key=lambda s: s.complement.shape[1])
        perp, other = inside.complement, (b if inside is a else a).basis
        return True, _maxabs(perp @ (perp.conj().T @ other))
    return True, max(a.residual_outside(b), b.residual_outside(a))


def unitarity_residual(a) -> float:
    m = as_square_matrix(a)
    return _maxabs(m.conj().T @ m - np.eye(m.shape[0]))


def involution_residual(a) -> float:
    m = as_square_matrix(a)
    return _maxabs(m @ m - np.eye(m.shape[0]))


def hermiticity_residual(a) -> float:
    m = as_square_matrix(a)
    return _maxabs(m - m.conj().T)


def is_unitary(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    return unitarity_residual(a) <= tol.structural


def is_involution(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    return involution_residual(a) <= tol.structural


def kernel_basis(a, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical null space of a matrix.

    Right singular vectors whose singular values count as zero under the
    cutoff of :func:`_near_unit` span the returned subspace; its dimension
    is the numerical nullity, and the other right singular vectors are its
    ``complement``. Rectangular inputs are allowed. A matrix
    whose real or imaginary part is exactly zero is factorized through the
    other part, which has the same kernel; the supercharge of a real pair
    is purely imaginary.
    """
    return _kernel_svd(a, tol)[0]


def _kernel_svd(a, tol: Tolerance = DEFAULT_TOL) -> tuple[Subspace, np.ndarray]:
    """:func:`kernel_basis` and the singular values it decided on, descending.

    The singular values of the purely real or imaginary part that was
    factorized equal those of the matrix itself.
    """
    m = _real_if_exact(as_matrix(a))
    if np.iscomplexobj(m) and not m.real.any():
        m = m.imag
    cols = m.shape[1]
    if m.size == 0:
        everything = np.eye(cols, dtype=np.complex128)
        nothing = np.empty((cols, 0), dtype=np.complex128)
        if m.shape[0] == 0:
            return Subspace(cols, everything, complement=nothing), np.empty(0)
        return Subspace(cols, nothing, complement=everything), np.empty(0)
    # A wide matrix needs the full set of right singular vectors to span
    # its kernel; for a tall or square one the reduced set already has them.
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < cols)
    rank = int(np.sum(~_near_unit(s, 0.0, tol.rank)))
    return Subspace(cols, _canonical_phases(vh[rank:].conj().T),
                    complement=vh[:rank].conj().T), s


def _near_unit(values: np.ndarray, target: float, rank_tol: float) -> np.ndarray:
    """Mask of the eigenvalues of a normal operator that equal ``target``.

    The distances ``|lambda - target|`` must be at most ``rank_tol`` times
    their maximum, or at most ``rank_tol`` when the maximum is itself
    below it: operators here have norm at most 2, so roundoff is never
    declared full rank. With ``target = 0`` it decides which singular
    values are zero.
    """
    dist = np.abs(values - target)
    dmax = float(dist.max()) if dist.size else 0.0
    return dist <= rank_tol * (dmax if dmax > rank_tol else 1.0)


def eig_hermitian(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns ``(values, vectors)`` with orthonormal eigenvector columns
    and canonical phases. Raises :class:`NotHermitian` when the
    Hermiticity residual exceeds ``tol.structural``.
    """
    m = _real_if_exact(as_square_matrix(a))
    residual = hermiticity_residual(m)
    if residual > tol.structural:
        raise NotHermitian(
            f"matrix is not Hermitian: residual {residual:.6e} exceeds "
            f"{tol.structural:.6e}"
        )
    w, v = np.linalg.eigh(m)
    return w, _canonical_phases(v)


def _cluster_slices(sorted_values: np.ndarray, gap: float):
    """Consecutive index ranges of a sorted real array separated by > gap."""
    n = len(sorted_values)
    start = 0
    for k in range(1, n):
        if sorted_values[k] - sorted_values[k - 1] > gap:
            yield start, k
            start = k
    if n:
        yield start, n


def eig_unitary(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a unitary matrix.

    Eigenvalues are unimodular, sorted by principal argument in
    (-pi, pi]; eigenvectors are orthonormal even inside degenerate
    eigenspaces. The Hermitian part is diagonalized first and each of its
    eigenvalue clusters is then split by the anti-Hermitian part, so the
    returned columns simultaneously diagonalize both commuting pieces. A
    cluster on which the anti-Hermitian part's block is zero to within
    ``tol.structural`` (Frobenius norm) is already an eigenspace and is
    kept as it is. Each eigenvalue is the Rayleigh quotient of its column.
    For a real matrix both parts are real, and only the clusters that
    need a split run in complex arithmetic; the columns of the others,
    such as a degenerate +-1 eigenspace, have zero imaginary part.
    """
    m = as_square_matrix(a)
    residual = unitarity_residual(m)
    if residual > tol.structural:
        raise NotUnitary(
            f"matrix is not unitary: residual {residual:.6e} exceeds "
            f"{tol.structural:.6e}"
        )
    skew = (m - m.conj().T) / 2.0
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    for start, stop in _cluster_slices(w, tol.cluster):
        if stop - start == 1:
            continue
        block = v[:, start:stop]
        s = block.conj().T @ skew @ block
        sub = (s - s.conj().T) / 2.0j
        if np.linalg.norm(sub) <= tol.structural:
            continue
        _, rot = np.linalg.eigh(sub)
        # The rotation is complex; promote before writing it back.
        v = v.astype(np.complex128, copy=False)
        v[:, start:stop] = block @ rot
    values = np.einsum("ij,ij->j", v.conj(), m @ v).astype(np.complex128, copy=False)
    args = np.angle(values)
    args[args <= -np.pi + 1e-14] += 2.0 * np.pi
    order = np.argsort(args, kind="stable")
    return values[order], _canonical_phases(v[:, order])


def _involution_eigenspaces(a, tol: Tolerance = DEFAULT_TOL) -> tuple[Subspace, Subspace]:
    """The +1 and -1 eigenspaces of a unitary involution, from one eigensolve.

    An involution's eigenvalues sit at +-1 to within roundoff, so the sign
    of each eigenvalue decides its side. Each side's eigenvectors are the
    other side's ``complement``.
    """
    w, v = eig_hermitian(a, tol)
    n = v.shape[0]
    plus, minus = v[:, w >= 0.0], v[:, w < 0.0]
    return Subspace(n, plus, complement=minus), Subspace(n, minus, complement=plus)


def _outside(b: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Component of the columns of ``b`` orthogonal to the span of ``other``."""
    return b - other @ (other.conj().T @ b)


def subspace_intersection(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the intersection of two subspaces.

    With ``B1`` the basis of the smaller subspace and ``P2`` the projector
    onto the other, the singular values of ``(1 - P2) B1`` are the sines
    of the principal angles between the two (Bjorck and Golub, Math.
    Comp. 27 (1973)). The intersection is spanned by ``B1`` times the
    right singular vectors whose sine is at most ``tol.rank``. When the
    larger subspace carries a ``complement`` ``B2perp``, the sines come
    from the small ``(n - k2) x k1`` matrix ``B2perp* B1``, factorized
    through itself or its adjoint, whichever is wide; otherwise from the
    ``n x k1`` matrix ``B1 - B2 (B2* B1)``.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    if s1.dim > s2.dim:
        s1, s2 = s2, s1
    if s1.dim == 0:
        return s1
    if s2.complement is None:
        _, sines, vh = np.linalg.svd(_outside(s1.basis, s2.basis), full_matrices=False)
        right = vh.conj().T
    else:
        y = s2.complement.conj().T @ s1.basis
        if y.shape[0] < y.shape[1]:
            _, sines, vh = np.linalg.svd(y, full_matrices=True)
            right = vh.conj().T
        else:
            right, sines, _ = np.linalg.svd(y.conj().T, full_matrices=False)
    shared = s1.basis @ right[:, int(np.sum(sines > tol.rank)):]
    return Subspace(s1.ambient_dim, _canonical_phases(shared))
