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
cluster splits of :func:`_eig_unitary`, whose eigenvectors are complex.

A degenerate eigenspace costs what its complement costs.
:func:`_eig_unitary` splits only the clusters of the Hermitian part on
which the anti-Hermitian part is nonzero, so a degenerate +-1 eigenspace
of a real unitary is kept real and is not factorized again. A wide
:class:`Subspace` is held by its narrow complement alone: the
intersection of two such subspaces is held by its complement too, and an
overlap is measured against the narrow complement, so neither writes an
n x (n - k) basis.

The same holds for the eigenspaces of an involution X, the grading and
the coin. Their dimensions are read from the trace,
``k+ = (n + tr X)/2``. From dimension 64 on, when the smaller side has
k <= n/4 dimensions, its basis comes from a pivoted Cholesky factor of
its projector ``(1 +- X)/2`` and one reduced QR, at O(n^2 k) in place of
an O(n^3) eigensolve, and the larger side is held by it as its
complement. The certificate ``|X B -+ B| <= tol.structural * n`` on the
smaller side's basis gates this route; if it fails, the eigensolve runs.

Kernel, rank and "eigenvalue at +-1" decisions are made by two rules.
:func:`_near_unit` holds the relative cutoff that :func:`kernel_basis`
and the rank count of :func:`_rank_svd` apply to singular values and the
spectral code applies to the distances ``|lambda - target|`` of a normal
operator's eigenvalues, which are the singular values of ``A - target``.
:func:`subspace_intersection`, the one principal-angle routine,
compares principal-angle sines, already on the unit scale, with
``tol.rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch


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
    """Largest entry magnitude; of a real array from its extremes, without forming ``|a|``.

    The extremes are read at ``argmax`` and ``argmin``, which on small
    arrays cost less than the max and min reductions and, like them,
    give NaN when any entry is NaN. The larger of the greatest entry and
    the negated least one is the largest magnitude, up to the sign of a
    zero.
    """
    if not a.size:
        return 0.0
    if a.dtype.kind == "c":
        a = np.abs(a)
        return a.item(a.argmax())
    high, low = a.item(a.argmax()), -a.item(a.argmin())
    return abs(low if low > high else high)


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d array with finite entries.

    A float64 array stays float64; any other input becomes complex128.
    """
    arr = np.asarray(a)
    if arr.dtype != np.float64:
        arr = arr.astype(np.complex128, copy=False)
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of shape {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("matrix entries must be finite")
    return arr


def as_square_matrix(a) -> np.ndarray:
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """The real part of ``m`` when every imaginary part is exactly zero."""
    if m.dtype.kind == "c" and not np.count_nonzero(m.imag):
        return m.real
    return m


def _canonical_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    A column that is entirely zero, or whose pivot is NaN, is left as it
    is. A real ``v``, whose entries are finite, only has its signs set;
    when no pivot is negative that is a copy, which holds what multiplying
    by 1.0 gives, in the layout the product has.
    """
    if v.size == 0:
        return v
    rows = np.abs(v).argmax(axis=0)
    if v.dtype.kind != "c":
        # Each column's sign is read from its pivot as a Python float.
        signs = [-1.0 if v.item(i, j) < 0.0 else 1.0 for j, i in enumerate(rows.tolist())]
        return v * np.array(signs) if -1.0 in signs else v.copy(order="K")
    pivot = v[rows, np.arange(v.shape[1])]
    # hypot rounds as scalar abs() does; the vectorized complex abs can
    # differ from it in the last bit, which would move the phases.
    mag = np.hypot(pivot.real, pivot.imag)
    if np.count_nonzero(mag > 0.0) == mag.size:
        return v * (pivot.conj() / mag)
    phase = np.ones_like(pivot)
    np.divide(pivot.conj(), mag, out=phase, where=mag > 0.0)
    return v * phase


class Subspace:
    """A subspace of C^ambient_dim given by orthonormal basis columns.

    ``complement``, when given, is an orthonormal basis of the orthogonal
    complement. A wide subspace may be held by its narrow complement
    alone; its ``basis`` is then formed when first read, as the trailing
    columns of one complete QR of the complement. Otherwise the complement
    is filled only where a factorization yields it for free (the leading
    right singular vectors beside a kernel, the other sign's eigenvectors
    of an involution). ``by_complement`` says whether it was built from
    ``complement`` alone; it is fixed at construction, so reading
    ``basis`` changes no route. The repr shows what the subspace is held
    by, as the constructor call gives it, so it forms no basis.
    """

    def __init__(self, ambient_dim: int, basis: np.ndarray | None = None,
                 complement: np.ndarray | None = None) -> None:
        self.ambient_dim, self.complement = ambient_dim, complement
        held = complement if basis is None else basis
        if held is None or held.ndim != 2 or held.shape[0] != ambient_dim or not (
                basis is None or complement is None
                or complement.shape == (ambient_dim, ambient_dim - basis.shape[1])):
            raise DimensionMismatch(f"basis of shape {np.shape(basis)} and complement of "
                                    f"shape {np.shape(complement)} do not split C^{ambient_dim}")
        self.by_complement = basis is None
        if basis is not None:
            self.basis = basis
        self.dim = ambient_dim - held.shape[1] if basis is None else held.shape[1]

    @cached_property
    def basis(self) -> np.ndarray:
        # Held by an empty complement, the space is all of C^n: the complete
        # QR of no columns gives the identity, so it is written out.
        if not self.complement.shape[1]:
            return np.eye(self.ambient_dim, dtype=self.complement.dtype)
        return np.linalg.qr(self.complement, mode="complete")[0][:, self.complement.shape[1]:]

    def __repr__(self) -> str:
        held = "complement" if self.by_complement else "basis"
        return f"Subspace(ambient_dim={self.ambient_dim!r}, {held}={getattr(self, held)!r})"


def spans_match(a: Subspace, b: Subspace) -> tuple[bool, float]:
    """Whether two subspaces coincide: equal dimension and mutual residual.

    The residual is the larger of the two one-sided projection residuals;
    on a dimension mismatch it is the integer gap between the dimensions.
    """
    if a.dim != b.dim:
        return False, float(abs(a.dim - b.dim))
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("subspaces live in different ambient dimensions")
    # Two 0-dimensional subspaces coincide with the residual their empty
    # bases give, 0.0.
    if not a.dim:
        return True, 0.0
    return True, max(_maxabs(_outside(a.basis, b.basis)), _maxabs(_outside(b.basis, a.basis)))


def _overlap(a: Subspace, b: Subspace) -> float:
    """Largest entry of ``A* B``; for an ``a`` held by its complement, of ``B - P(A-perp) B``."""
    if b.by_complement:
        a, b = b, a
    if a.by_complement:
        return _maxabs(_outside(b.basis, a.complement))
    # Of two held bases, one without columns gives an empty product, whose largest entry is 0.0.
    return _maxabs(a.basis.conj().T @ b.basis) if a.dim and b.dim else 0.0


def unitarity_residual(a) -> float:
    m = as_square_matrix(a)
    return _identity_residual(m.conj().T @ m)


def _identity_residual(p: np.ndarray) -> float:
    """Largest entry of ``p - 1`` for a fresh square product ``p``, which it overwrites.

    Subtracting 1 from the diagonal in place rounds as ``p - np.eye(n)``
    does, without allocating the identity.
    """
    p.flat[::p.shape[0] + 1] -= 1.0
    return _maxabs(p)


def kernel_basis(a, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the numerical null space of a matrix.

    Right singular vectors whose singular values count as zero under the
    cutoff of :func:`_near_unit` span the returned subspace; its dimension
    is the numerical nullity, and the other right singular vectors are its
    ``complement``. Rectangular inputs are allowed.
    """
    return _kernel_svd(as_matrix(a), tol)[0]


def _kernel_svd(m: np.ndarray, tol: Tolerance) -> tuple[Subspace, np.ndarray]:
    """:func:`kernel_basis` of a matrix as :func:`as_matrix` returns one, not coerced
    again, and the singular values it decided on, descending."""
    rank, s, vh = _rank_svd(m, tol, vectors=True)
    return Subspace(m.shape[1], _canonical_phases(vh[rank:].conj().T),
                    complement=vh[:rank].conj().T), s


def _rank_svd(
    m: np.ndarray, tol: Tolerance, vectors: bool
) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Numerical rank of the matrix ``m``, its singular values, descending, and its ``vh``.

    Singular values that count as zero under the cutoff of
    :func:`_near_unit` are outside the rank. With ``vectors`` the right
    singular vectors come too, all of them for a wide matrix, whose
    kernel needs the ones beyond the reduced set; without, ``vh`` is None
    and LAPACK computes the singular values alone. An empty matrix has
    rank 0 and is not factorized.
    """
    m = _real_if_exact(m)
    if m.size == 0:
        return 0, np.empty(0), np.eye(m.shape[1], dtype=np.complex128) if vectors else None
    if vectors:
        _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    else:
        s, vh = np.linalg.svd(m, compute_uv=False), None
    return len(s) - int(np.count_nonzero(_near_unit(s, 0.0, tol.rank))), s, vh


def _near_unit(values: np.ndarray, target: float, rank_tol: float) -> np.ndarray:
    """Mask of the eigenvalues of a normal operator, a 1-d array, that equal ``target``.

    The distances ``|lambda - target|`` must be at most ``rank_tol`` times
    their maximum, or at most ``rank_tol`` when the maximum is itself
    below it: operators here have norm at most 2, so roundoff is never
    declared full rank. With ``target = 0`` it decides which singular
    values are zero.
    """
    dist = np.abs(values - target if target else values)
    dmax = float(dist[dist.argmax()]) if dist.size else 0.0
    return dist <= rank_tol * (dmax if dmax > rank_tol else 1.0)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and canonically phased eigenvectors of a checked Hermitian ``m``."""
    w, v = np.linalg.eigh(m)
    return w, _canonical_phases(v)


def _cluster_slices(values: list[float], gap: float) -> list[tuple[int, int]]:
    """Consecutive index ranges of sorted real values, as Python floats, separated by > gap.

    Python floats subtract and compare as an array's entries do; a
    value-by-value pass costs less than array calls on the few values a
    report clusters, and little beside the eigensolve that gave them on
    many.
    """
    if len(values) < 2:  # no gap to break at
        return [(0, len(values))] if values else []
    bounds = [0, *[k for k in range(1, len(values)) if values[k] - values[k - 1] > gap],
              len(values)]
    return list(zip(bounds[:-1], bounds[1:]))


def _principal_order(values) -> np.ndarray:
    """Stable order by argument in (-pi, pi]; one within 1e-14 of -pi is taken as pi."""
    values = np.asarray(values)
    # np.angle's own computation, without its wrapper.
    args = np.arctan2(values.imag, values.real)
    near = args <= -np.pi + 1e-14
    if np.count_nonzero(near):
        args[near] += 2.0 * np.pi
    return args.argsort(kind="stable")


def _eig_unitary(m: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a unitary matrix whose unitarity its caller has checked.

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
    adjoint = m.conj().T
    skew = (m - adjoint) / 2.0
    w, v = np.linalg.eigh((m + adjoint) / 2.0)
    for start, stop in _cluster_slices(w.tolist(), tol.cluster):
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
    order = _principal_order(values)
    return values[order], _canonical_phases(v[:, order])


# Narrow-side routes, measured with one BLAS thread: below this dimension
# a dense eigensolve or product costs less than their per-call overhead.
_NARROW_MIN_DIM = 64


def _narrow(width: int, n: int) -> bool:
    """Whether ``width`` columns of C^n are few enough for a narrow-side route.

    The measured crossover against an eigensolve is ``width <= n/4``.
    """
    return n >= _NARROW_MIN_DIM and 0 < width * 4 <= n


def _pivoted_cholesky(m: np.ndarray, sign: float, k: int) -> np.ndarray:
    """``n x k`` factor ``L`` of the rank-k projector ``P = (1 + sign m)/2``, ``L L* = P``.

    Each step takes the column of the largest remaining diagonal entry,
    the first one on a tie. After j steps the remainder is the projector
    onto the rest of ``ran P``, with trace k - j, so each pivot is at
    least 1/n.
    """
    n = m.shape[0]
    diag = (1.0 + sign * m.diagonal().real) / 2.0
    factor = np.zeros((n, k), dtype=m.dtype)
    for j in range(k):
        i = int(np.argmax(diag))
        col = sign * m[:, i] / 2.0
        col[i] += 0.5
        col -= factor[:, :j] @ factor[i, :j].conj()
        factor[:, j] = col / np.sqrt(diag[i])
        diag -= factor[:, j].real ** 2 + factor[:, j].imag ** 2
    return factor


def _narrow_certificate_bound(n: int, tol: Tolerance) -> float:
    """Largest entry of ``X B -+ B`` with which a narrow eigenspace is accepted."""
    return tol.structural * n


def _narrow_eigenspaces(m: np.ndarray, tol: Tolerance) -> tuple[Subspace, Subspace] | None:
    """Both eigenspaces of an involution whose smaller side is narrow, else None.

    The trace gives the +1 side's dimension ``k+ = (n + tr X)/2``, which
    must be an integer to within the certificate bound. When
    ``k = min(k+, n - k+)`` is at most n/4, a pivoted Cholesky factor of
    the smaller side's projector ``(1 +- X)/2`` (O(n k^2)) and one reduced
    QR of it (O(n^2 k)) give the smaller side ``B``, which holds the
    larger side as its complement. ``B`` is accepted when ``|X B -+ B|``
    is entrywise at most the certificate bound and has Frobenius norm
    below 1: that norm bounds ``|(X -+ 1) B|_2``, so by Courant-Fischer X
    has k eigenvalues within it of +-1, on that side of zero, and the
    trace leaves none for the other side.
    """
    n = m.shape[0]
    k_plus = (n + float(np.trace(m).real)) / 2.0
    # An involution's trace lies in [-n, n]; written so that a NaN fails.
    if not 0.0 <= k_plus <= n:
        return None
    k = round(min(k_plus, n - k_plus))
    bound = _narrow_certificate_bound(n, tol)
    if not _narrow(k, n) or abs(min(k_plus, n - k_plus) - k) > bound:
        return None
    sign = 1.0 if k_plus <= n / 2.0 else -1.0
    factor = _pivoted_cholesky(m, sign, k)
    # When X is an involution only to within a tolerance, ran L is off the
    # eigenspace by an angle of about that tolerance; one step of subspace
    # iteration, P L, squares it.
    small = np.linalg.qr(factor + sign * (m @ factor))[0]
    residual = m @ small - sign * small
    # Written so that a NaN residual fails.
    if not (_maxabs(residual) <= bound and np.linalg.norm(residual) < 1.0):
        return None
    spaces = Subspace(n, small), Subspace(n, complement=small)
    return spaces if sign > 0 else spaces[::-1]


def _involution_eigenspaces(a, tol: Tolerance = DEFAULT_TOL) -> tuple[Subspace, Subspace]:
    """The +1 and -1 eigenspaces of a Hermitian unitary involution.

    ``a`` is an array as :func:`make_pair` stores it, which has checked
    that it is finite and Hermitian to within ``tol.structural``; it is
    taken as real when it is complex but exactly real. From dimension
    ``_NARROW_MIN_DIM`` on, an involution whose smaller side has at most
    n/4 dimensions takes :func:`_narrow_eigenspaces`. Otherwise, and when
    its certificate fails, one eigensolve decides: an involution's
    eigenvalues sit at +-1 to within roundoff, so the sign of each
    eigenvalue decides its side, and each side's basis is the other
    side's ``complement``.
    """
    m = _real_if_exact(a)
    # The size floor comes first, so small pairs pay nothing for the route.
    if len(m) >= _NARROW_MIN_DIM:
        narrow = _narrow_eigenspaces(m, tol)
        if narrow is not None:
            return narrow
    w, v = _eigh(m)
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
    Comp. 27 (1973)); the intersection is spanned by ``B1`` times the
    right singular vectors whose sine is at most ``tol.rank``. The sines
    come from the small ``B2perp* B1`` when the larger subspace carries a
    complement ``B2perp``, factorized through itself or its adjoint,
    whichever is wide, and else from ``B1 - B2 (B2* B1)``. When ``s1`` is
    held by its complement and ``s2`` carries one, the intersection is
    held by its complement alone: the orthonormalized ``B1perp`` plus the
    kept directions of ``s1``, the left singular vectors of
    ``P1 B2perp = B2perp - B1perp (B1perp* B2perp)``, with the same sines.
    It is the one principal-angle routine, and no call reuses another's SVD.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    if s1.dim > s2.dim:
        s1, s2 = s2, s1
    if s1.dim == 0:
        return s1
    n = s1.ambient_dim
    if s1.by_complement and s2.complement is not None:
        left, sines, _ = np.linalg.svd(_outside(s2.complement, s1.complement), full_matrices=False)
        kept = left[:, :np.count_nonzero(sines > tol.rank)]
        stacked = np.concatenate([s1.complement, kept], axis=1)
        return Subspace(n, complement=np.linalg.qr(stacked)[0])
    if s2.complement is None:
        _, sines, vh = np.linalg.svd(_outside(s1.basis, s2.basis), full_matrices=False)
        right = vh.conj().T
    else:
        y = s2.complement.conj().T @ s1.basis
        if y.shape[0] < y.shape[1]:
            _, sines, vh = np.linalg.svd(y)
            right = vh.conj().T
        else:
            right, sines, _ = np.linalg.svd(y.conj().T, full_matrices=False)
    kept = right[:, np.count_nonzero(sines > tol.rank):]
    # An empty intersection is the empty product B1 times no columns.
    if not kept.shape[1]:
        return Subspace(n, np.empty((n, 0), np.result_type(s1.basis, kept)))
    return Subspace(n, _canonical_phases(s1.basis @ kept))
