"""Chiral pairs, the supercharge, and the index of a pair.

A chiral pair is a unitary evolution together with a unitary involution
(the grading) that conjugates the evolution to its inverse. Such an
evolution always factors as grading times coin, where the coin is itself
a unitary involution. The anti-Hermitian part of the evolution acts as a
supercharge: it anticommutes with the grading, so in the graded basis it
is off-diagonal with a single block mapping the positive eigenspace to
the negative one. The index of the pair is the Fredholm index of that
block, which equals the Witten index of the squared supercharge
``H = q^2``. Because the supercharge is self-adjoint, ``ker H = ker q``,
split by the grading; the spectrum of ``H``, its zero block and the
Witten index all come from the supercharge's one SVD, under the same
cutoff as ``ker q``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ChiralSymmetryViolated,
    DimensionMismatch,
    InconsistencyDetected,
    NotInvolution,
    NotProjection,
    NotUnitary,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _involution_eigenspaces,
    _kernel_svd,
    _maxabs,
    _near_unit,
    as_square_matrix,
    hermiticity_residual,
    involution_residual,
    kernel_basis,
    subspace_intersection,
    unitarity_residual,
)


@dataclass(frozen=True)
class ChiralPair:
    """A validated (evolution, grading) pair with its cached coin.

    ``u`` is unitary, ``gamma`` is a unitary involution, conjugation of
    ``u`` by ``gamma`` gives the adjoint of ``u``, and ``coin`` is the
    involution ``gamma @ u`` so that ``u = gamma @ coin``. The three are
    float64 when every entry of ``u`` and ``gamma`` is exactly real, and
    complex128 otherwise.
    """

    u: np.ndarray
    gamma: np.ndarray
    coin: np.ndarray
    tol: Tolerance

    @property
    def dim(self) -> int:
        return int(self.u.shape[0])


@dataclass(frozen=True)
class GradedDecomposition:
    """Graded bases of the involution and the supercharge block between them.

    ``alpha`` is the matrix of the supercharge restricted from the +1
    eigenspace of the grading to the -1 eigenspace, written in the two
    orthonormal bases; its shape is (minus dim, plus dim).
    """

    plus_basis: Subspace
    minus_basis: Subspace
    alpha: np.ndarray


@dataclass(frozen=True)
class SuperOperators:
    """Supercharge, its Hermitian partner, and the squared supercharge.

    ``q`` and ``r`` are the anti-Hermitian and Hermitian parts of the
    evolution (both self-adjoint as written); ``h = q @ q`` is block
    diagonal in the graded basis with blocks ``h_plus`` and ``h_minus``.
    ``h`` and its blocks are formed here for inspection only: the index
    report and :func:`witten_index` take the spectrum of ``h = q* q``
    (the squared singular values of ``q``) and its kernel (``ker q``)
    from the one SVD of ``q``.
    """

    q: np.ndarray
    r: np.ndarray
    h: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray


def make_pair(u, gamma, tol: Tolerance = DEFAULT_TOL) -> ChiralPair:
    """Validate a (evolution, grading) pair and cache its coin.

    Raises :class:`NotUnitary` if the evolution is not unitary,
    :class:`NotInvolution` if the grading is not a unitary involution or
    the grading or the coin is further from Hermitian than
    ``tol.structural``, and :class:`ChiralSymmetryViolated` (with the residual) if the grading
    fails to conjugate the evolution to its adjoint.
    """
    u = as_square_matrix(u)
    g = as_square_matrix(gamma)
    if u.shape != g.shape:
        raise DimensionMismatch(
            f"evolution has shape {u.shape} but grading has shape {g.shape}"
        )
    if u.shape[0] == 0:
        raise DimensionMismatch("pair dimension must be positive")
    if not (u.imag.any() or g.imag.any()):
        # An exactly real pair is kept real, so its coin and every
        # factorization downstream run in real arithmetic.
        u, g = np.ascontiguousarray(u.real), np.ascontiguousarray(g.real)
    residual = unitarity_residual(u)
    if residual > tol.structural:
        raise NotUnitary(f"evolution is not unitary: residual {residual:.6e}")
    residual = unitarity_residual(g)
    if residual > tol.structural:
        raise NotInvolution(f"grading is not unitary: residual {residual:.6e}")
    residual = involution_residual(g)
    if residual > tol.structural:
        raise NotInvolution(f"grading does not square to one: residual {residual:.6e}")
    chirality = _maxabs(g @ u @ g - u.conj().T)
    if chirality > tol.structural:
        raise ChiralSymmetryViolated(chirality, tol.structural)
    coin = g @ u
    # The coin inherits involutivity from chirality; re-verify so
    # downstream code can rely on it without rechecking.
    scale = tol.structural * u.shape[0]
    for label, value in (
        ("coin involution", involution_residual(coin)),
        ("coin unitarity", unitarity_residual(coin)),
        ("product recovery", _maxabs(u - g @ coin)),
    ):
        if value > scale:
            raise InconsistencyDetected(label, value)
    # Every report eigendecomposes the coin and the grading as Hermitian
    # matrices at this bound, so a pair that passes here never makes the
    # report raise.
    for label, m in (("coin", coin), ("grading", g)):
        residual = hermiticity_residual(m)
        if residual > tol.structural:
            raise NotInvolution(
                f"{label} is not Hermitian: residual {residual:.6e} exceeds "
                f"{tol.structural:.6e}"
            )
    return ChiralPair(u=u, gamma=g, coin=coin, tol=tol)


def super_operators(pair: ChiralPair) -> SuperOperators:
    """Split the evolution into supercharge and Hermitian partner.

    The supercharge is ``(u - u*)/2i`` and anticommutes with the grading;
    the partner ``(u + u*)/2`` commutes with it. ``h_plus``/``h_minus``
    are the graded diagonal blocks of the squared supercharge, written in
    the graded bases.
    """
    q = _supercharge(pair)
    r = (pair.u + pair.u.conj().T) / 2.0
    a = graded_decomposition(pair).alpha
    return SuperOperators(q=q, r=r, h=q @ q, h_plus=a.conj().T @ a, h_minus=a @ a.conj().T)


def _supercharge(pair: ChiralPair) -> np.ndarray:
    return (pair.u - pair.u.conj().T) / 2.0j


def graded_decomposition(pair: ChiralPair) -> GradedDecomposition:
    """Orthonormal +1/-1 eigenbases of the grading and the supercharge block.

    Bases come from an eigensolve, or from a narrow side's factor and QR,
    both deterministic, so the block matrix is reproducible across runs.
    """
    plus, minus = _involution_eigenspaces(pair.gamma, pair.tol)
    alpha = minus.basis.conj().T @ _supercharge(pair) @ plus.basis
    return GradedDecomposition(plus_basis=plus, minus_basis=minus, alpha=alpha)


def index_alpha(pair: ChiralPair) -> int:
    """Fredholm index of the supercharge block: dim ker minus dim coker."""
    graded = graded_decomposition(pair)
    ker = kernel_basis(graded.alpha, pair.tol).dim
    coker = kernel_basis(graded.alpha.conj().T, pair.tol).dim
    return ker - coker


def witten_index(pair: ChiralPair) -> int:
    """Witten index of the squared supercharge ``H = q^2``.

    ``ker H = ker q`` because ``q`` is self-adjoint, so the index is
    ``dim(ker q & Gamma+) - dim(ker q & Gamma-)``, with ``ker q`` from one
    SVD of the supercharge in the full space (not of the block ``alpha``).
    """
    _, _, plus, minus = _supercharge_kernel(
        _supercharge(pair), graded_decomposition(pair), pair.tol)
    return plus.dim - minus.dim


def _supercharge_kernel(q: np.ndarray, graded: GradedDecomposition,
                        tol: Tolerance) -> tuple[Subspace, np.ndarray, Subspace, Subspace]:
    """``ker q``, the singular values of ``q`` and ``ker q`` in ``Gamma+-``.

    The eigenvalues of ``H = q* q`` are the squared singular values, and
    its zero block is ``ker q``, decided by the same cutoff.
    """
    ker_q, sigma = _kernel_svd(q, tol)
    return (ker_q, sigma, subspace_intersection(ker_q, graded.plus_basis, tol),
            subspace_intersection(ker_q, graded.minus_basis, tol))


def gamma_signature(pair: ChiralPair) -> int:
    """Signature of the grading: dim of its +1 eigenspace minus the -1 one.

    At finite dimension this equals the index of the pair, because the
    supercharge block maps between spaces of exactly these dimensions.
    """
    graded = graded_decomposition(pair)
    return graded.plus_basis.dim - graded.minus_basis.dim


def projection_pair_index(p1, p2, tol: Tolerance = DEFAULT_TOL) -> int:
    """Index of a pair of orthogonal projections.

    Defined as the nullity of ``p1 - p2 - 1`` minus the nullity of
    ``p1 - p2 + 1``, both read from the eigenvalues of the Hermitian
    ``p1 - p2``. Raises :class:`NotProjection` unless both arguments are
    Hermitian idempotents within tolerance.
    """
    p1 = as_square_matrix(p1)
    p2 = as_square_matrix(p2)
    if p1.shape != p2.shape:
        raise DimensionMismatch("projections must have equal shapes")
    for label, p in (("first", p1), ("second", p2)):
        herm = hermiticity_residual(p)
        idem = _maxabs(p @ p - p)
        if herm > tol.structural or idem > tol.structural:
            raise NotProjection(
                f"{label} argument is not an orthogonal projection: "
                f"hermiticity residual {herm:.6e}, idempotency residual {idem:.6e}"
            )
    return _projection_pair_index(p1 - p2, tol)


def _projection_pair_index(diff: np.ndarray, tol: Tolerance) -> int:
    """:func:`projection_pair_index` from ``p1 - p2``, without validation.

    Only the eigenvalues of the Hermitian part are needed, so no
    eigenvectors are computed.
    """
    w = np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)
    return int(_near_unit(w, 1.0, tol.rank).sum() - _near_unit(w, -1.0, tol.rank).sum())
