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
    _identity_residual,
    _involution_eigenspaces,
    _maxabs,
    _near_unit,
    _rank_svd,
    as_square_matrix,
    hermiticity_residual,
    kernel_basis,
    subspace_intersection,
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
    """Supercharge and its Hermitian partner.

    ``q`` and ``r`` are the anti-Hermitian and Hermitian parts of the
    evolution (both self-adjoint as written). The squared supercharge is
    ``q @ q``; the index report and :func:`witten_index` take its spectrum
    (the squared singular values of ``q``) and its kernel (``ker q``)
    from the one SVD of ``q``.
    """

    q: np.ndarray
    r: np.ndarray


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
    # u and g are coerced matrices from here on, so each residual is taken
    # from a fresh product without coercing it again, the identity
    # subtracted in place.
    residual = _identity_residual(u.conj().T @ u)
    if residual > tol.structural:
        raise NotUnitary(f"evolution is not unitary: residual {residual:.6e}")
    residual = _identity_residual(g.conj().T @ g)
    if residual > tol.structural:
        raise NotInvolution(f"grading is not unitary: residual {residual:.6e}")
    residual = _identity_residual(g @ g)
    if residual > tol.structural:
        raise NotInvolution(f"grading does not square to one: residual {residual:.6e}")
    coin = g @ u
    # (g @ u) @ g is how Python evaluates g @ u @ g.
    chirality = _maxabs(coin @ g - u.conj().T)
    if chirality > tol.structural:
        raise ChiralSymmetryViolated(chirality, tol.structural)
    # The coin inherits involutivity from chirality; re-verify so
    # downstream code can rely on it without rechecking.
    scale = tol.structural * u.shape[0]
    for label, value in (
        ("coin involution", _identity_residual(coin @ coin)),
        ("coin unitarity", _identity_residual(coin.conj().T @ coin)),
        ("product recovery", _maxabs(u - g @ coin)),
    ):
        if value > scale:
            raise InconsistencyDetected(label, value)
    # Every report eigendecomposes the coin and the grading as Hermitian
    # matrices at this bound, so a pair that passes here never makes the
    # report raise.
    for label, m in (("coin", coin), ("grading", g)):
        residual = _maxabs(m - m.conj().T)
        if residual > tol.structural:
            raise NotInvolution(
                f"{label} is not Hermitian: residual {residual:.6e} exceeds "
                f"{tol.structural:.6e}"
            )
    return ChiralPair(u=u, gamma=g, coin=coin, tol=tol)


def super_operators(pair: ChiralPair) -> SuperOperators:
    """Split the evolution into supercharge and Hermitian partner.

    The supercharge is ``(u - u*)/2i`` and anticommutes with the grading;
    the partner ``(u + u*)/2`` commutes with it.
    """
    return SuperOperators(q=_supercharge(pair), r=(pair.u + pair.u.conj().T) / 2.0)


def _supercharge(pair: ChiralPair) -> np.ndarray:
    return (pair.u - pair.u.conj().T) / 2.0j


def graded_decomposition(pair: ChiralPair) -> GradedDecomposition:
    """Orthonormal +1/-1 eigenbases of the grading and the supercharge block.

    Bases come from an eigensolve, or from a narrow side's factor and QR,
    both deterministic, so the block matrix is reproducible across runs.
    """
    plus, minus = _involution_eigenspaces(pair.gamma, pair.tol)
    return GradedDecomposition(plus_basis=plus, minus_basis=minus,
                               alpha=_alpha(pair, plus, minus))


def _alpha(pair: ChiralPair, plus: Subspace, minus: Subspace) -> np.ndarray:
    return minus.basis.conj().T @ _supercharge(pair) @ plus.basis


def index_alpha(pair: ChiralPair) -> int:
    """Fredholm index of the supercharge block: dim ker minus dim coker.

    Both dimensions are read from ranks, ``(cols - rank alpha) -
    (rows - rank alpha*)``, each counted from singular values alone under
    the cutoff :func:`kernel_basis` applies; no kernel basis is formed.
    """
    return _graded_index(pair, *_involution_eigenspaces(pair.gamma, pair.tol))


def _graded_index(pair: ChiralPair, plus: Subspace, minus: Subspace) -> int:
    """:func:`index_alpha` in the grading's given +1 and -1 eigenspaces."""
    alpha = _alpha(pair, plus, minus)
    rows, cols = alpha.shape
    ker = cols - _rank_svd(alpha, pair.tol, vectors=False)[0]
    coker = rows - _rank_svd(alpha.conj().T, pair.tol, vectors=False)[0]
    return ker - coker


def witten_index(pair: ChiralPair) -> int:
    """Witten index of the squared supercharge ``H = q^2``.

    ``ker H = ker q`` because ``q`` is self-adjoint, so the index is
    ``dim(ker q & Gamma+) - dim(ker q & Gamma-)``, with ``ker q`` from one
    SVD of the supercharge in the full space, intersected with the
    grading's eigenspaces; the block ``alpha`` is never formed.
    """
    ker_q = kernel_basis(_supercharge(pair), pair.tol)
    plus, minus = _involution_eigenspaces(pair.gamma, pair.tol)
    return (subspace_intersection(ker_q, plus, pair.tol).dim
            - subspace_intersection(ker_q, minus, pair.tol).dim)


def gamma_signature(pair: ChiralPair) -> int:
    """Signature of the grading: dim of its +1 eigenspace minus the -1 one.

    At finite dimension this equals the index of the pair, because the
    supercharge block maps between spaces of exactly these dimensions.
    """
    plus, minus = _involution_eigenspaces(pair.gamma, pair.tol)
    return plus.dim - minus.dim


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
