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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChiralSymmetryViolated,
    DimensionMismatch,
    InconsistencyDetected,
    NotInvolution,
    NotUnitary,
)
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _EPS,
    _identity_residual,
    _involution_eigenspaces,
    _maxabs,
    _narrow,
    _near_unit,
    _rank_svd,
    as_square_matrix,
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


def make_pair(u, gamma, tol: Tolerance = DEFAULT_TOL) -> ChiralPair:
    """Validate a (evolution, grading) pair and cache its coin.

    Raises :class:`NotUnitary` if the evolution is not unitary,
    :class:`NotInvolution` if the grading is not a unitary involution or
    the grading or the coin is further from Hermitian than
    ``tol.structural``, and :class:`ChiralSymmetryViolated` (with the residual) if the grading
    fails to conjugate the evolution to its adjoint. The coin's
    involution and unitarity and ``u = gamma @ coin`` must hold to within
    ``tol.structural * n``, else :class:`InconsistencyDetected`; each is
    checked by its own product only where :func:`_derived_bounds` does
    not already settle it.
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
    r_u = _identity_residual(u.conj().T @ u)
    if r_u > tol.structural:
        raise NotUnitary(f"evolution is not unitary: residual {r_u:.6e}")
    r_g = _identity_residual(g.conj().T @ g)
    if r_g > tol.structural:
        raise NotInvolution(f"grading is not unitary: residual {r_g:.6e}")
    r_2 = _identity_residual(g @ g)
    if r_2 > tol.structural:
        raise NotInvolution(f"grading does not square to one: residual {r_2:.6e}")
    coin = g @ u
    # (g @ u) @ g is how Python evaluates g @ u @ g.
    chirality = _maxabs(coin @ g - u.conj().T)
    if chirality > tol.structural:
        raise ChiralSymmetryViolated(chirality, tol.structural)
    hermiticity = {"coin": _maxabs(coin - coin.conj().T), "grading": _maxabs(g - g.conj().T)}
    # The coin inherits involutivity and unitarity from the residuals
    # above, and g @ coin recovers u; each of the three products is formed
    # only where the bound derived from those residuals exceeds the scale,
    # so downstream code can rely on all three without rechecking.
    scale = tol.structural * u.shape[0]
    for label, bound, residual in zip(
        ("coin involution", "coin unitarity", "product recovery"),
        _derived_bounds(u.shape[0], r_u, r_g, r_2, chirality, hermiticity["coin"]),
        (lambda: _identity_residual(coin @ coin),
         lambda: _identity_residual(coin.conj().T @ coin),
         lambda: _maxabs(u - g @ coin)),
    ):
        if bound > scale and (value := residual()) > scale:
            raise InconsistencyDetected(label, value)
    # Every report eigendecomposes the coin and the grading as Hermitian
    # matrices at this bound, and checks the discriminant's Hermiticity
    # instead of raising on it, so a pair that passes here never makes the
    # report raise.
    for label, residual in hermiticity.items():
        if residual > tol.structural:
            raise NotInvolution(
                f"{label} is not Hermitian: residual {residual:.6e} exceeds "
                f"{tol.structural:.6e}"
            )
    return ChiralPair(u=u, gamma=g, coin=coin, tol=tol)


def _derived_bounds(n: int, r_u: float, r_g: float, r_2: float, chirality: float,
                    hermiticity: float) -> tuple[float, float, float]:
    """Bounds on the coin-involution, coin-unitarity and recovery residuals.

    The arguments are the entrywise residuals of ``U* U - 1``, ``G* G - 1``,
    ``G^2 - 1``, ``C G - U*`` and ``C - C*``. With E the rounding error of
    the stored coin ``C = GU + E``, ``C^2 - 1 = (U* U - 1) + (C G - U*) U + C E``,
    ``C* C - 1 = (C^2 - 1) + (C* - C) C`` and ``U - G C = (1 - G^2) U - G E``.
    An entry of a product is at most a row's norm times a column's, and a
    residual's row has norm at most sqrt(n) times its largest entry. Rows
    and columns of U and G have norm at most ``nu``, where
    ``nu^2 = (1 + n r) / (1 - n gamma)`` bounds ``|U|_2^2`` and ``|G|_2^2``
    by their unitarity residuals, and those of C at most ``2 nu^2``.
    ``slack`` covers E and the rounding of the residuals and of the
    products they replace, ``gamma = (n + 4) eps`` bounding the rounding of
    a complex n-term dot product (while ``n gamma < 1``, far beyond any
    dense matrix that fits in memory).
    """
    gamma = (n + 4) * _EPS
    nu2 = (1.0 + n * max(r_u, r_g)) / (1.0 - n * gamma)
    root_n, nu = math.sqrt(n), math.sqrt(nu2)
    slack = 32.0 * root_n * gamma * nu2 * nu2
    involution = r_u + root_n * nu * chirality + slack
    return (involution, involution + 2.0 * root_n * nu2 * hermiticity,
            root_n * nu * r_2 + slack)


def _unit(pair: ChiralPair) -> complex:
    return 1.0 if np.isrealobj(pair.u) else 1j


def _supercharge(pair: ChiralPair) -> np.ndarray:
    """``S = (U - U*)/(2 unit)``: q, or for an exactly real pair the real A with ``q = -iA``."""
    return (pair.u - pair.u.conj().T) / (2.0 * _unit(pair))


def index_alpha(pair: ChiralPair) -> int:
    """Fredholm index of the supercharge block: dim ker minus dim coker.

    Both dimensions are read from ranks, ``(cols - rank alpha) -
    (rows - rank alpha*)``, each counted from singular values alone under
    the cutoff :func:`kernel_basis` applies; no kernel basis is formed.
    """
    return _graded_index(pair, *_involution_eigenspaces(pair.gamma, pair.tol))


def _graded_index(pair: ChiralPair, plus: Subspace, minus: Subspace) -> int:
    """:func:`index_alpha` in the grading's given +1 and -1 eigenspaces."""
    alpha = minus.basis.conj().T @ _supercharge(pair) @ plus.basis
    rows, cols = alpha.shape
    ker = cols - _rank_svd(alpha, pair.tol, vectors=False)[0]
    coker = rows - _rank_svd(alpha.conj().T, pair.tol, vectors=False)[0]
    return ker - coker


def _projection_pair_index(diff: np.ndarray, tol: Tolerance) -> int:
    """Index of a pair of orthogonal projections from their difference ``p1 - p2``.

    The nullity of ``p1 - p2 - 1`` minus that of ``p1 - p2 + 1``, read
    from the eigenvalues of the Hermitian part alone; the arguments are
    not validated.
    """
    return _unit_count(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0), tol)


def _unit_count(w: np.ndarray, tol: Tolerance) -> int:
    """Nullity of ``X - 1`` minus that of ``X + 1``, from the eigenvalues of a Hermitian X."""
    return int(_near_unit(w, 1.0, tol.rank).sum() - _near_unit(w, -1.0, tol.rank).sum())


def _coin_pair_index(pair: ChiralPair, narrow: np.ndarray, sign: float) -> int:
    """Index of ``(Gamma+, C+)`` plus index of ``(Gamma+, C-)``, from ``(Gamma -+ C)/2``.

    ``narrow`` is an orthonormal basis Y of the coin's eigenspace for
    ``sign``. From dimension 64 on, when Y has at most n/4 columns,
    :func:`_compressed_coin_pair_index` takes both indices on Halmos's
    reduction; otherwise, or when its certificate fails, they come from
    the eigenvalues of the two whole differences.
    """
    if _narrow(narrow.shape[1], pair.dim):
        index = _compressed_coin_pair_index(pair, narrow, sign)
        if index is not None:
            return index
    return (_projection_pair_index((pair.gamma - pair.coin) / 2.0, pair.tol)
            + _projection_pair_index((pair.gamma + pair.coin) / 2.0, pair.tol))


def _compressed_coin_pair_index(pair: ChiralPair, narrow: np.ndarray,
                                sign: float) -> int | None:
    """:func:`_coin_pair_index` on ``S = ran Y + Gamma ran Y``, or None if not certified.

    S holds ``ran Y`` and ``Gamma+ ran Y``, so the grading and the coin
    map it to itself, and on S-perp the coin is ``-sign`` (Halmos, Trans.
    AMS 144 (1969); Avron, Seiler and Simon, J. Funct. Anal. 120 (1994)).
    Each difference ``(Gamma + s C)/2``, s = -+1, thus has the eigenvalues
    of its at most 2c x 2c compression to S, and on S-perp those of
    ``(Gamma - s sign)/2``, which are ``(+-1 - s sign)/2`` on S-perp's
    part in Gamma+-. B, S's basis, comes from an SVD of ``[Y, Gamma Y]``
    ranked under :func:`_near_unit`. S-perp's part in Gamma+ has the
    dimension ``dim Gamma+ - dim(S & Gamma+)``, read from the traces as
    ``(n + tr Gamma)/2 - (dim S + tr B* Gamma B)/2``. S is used when, to
    within ``tol.structural * n``, both halves are integers, the coin's
    trace on S-perp is ``-sign (n - dim S)``, and S is invariant:
    ``|(Gamma + s C) B - B (B* (Gamma + s C) B)|`` for both signs. Each
    +-1 decision is then made on n values, as on the whole difference.
    """
    n, tol, g, c = pair.dim, pair.tol, pair.gamma, pair.coin
    left, sigma, _ = np.linalg.svd(np.hstack([narrow, g @ narrow]), full_matrices=False)
    b = left[:, ~_near_unit(sigma, 0.0, tol.rank)]
    gb, cb = g @ b, c @ b
    g_s, c_s = b.conj().T @ gb, b.conj().T @ cb
    dim_s = b.shape[1]
    k_plus = (n + float(np.trace(g).real)) / 2.0
    s_plus = (dim_s + float(np.trace(g_s).real)) / 2.0
    outside_plus = round(k_plus) - round(s_plus)
    residuals = [abs(k_plus - round(k_plus)), abs(s_plus - round(s_plus)),
                 abs(float(np.trace(c).real - np.trace(c_s).real) + sign * (n - dim_s)),
                 *(_maxabs(gb + s * cb - b @ (g_s + s * c_s)) for s in (-1.0, 1.0))]
    # Written so that a NaN residual fails.
    if not (all(r <= tol.structural * n for r in residuals)
            and 0 <= outside_plus <= n - dim_s):
        return None
    index = 0
    for s in (-1.0, 1.0):
        m = (g_s + s * c_s) / 2.0
        index += _unit_count(np.concatenate([
            np.linalg.eigvalsh((m + m.conj().T) / 2.0),
            np.full(outside_plus, (1.0 - s * sign) / 2.0),
            np.full(n - dim_s - outside_plus, (-1.0 - s * sign) / 2.0)]), tol)
    return index
