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

A pair holds its operators in ``ops``: its n x n matrices
(:class:`_Stored`, from :func:`make_pair`) or its factors
(:class:`Factors`, from :func:`make_factored_pair`), the grading and the
coin as reflections ``s (2 B B* - 1)`` through narrow subspaces, with the
evolution their product. Everything is computed on ``ops.reduced``: a
stored pair is its own, and a factored pair is its compression to the
span of its two bases, a stored pair, plus a scalar block on the
complement (:class:`_Reduced`). Only :meth:`Factors.dense` forms a
factored pair's n x n matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ChiralSymmetryViolated,
    DimensionMismatch,
    InconsistencyDetected,
    NotInvolution,
    NotUnitary,
    OutOfRange,
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
    _outside,
    _rank_svd,
    _real_if_exact,
    as_matrix,
    as_square_matrix,
)


class Reflection(NamedTuple):
    """The involution ``sign (2 B B* - 1)``, held by B, n x k with orthonormal columns.

    It is Hermitian by construction, and an involution and unitary to
    within B's Gram residual ``B* B - 1``. Its ``sign`` eigenspace is
    ran B, the other one the orthogonal complement of ran B.
    """

    basis: np.ndarray
    sign: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The reflection applied to an n x m block, at O(n k m)."""
        b = self.basis
        y = b @ (b.conj().T @ x)
        y *= 2.0 * self.sign
        # Subtracting x, or for sign -1 adding it, rounds as subtracting
        # sign * x does, with no temporary.
        return (np.subtract if self.sign > 0 else np.add)(y, x, out=y)

    def dense(self) -> np.ndarray:
        n = len(self.basis)
        matrix = (2.0 * self.sign) * (self.basis @ self.basis.conj().T)
        matrix.flat[::n + 1] -= self.sign
        return matrix


class Factors(NamedTuple):
    """The operators of a pair held by its grading and coin as reflections.

    The report reads them through :meth:`reduced`, and only :meth:`dense`
    forms the n x n matrices.
    """

    gamma: Reflection
    coin: Reflection

    dim = property(lambda self: len(self.gamma.basis))
    dtype = property(lambda self: np.result_type(self.gamma.basis, self.coin.basis))

    def reduced(self, pair: ChiralPair) -> _Reduced:
        """The pair as its compression to Z = span(Y, G) and the scalar block on Z-perp.

        With s and t the signs of G and Y, both reflections map Z to itself
        and are -s and -t on Z-perp (Halmos, Trans. AMS 144 (1969);
        Bottcher and Spitkovsky, Linear Algebra Appl. 432 (2010)). Z's
        basis is ``[Y, W]``, W the left singular vectors of ``(1 - Y Y*) G``
        whose sines exceed ``tol.rank``, the census's rule for two spaces
        held by their complements; that SVD is the one factorization with
        n rows. With Y first the coin is diagonal in Z's coordinates to
        within rounding, so the discriminant comes from ``Y* G`` as from
        the dense matrices. The compressions are stored as formed: they
        are Hermitian, and involutions and unitary to within the Gram
        residuals of G and Y that :func:`make_factored_pair` bounds.
        """
        g, y = self.gamma.basis, self.coin.basis
        left, sines, _ = np.linalg.svd(_outside(g, y), full_matrices=False)
        z = np.concatenate([y, left[:, :np.count_nonzero(sines > pair.tol.rank)]], axis=1)
        zh = z.conj().T
        gamma, coin = [Reflection(zh @ r.basis, r.sign).dense() for r in self]
        return _Reduced(ChiralPair(_Stored(gamma @ coin, gamma, coin), pair.tol), z, self.dim,
                        (-self.gamma.sign, -self.coin.sign))

    def dense(self, name: str) -> np.ndarray:
        """The n x n matrix ``u``, ``gamma`` or ``coin``, at O(n^2 (k + c)).

        Beyond DENSE_MAX_DIM it is refused with :class:`OutOfRange`
        before anything is allocated.
        """
        if self.dim > DENSE_MAX_DIM:
            raise OutOfRange(
                f"the pair of dimension {self.dim} is held by its factors, and its dense "
                f"matrices are formed only up to dimension {DENSE_MAX_DIM}"
            )
        return self.gamma(self.coin.dense()) if name == "u" else getattr(self, name).dense()


# The largest dimension at which a pair held by its factors forms its
# n x n matrices, for --dump-matrices: that of the 10-qubit search pair,
# the largest whose matrices were ever formed, so every dump that was
# served before the pair was factored still is. Dumping a search pair
# takes 0.9 s and 90 MiB at n = 512, 3.9 s and 263 MiB at n = 1024, and
# 17.5 s and 904 MiB at n = 2048 (1 BLAS thread), past the command's
# budget of about a second.
DENSE_MAX_DIM = 2048


class _Stored:
    """The operators of a pair held by its n x n matrices ``u``, ``gamma`` and ``coin``."""

    def __init__(self, u: np.ndarray, gamma: np.ndarray, coin: np.ndarray) -> None:
        self.matrices = {"u": u, "gamma": gamma, "coin": coin}
        self.dim, self.dtype = len(u), u.dtype
        self._spaces: dict[tuple[str, Tolerance], tuple[Subspace, Subspace]] = {}

    def dense(self, name: str) -> np.ndarray:
        return self.matrices[name]

    def reduced(self, pair: ChiralPair) -> _Reduced:
        """The pair itself, on Z = C^n with no scalar block."""
        return _Reduced(pair, None, self.dim, (1.0, 1.0))

    def spaces(self, name: str, tol: Tolerance) -> tuple[Subspace, Subspace]:
        """The +1 and -1 eigenspaces of ``gamma`` or ``coin``, from the matrix, kept once made."""
        key = (name, tol)
        spaces = self._spaces.get(key)
        if spaces is None:
            spaces = self._spaces[key] = _involution_eigenspaces(self.matrices[name], tol)
        return spaces


class _Reduced(NamedTuple):
    """A pair as a stored pair on an invariant subspace Z and a scalar block on Z-perp.

    ``pair`` is the compression to Z and ``basis`` Z's orthonormal basis,
    n x dim Z, or None when Z is C^n. On Z-perp, of dimension ``block``,
    the grading and the coin are the scalars ``signs``, so q vanishes.
    ``dim`` is the whole pair's n, at which every bound is taken.
    """

    pair: ChiralPair
    basis: np.ndarray | None
    dim: int
    signs: tuple[float, float]

    tol = property(lambda self: self.pair.tol)
    block = property(lambda self: self.dim - self.pair.dim)
    # Z-perp lies in the grading's eigenspace of its sign and in ker q.
    shift = property(lambda self: round(self.signs[0]) * self.block)

    def whole(self, space: Subspace, holds: bool) -> Subspace:
        """``space`` of the compression as a subspace of C^n, joined by Z-perp when it ``holds`` it.

        A space that holds Z-perp is held by its complement, Z times the
        complement of ``space`` in Z, an n x (dim Z - dim space) array.
        """
        if self.basis is None:
            return space
        if not holds:
            # An empty space lifts to no columns, with no product formed.
            return Subspace(self.dim, self.basis @ space.basis if space.dim else
                            np.empty((self.dim, 0), np.result_type(self.basis, space.basis)))
        other = Subspace(self.pair.dim, complement=space.basis).basis \
            if space.complement is None else space.complement
        return Subspace(self.dim, complement=self.basis @ other)

    def spaces(self, name: str) -> tuple[Subspace, Subspace]:
        """The +1 and -1 eigenspaces of the whole pair's ``gamma`` or ``coin``."""
        sign = self.signs[name == "coin"]
        plus, minus = self.pair.ops.spaces(name, self.tol)
        return self.whole(plus, sign > 0), self.whole(minus, sign < 0)


@dataclass(frozen=True)
class ChiralPair:
    """A validated (evolution, grading) pair with its coin, held by its operators ``ops``.

    ``u`` is unitary, ``gamma`` is a unitary involution, conjugation of
    ``u`` by ``gamma`` gives the adjoint of ``u``, and ``coin`` is an
    involution with ``u = gamma @ coin`` to within ``tol.structural * n``.

    A pair from :func:`make_pair` holds the three as n x n matrices in
    :class:`_Stored`, its coin ``gamma @ u``. They are float64 when every
    entry of ``u`` and ``gamma`` is exactly real, and complex128
    otherwise. A pair from :func:`make_factored_pair` holds
    :class:`Factors`, its grading and coin as reflections through their
    narrow sides, and forms each n x n matrix when it is first read; the
    report reads it through its compression ``ops.reduced`` and forms none
    of them.
    """

    ops: _Stored | Factors = field(repr=False)
    tol: Tolerance = DEFAULT_TOL

    dim = property(lambda self: self.ops.dim)
    dtype = property(lambda self: self.ops.dtype)
    u = cached_property(lambda self: self.ops.dense("u"))
    gamma = cached_property(lambda self: self.ops.dense("gamma"))
    coin = cached_property(lambda self: self.ops.dense("coin"))


def make_factored_pair(grading: Reflection, coin: Reflection,
                       tol: Tolerance = DEFAULT_TOL) -> ChiralPair:
    """Validate the pair ``(Gamma C, Gamma)`` held by its grading and coin as reflections.

    Both reflections are Hermitian by construction, and ``U = Gamma C``
    is chiral: ``Gamma U Gamma = C Gamma = U*``. So the only checks are
    the Gram residuals ``B* B - 1`` of the grading's basis and of the
    coin's, k x k and c x c: each must be at most ``tol.structural``,
    else :class:`NotInvolution`. A sign other than +-1 is a ValueError,
    and bases with different row counts, or none, a
    :class:`DimensionMismatch`. No n x n matrix is formed.
    """
    factors = []
    for label, reflection in (("grading", grading), ("coin", coin)):
        basis = as_matrix(reflection.basis)
        basis = np.ascontiguousarray(_real_if_exact(basis))
        if reflection.sign not in (1.0, -1.0):
            raise ValueError(f"{label} sign must be +1 or -1, got {reflection.sign}")
        residual = _identity_residual(basis.conj().T @ basis)
        if residual > tol.structural:
            raise NotInvolution(f"{label} is not unitary: residual {residual:.6e}")
        factors.append(Reflection(basis, float(reflection.sign)))
    g, c = factors
    if len(g.basis) != len(c.basis) or len(g.basis) == 0:
        raise DimensionMismatch(
            f"grading basis has {len(g.basis)} rows but coin basis has {len(c.basis)}; "
            f"both need the same positive number"
        )
    return ChiralPair(Factors(g, c), tol)


def make_pair(u, gamma, tol: Tolerance = DEFAULT_TOL) -> ChiralPair:
    """Validate a (evolution, grading) pair and cache its coin.

    Raises :class:`NotUnitary` if the evolution is not unitary,
    :class:`NotInvolution` if the grading is not a unitary involution or
    the grading or the coin is further from Hermitian than
    ``tol.structural``, and :class:`ChiralSymmetryViolated` (with the
    residual) if the grading fails to conjugate the evolution to its
    adjoint. The coin's involution and unitarity and ``u = gamma @ coin``
    must hold to within ``tol.structural * n``, else
    :class:`InconsistencyDetected`.

    Three n x n products are formed, ``u* u``, ``gamma* gamma`` and the
    coin ``gamma @ u``, and both Hermiticity residuals are measured. Each
    of the other five products is formed only where
    :func:`_derived_bounds` does not already settle its check. So a pair
    is accepted or refused, with the same error and residual, as when all
    eight are formed.
    """
    u = as_square_matrix(u)
    g = as_square_matrix(gamma)
    if u.shape != g.shape:
        raise DimensionMismatch(
            f"evolution has shape {u.shape} but grading has shape {g.shape}"
        )
    if u.shape[0] == 0:
        raise DimensionMismatch("pair dimension must be positive")
    if not (np.iscomplexobj(u) and u.imag.any() or np.iscomplexobj(g) and g.imag.any()):
        # An exactly real pair is kept real, so its coin and every
        # factorization downstream run in real arithmetic.
        u, g = np.ascontiguousarray(u.real), np.ascontiguousarray(g.real)
    n = u.shape[0]
    scale = tol.structural * n
    # Every residual is taken in one n x n buffer, each product written
    # into it and the identity subtracted in place.
    work = np.empty((n, n), dtype=np.result_type(u, g))
    r_u = _identity_residual(np.matmul(u.conj().T, u, out=work))
    if r_u > tol.structural:
        raise NotUnitary(f"evolution is not unitary: residual {r_u:.6e}")
    r_g = _identity_residual(np.matmul(g.conj().T, g, out=work))
    if r_g > tol.structural:
        raise NotInvolution(f"grading is not unitary: residual {r_g:.6e}")
    h_g = _skew_residual(g, work)
    coin = np.matmul(g, u)
    h_c = _skew_residual(coin, work)
    residuals = (n, r_u, r_g, h_g, h_c)
    # g @ g and the chirality product are formed only where their bounds
    # exceed tol.structural; where a product is not formed, its bound
    # stands in for its residual below. (g @ u) @ g is how Python
    # evaluates g @ u @ g.
    r_2, chirality = _derived_bounds(*residuals)[:2]
    if r_2 > tol.structural and (
            r_2 := _identity_residual(np.matmul(g, g, out=work))) > tol.structural:
        raise NotInvolution(f"grading does not square to one: residual {r_2:.6e}")
    if chirality > tol.structural and (chirality := _maxabs(
            np.subtract(np.matmul(coin, g, out=work), u.conj().T, out=work))) > tol.structural:
        raise ChiralSymmetryViolated(chirality, tol.structural)
    # The coin inherits involutivity and unitarity from the residuals
    # above, and g @ coin recovers u; each of the three products is formed
    # only where the bound derived from those residuals exceeds the scale,
    # so downstream code can rely on all three without rechecking.
    for label, bound, residual in zip(
        ("coin involution", "coin unitarity", "product recovery"),
        _derived_bounds(*residuals, r_2, chirality)[2:],
        (lambda: _identity_residual(np.matmul(coin, coin, out=work)),
         lambda: _identity_residual(np.matmul(coin.conj().T, coin, out=work)),
         lambda: _maxabs(np.subtract(u, np.matmul(g, coin, out=work), out=work))),
    ):
        if bound > scale and (value := residual()) > scale:
            raise InconsistencyDetected(label, value)
    # Every report eigendecomposes the coin and the grading as Hermitian
    # matrices at this bound, and checks the discriminant's Hermiticity
    # instead of raising on it, so a pair that passes here never makes the
    # report raise.
    for label, residual in (("coin", h_c), ("grading", h_g)):
        if residual > tol.structural:
            raise NotInvolution(
                f"{label} is not Hermitian: residual {residual:.6e} exceeds "
                f"{tol.structural:.6e}"
            )
    return ChiralPair(_Stored(u, g, coin), tol)


def _skew_residual(x: np.ndarray, work: np.ndarray) -> float:
    """Largest entry of ``x - x*``, formed in ``work``.

    A complex x's adjoint is written into ``work`` first, so no other
    n x n array is made; a real x is its own conjugate.
    """
    adjoint = np.conjugate(x.T, out=work) if np.iscomplexobj(x) else x.T
    return _maxabs(np.subtract(x, adjoint, out=work))


def _derived_bounds(n: int, r_u: float, r_g: float, h_g: float, h_c: float,
                    r_2: float | None = None,
                    chirality: float | None = None) -> tuple[float, ...]:
    """Bounds on the residuals of make_pair's five products that may be skipped.

    The arguments are the entrywise residuals of ``U* U - 1``, ``G* G - 1``,
    ``G - G*`` and ``C - C*``, where C is the stored coin, and, where their
    products were formed, those of ``G^2 - 1`` and ``C G - U*``. The
    bounds are, in order, on the residuals of ``G^2 - 1``, ``C G - U*``,
    ``C^2 - 1``, ``C* C - 1`` and ``U - G C``; the last three take the
    first two bounds in place of ``r_2`` and ``chirality`` when those are
    not given. E is the rounding error of the stored coin, ``C = GU + E``:

    * ``G^2 - 1 = (G* G - 1) + (G - G*) G``;
    * ``C G - U* = (C - C*) G + U* (G* G - 1) + E* G``;
    * ``C^2 - 1 = (U* U - 1) + (C G - U*) U + C E``;
    * ``C* C - 1 = (C^2 - 1) + (C* - C) C``;
    * ``U - G C = (1 - G^2) U - G E``.

    An entry of a product is at most a row's norm times a column's, and a
    residual's row has norm at most sqrt(n) times its largest entry. Rows
    and columns of U and G have norm at most ``nu``, where
    ``nu^2 = (1 + n r) / (1 - n gamma)`` bounds ``|U|_2^2`` and ``|G|_2^2``
    by their unitarity residuals. Here ``gamma = (n + 4) eps`` bounds the
    rounding of a complex n-term dot product relative to the sum of its
    terms' magnitudes (while ``n gamma < 1``, far beyond any dense matrix
    that fits in memory), and ``1 + gamma`` covers the relative rounding
    of a residual, its subtraction and its magnitude. E's columns have
    norm at most ``leak = gamma sqrt(n) nu^2``: ``|E| <= gamma |G||U|``,
    and a column of ``|G||U|`` has norm at most the norm of ``|G|`` (at
    most its Frobenius norm, ``sqrt(n) nu``) times ``nu``. C's columns
    have norm at most ``nu^2 + leak`` and its rows, those of C*, at most
    ``c = nu^2 + leak + sqrt(n) h_c``. So:

    * the rounding of ``G^2`` and of ``G* G`` adds at most ``gamma nu^2``
      to an entry each, which gives ``(1 + gamma)(r_g + sqrt(n) nu h_g)
      + 3 gamma nu^2`` for ``G^2 - 1``;
    * the rounding of ``G* G`` enters ``U* (G* G - 1)`` as at most
      ``gamma |U*||G*||G|``, whose entries are at most ``sqrt(n) nu^3``,
      ``E* G`` has entries at most ``leak nu``, and the rounding of
      ``C G`` adds ``gamma c nu``. This gives
      ``(1 + gamma)(sqrt(n) nu (h_c + r_g) + leak nu
      + gamma nu (sqrt(n) nu^2 + c))`` for ``C G - U*``;
    * ``C E`` has entries at most ``c leak`` and ``G E`` at most
      ``nu leak``, and ``(C* - C) C`` at most ``sqrt(n) h_c c``;
    * ``slack = 8 sqrt(n) gamma (nu^2 + c)^2`` covers the rounding of the
      residuals and of the products in the last three.

    The first two are compared with ``tol.structural``. At the default
    tolerance the rounding term of the second reaches it from n of about
    3700, and that of the first only from n of about 1.5e5.
    """
    gamma = (n + 4) * _EPS
    nu2 = (1.0 + n * max(r_u, r_g)) / (1.0 - n * gamma)
    root_n, nu = math.sqrt(n), math.sqrt(nu2)
    leak = gamma * root_n * nu * nu
    c = nu2 + leak + root_n * h_c
    square = (1.0 + gamma) * (r_g + root_n * nu * h_g) + 3.0 * gamma * nu2
    chiral = (1.0 + gamma) * (root_n * nu * (h_c + r_g) + leak * nu
                              + gamma * nu * (root_n * nu2 + c))
    r_2 = square if r_2 is None else r_2
    chirality = chiral if chirality is None else chirality
    slack = 8.0 * root_n * gamma * (nu2 + c) * (nu2 + c)
    involution = r_u + root_n * nu * chirality + c * leak + slack
    return (square, chiral, involution, involution + root_n * h_c * c,
            root_n * nu * r_2 + nu * leak + slack)


def _unit(pair: ChiralPair) -> complex:
    return 1j if pair.dtype.kind == "c" else 1.0


def index_alpha(pair: ChiralPair) -> int:
    """Fredholm index of the supercharge block: dim ker minus dim coker.

    Both dimensions are read from ranks, ``(cols - rank alpha) -
    (rows - rank alpha*)``, each counted from singular values alone under
    the cutoff :func:`kernel_basis` applies; no kernel basis is formed.
    They are taken on the pair's compression, plus its scalar block's.
    """
    reduced = pair.ops.reduced(pair)
    return _graded_index(reduced.pair, *reduced.pair.ops.spaces("gamma", pair.tol)) \
        + reduced.shift


def _graded_index(pair: ChiralPair, plus: Subspace, minus: Subspace) -> int:
    """:func:`index_alpha` in the grading's given +1 and -1 eigenspaces.

    With ``S = (U - U*)/(2 unit)``, ``S B`` comes from ``U B`` and
    ``U* B`` for B the basis of a side held by one, the narrower when
    both are, and is projected onto the other side G: as ``G* S B`` by
    G's basis, or, when G is held by its complement B, as the n x k
    ``(1 - B B*) S B``, which has the singular values of ``G* S B``. For
    B the +1 side's basis ``G* S B`` is alpha; for the -1 side's it is
    ``+-alpha*``, since ``S* = +-S``. rank alpha and rank alpha* each come
    from an SVD of their own, of the matrix and of its adjoint. No n x n
    S and no wide basis are formed.
    """
    held = min(plus, minus, key=lambda side: (side.by_complement, side.dim))
    other = minus if held is plus else plus
    b, u = held.basis, pair.u
    sb = (u @ b - u.conj().T @ b) / (2.0 * _unit(pair))
    m = _outside(sb, other.complement) if other.by_complement else other.basis.conj().T @ sb
    alpha, adjoint = (m, m.conj().T) if held is plus else (m.conj().T, m)
    ker = plus.dim - _rank_svd(alpha, pair.tol, vectors=False)[0]
    coker = minus.dim - _rank_svd(adjoint, pair.tol, vectors=False)[0]
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
    return (int(np.count_nonzero(_near_unit(w, 1.0, tol.rank)))
            - int(np.count_nonzero(_near_unit(w, -1.0, tol.rank))))


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
    +-1 decision is then made on the n values of the whole difference,
    S-perp's written out.
    """
    n, tol, gamma, coin = pair.dim, pair.tol, pair.gamma, pair.coin
    left, sigma, _ = np.linalg.svd(np.concatenate([narrow, gamma @ narrow], axis=1),
                                   full_matrices=False)
    b = left[:, ~_near_unit(sigma, 0.0, tol.rank)]
    gb, cb = gamma @ b, coin @ b
    g_s, c_s = b.conj().T @ gb, b.conj().T @ cb
    dim_s = b.shape[1]
    trace_g, trace_c = float(np.trace(gamma).real), float(np.trace(coin).real)
    k_plus = (n + trace_g) / 2.0
    s_plus = (dim_s + float(np.trace(g_s).real)) / 2.0
    outside_plus = round(k_plus) - round(s_plus)
    residuals = [abs(k_plus - round(k_plus)), abs(s_plus - round(s_plus)),
                 abs(float(trace_c - np.trace(c_s).real) + sign * (n - dim_s)),
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
