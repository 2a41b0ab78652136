"""Discriminant-based spectral analysis and the index report.

The coin of a chiral pair factors through a coisometry onto the coin's
+1 eigenspace. Compressing the grading by that coisometry yields the
discriminant, a Hermitian contraction whose spectrum determines the
evolution's spectrum away from +-1 through the Joukowski map. Eigenvalues
of the evolution at +-1 split into inherited ones (lifted from the
discriminant's +-1 eigenvalues) and birth ones (invisible to the
discriminant). Counting the four sources gives the index formula, and
everything here cross-checks the different routes against each other.

The report computes U's and q's side on the walk's invariant subspace
L = ran d* + Gamma ran d*, of dimension at most 2c for a coin space of
dimension c. U maps L to itself; on L-perp the effective coin is -1, so
U is -Gamma there (Gamma for a flipped coin) and q vanishes. U's
eigensolve runs on the compression ``B* U B`` and the SVD of q on the
``n x dim L`` matrix ``S B``, where ``S = (U - U*)/(2 unit)`` is q's one
form (real for an exactly real pair); L-perp adds the eigenvalues +-1 on
``L-perp & Gamma-+`` and a zero block of q.
L-perp is ``C- & Gamma C-`` for the effective coin, so ``L-perp &
Gamma+-`` are the effective census's birth spaces, and L's rank on each
side of the grading comes from the census. Two certificates,
``|U B - B (B* U B)|`` and ``|S - (S B) B*|``, must lie within
``tol.structural * n``, and a third, the unitarity residual of
``B* U B``, within ``tol.structural``. When one fails, or when 4c > n,
the report runs on W = C^n instead, where the same code makes the dense
factorizations of U and S.

Every product with U, U*, Gamma or C, ``d Gamma d*``, the traces, the
eigenspaces of Gamma and C and the coin's recovery from d are taken from
the pair's operators ``pair.ops``: its stored matrices, or for a pair
held by its factors the reflections themselves, at O(n (k + c)) per
column. For such a pair S vanishes outside span(G, Y), the span of the
grading's and the coin's bases, so the certificate ``|S - (S B) B*|`` is
measured there, on (k + c) x (k + c) matrices, and the report forms no
n x n array; only the fallback on W = C^n reads the pair's matrices,
which a factored pair forms up to ``chiral.DENSE_MAX_DIM``.

The span checks that split ker(U -+ 1) and the kernels of the supercharge
block into inherited and birth parts compare only the parts in W, of
dimension at most 2c on L: both sides of each check add the same part of
W-perp, one of the census's own spaces, so W-perp enters the report only
by its two dimensions, in the counts and the index routes.

The projection-pair route, the index of (Gamma+, C+) plus that of
(Gamma+, C-), shares only the coin's narrow basis d* with the census,
and the product Gamma d* where the pair's operators formed it for the
discriminant. On Halmos's reduction S = ran d* + Gamma ran d* it takes
the eigenvalues of the compressed differences ``B* (Gamma -+ C) B / 2``,
with B from its own SVD of ``[d*, Gamma d*]``, where the census takes
principal-angle sines between the eigenspaces of Gamma and C. The two
stay separate factorizations: merged into the census, the route would
repeat the census's decisions instead of checking them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .chiral import ChiralPair, _coin_pair_index, _unit
from .errors import InconsistencyDetected
from .linalg import (
    Subspace,
    Tolerance,
    _cluster_slices,
    _eig_unitary,
    _eigh,
    _intersection,
    _kernel_svd,
    _maxabs,
    _near_unit,
    _outside_svd,
    _OutsideSVDs,
    _overlap,
    _principal_order,
    _real_if_exact,
    _runs,
    eig_unitary,
    kernel_basis,
    spans_match,
    subspace_intersection,
    unitarity_residual,
)


@dataclass(frozen=True)
class CoisometryDecomposition:
    """Coisometry onto the coin's +1 eigenspace and the compressed grading.

    Rows of ``d`` are an orthonormal basis of the +1 eigenspace of the
    effective coin, so ``d d* = 1`` on the coin space and the effective
    coin equals ``2 d* d - 1``. When the supplied coin has no +1
    eigenvectors, or its -1 eigenspace is strictly smaller (and nonempty),
    the decomposition is built for the sign-flipped walk: ``flipped`` is
    set, the effective coin is the negated coin, and every discriminant
    statement then refers to the pair (-evolution, grading). The
    ``discriminant`` is ``d @ gamma @ d*`` with the original grading, and
    is a Hermitian contraction either way. ``gamma_lift`` is ``gamma @ d*``
    where the pair's operators formed the discriminant from it, else None.
    """

    d: np.ndarray
    flipped: bool
    discriminant: np.ndarray
    gamma_lift: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def coin_space_dim(self) -> int:
        return int(self.d.shape[0])


@dataclass(frozen=True)
class EigenspaceCensus:
    """The four sources of +-1 eigenvalues of the evolution.

    Inherited spaces intersect the grading's +-1 eigenspaces with the
    coin's +1 eigenspace; birth spaces intersect the opposite grading
    eigenspaces with the coin's -1 eigenspace. The counts
    ``m_plus``/``m_minus`` and ``M_plus``/``M_minus`` are their dimensions.
    """

    inherited_plus: Subspace
    inherited_minus: Subspace
    birth_plus: Subspace
    birth_minus: Subspace

    m_plus = property(lambda self: self.inherited_plus.dim)
    m_minus = property(lambda self: self.inherited_minus.dim)
    M_plus = property(lambda self: self.birth_plus.dim)
    M_minus = property(lambda self: self.birth_minus.dim)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class IndexReport:
    """Everything four index routes and the spectra say about one pair."""

    dim: int
    index_alpha: int
    index_witten: int
    index_formula: int
    gamma_signature: int
    census: EigenspaceCensus
    spectrum_u: tuple[tuple[complex, int], ...]
    spectrum_t: tuple[tuple[float, int], ...]
    spectrum_h: tuple[tuple[float, int], ...]
    mapping_residual: float
    consistent: bool
    flipped: bool
    checks: tuple[CheckResult, ...]
    warnings: tuple[str, ...]


def _preimages(t: float) -> tuple[complex, complex]:
    """Unit-circle preimages (upper branch, lower branch) of a discriminant eigenvalue.

    The value is clamped to [-1, 1]. How far T's spectrum may lie outside
    is judged once, by the ``discriminant_contraction`` check.
    """
    theta = math.acos(min(1.0, max(-1.0, float(t))))
    return cmath.exp(1j * theta), cmath.exp(-1j * theta)


def coisometry(pair: ChiralPair) -> CoisometryDecomposition:
    """Factor the coin through a coisometry and compress the grading.

    Chooses the smaller nonempty coin eigenspace as the coin space: the
    +1 eigenspace by default, the -1 eigenspace (recorded in ``flipped``)
    when the +1 eigenspace is empty or strictly larger. The flip leaves
    the index unchanged because negating the evolution does.
    """
    return _coisometry(pair, *pair.ops.spaces("coin", pair.tol))


def _coisometry(pair: ChiralPair, coin_plus: Subspace,
                coin_minus: Subspace) -> CoisometryDecomposition:
    flipped = coin_plus.dim == 0 or 0 < coin_minus.dim < coin_plus.dim
    d = (coin_minus if flipped else coin_plus).basis.conj().T
    t, gamma_lift = pair.ops.discriminant(d)
    return CoisometryDecomposition(d=d, flipped=flipped, discriminant=t, gamma_lift=gamma_lift)


@dataclass(frozen=True)
class _Walk:
    """The subspace W on which the report computes U's and q's spectra.

    ``basis`` is an orthonormal basis ``B`` of W, or None when W is the
    whole space. ``u`` is ``B* U B`` and ``q`` is ``S B``, with S the
    supercharge in its one form ``(U - U*)/(2 unit)``: q, or the real A
    with ``q = -iA`` for an exactly real pair, which has q's kernels and
    singular values. ``sides`` holds
    ``W & Gamma+`` and ``W & Gamma-`` in W's coordinates: the grading's
    eigenspaces on the whole space, and on L the leading and trailing
    columns of the identity, since ``B = [B+ | B-]``. ``outside`` holds
    the dimensions of ``W-perp & Gamma+`` and ``W-perp & Gamma-``, on which
    U is ``-Gamma`` for the effective coin: on L those of the effective
    census's birth spaces, and zero when W is the whole space.
    ``commutation`` holds the residuals of :func:`_commutation_residuals`,
    taken while ``U B``, ``U* B``, ``U Gamma B`` and ``U* Gamma B`` are at
    hand, so the walk does not hold them.
    """

    basis: np.ndarray | None
    u: np.ndarray
    q: np.ndarray
    sides: tuple[Subspace, Subspace]
    outside: tuple[int, int]
    commutation: tuple[float, float]

    def lift(self, v: np.ndarray) -> np.ndarray:
        return v if self.basis is None else self.basis @ v

    def supercharge_kernel(self, tol: Tolerance,
                           ) -> tuple[Subspace, np.ndarray, Subspace, Subspace]:
        """``ker q`` on W, the singular values of ``q`` and ``ker q & W & Gamma+-``.

        All three kernels are in W's coordinates. On a proper W the
        singular values of q on W-perp are zeros, and ``ker q & Gamma+-``
        adds ``W-perp & Gamma+-`` to the lift of ``ker q & W & Gamma+-``.
        On the whole space W-perp is empty and no zeros are added.
        """
        ker_w, sigma = _kernel_svd(self.q, tol)
        n = self.q.shape[0]
        plus, minus = (subspace_intersection(ker_w, side, tol) for side in self.sides)
        return ker_w, np.concatenate([sigma, np.zeros(n - sigma.size)]), plus, minus

    def alpha_kernels(self, tol: Tolerance) -> tuple[Subspace, Subspace]:
        """``ker alpha`` and ``ker alpha*`` of the supercharge block, in W's coordinates.

        The block ``alpha`` maps ``W & Gamma+`` to ``W & Gamma-``; on L it
        is the at most c x c matrix ``B-* (q B)+``. q vanishes on W-perp,
        so on C^n each kernel adds that side of W-perp to its lift.
        """
        plus, minus = self.sides
        alpha = self.lift(minus.basis).conj().T @ self.q @ plus.basis
        return tuple(_span(side.basis @ kernel_basis(a, tol).basis)
                     for side, a in zip(self.sides, (alpha, alpha.conj().T)))


def _certificate_bound(pair: ChiralPair) -> float:
    """Largest certificate residual with which the report runs on L."""
    return pair.tol.structural * pair.dim


def _walk_subspace(pair: ChiralPair, gamma_plus: Subspace, gamma_minus: Subspace,
                   dec: CoisometryDecomposition, eff: EigenspaceCensus,
                   outside_svd=_outside_svd) -> _Walk:
    """W = L = ran d* + Gamma ran d* when certified and small, else the whole space.

    L's part in Gamma+- has the rank ``r+- = dim Gamma+- - dim(Gamma+- & C-)``
    that the effective census decided and is ``G+- ran(G+-* d*)`` for the
    grading's eigenbases ``G+-``, so the leading r+- left singular vectors
    of ``G+-* d*`` give L's basis ``B = [B+ | B-]``; for a side held by its
    complement ``G-perp``, those of ``d* - G-perp (G-perp* d*)``, factorized
    by ``outside_svd``, which the report shares with the census. d* is the
    basis the census intersected, the coin's eigenspace that the coisometry
    chose. On L, ``S B`` comes from ``U B`` and ``U* B``, with S as in
    :class:`_Walk`.
    L is used when ``4c <= n``, when, to within ``tol.structural * n``,
    ``U B = B (B* U B)`` and ``S = (S B) B*``, and when ``B* U B`` is
    unitary to within the ``tol.structural`` that :func:`eig_unitary`
    demands, so U's eigensolve on L does not measure it again; otherwise
    W is the whole space, with the dense factorizations and the n x n
    ``S = (U - U*)/(2 unit)`` formed from ``pair.u``, which a factored
    pair refuses beyond ``chiral.DENSE_MAX_DIM``. The last certificate
    matters for a pair whose unitarity error is coherent:
    :func:`make_pair` bounds ``U* U - 1`` entrywise, and a compression of
    it can be n times larger.
    """
    n, tol = pair.dim, pair.tol
    if 4 * dec.coin_space_dim <= n:
        d_star = pair.ops.spaces("coin", tol)[int(dec.flipped)].basis
        ranks = (gamma_plus.dim - eff.M_minus, gamma_minus.dim - eff.M_plus)
        b = np.hstack([
            outside_svd(d_star, g.complement)[0][:, :r]
            if g.by_complement else
            g.basis @ np.linalg.svd(g.basis.conj().T @ d_star, full_matrices=False)[0][:, :r]
            for g, r in zip((gamma_plus, gamma_minus), ranks)])
        unit, ops = _unit(pair), pair.ops
        graded = ops.graded_products(b)
        ub, uhb = graded[:2]
        sb = (ub - uhb) / (2.0 * unit)
        u_w = b.conj().T @ ub
        bound = _certificate_bound(pair)
        # The census cannot leave L more directions on a side of the grading
        # than G+-* d* has singular vectors; if it does, L is not used.
        if not (b.shape[1] < sum(ranks) or _maxabs(ub - b @ u_w) > bound
                or ops.outside(sb, b, unit) > bound
                or unitarity_residual(u_w) > tol.structural):
            eye, r = np.eye(b.shape[1]), ranks[0]
            sides = (Subspace(len(eye), eye[:, :r], complement=eye[:, r:]),
                     Subspace(len(eye), eye[:, r:], complement=eye[:, :r]))
            return _Walk(b, u_w, sb, sides, (eff.M_minus, eff.M_plus),
                         _commutation_residuals(pair, sb, graded))
    u = pair.u
    s = (u - u.conj().T) / (2.0 * _unit(pair))
    return _Walk(None, u, s, (gamma_plus, gamma_minus), (0, 0),
                 _commutation_residuals(pair, s))


def _commutation_residuals(pair: ChiralPair, q: np.ndarray,
                           graded: tuple[np.ndarray, ...] = ()) -> tuple[float, float]:
    """Largest entries of ``Gamma S + S Gamma`` and ``Gamma r - r Gamma`` on W, r = (U + U*)/2.

    S is q up to a unit scalar, so the first is q's anticommutator. On L,
    with basis B, ``q`` is ``S B`` and ``graded`` holds ``U B``, ``U* B``,
    ``U Gamma B`` and ``U* Gamma B``: r B comes from the first two, and
    the products of S and r with ``Gamma B`` from the last two, so neither
    is formed. On the whole space ``graded`` is empty and ``q`` is S.
    """
    if not graded:
        g, u = pair.gamma, pair.u
        r = (u + u.conj().T) / 2.0
        return _maxabs(g @ q + q @ g), _maxabs(g @ r - r @ g)
    ops = pair.ops
    ub, uhb, ug, uhg = graded
    anti = ops.gamma(q)
    anti += (ug - uhg) / (2.0 * _unit(pair))
    commute = ops.gamma((ub + uhb) / 2.0)
    commute -= (ug + uhg) / 2.0
    return _maxabs(anti), _maxabs(commute)


def _discriminant_census(pair: ChiralPair, gamma_plus: Subspace, gamma_minus: Subspace,
                         outside_svd=_outside_svd):
    """Coisometry, census and discriminant eigensystem from one eigensolve each.

    Returns the coisometry decomposition, the census of the supplied
    pair and of the effective one (flipped with the coin), the
    discriminant's eigenvalues, and the lifts ``d* ker(T - 1)`` and
    ``d* ker(T + 1)`` and the rest of its spectrum. The effective census
    says how many of T's eigenvalues sit at +-1: its principal-angle
    sines are linear in an eigenvalue's angle from +-1, as ``|lambda -+ 1|``
    is for U, while ``1 -+ t`` is quadratic in it. The kernels are T's own
    top ``m+`` and bottom ``m-`` eigenvectors, so their lift onto the
    inherited spaces still compares two factorizations. The intersections
    factorize ``(1 - P) B`` by ``outside_svd``.
    """
    tol = pair.tol
    coin_plus, coin_minus = pair.ops.spaces("coin", tol)
    dec = _coisometry(pair, coin_plus, coin_minus)
    counts = EigenspaceCensus(*(_intersection(g, c, tol, outside_svd) for g, c in (
        (gamma_plus, coin_plus), (gamma_minus, coin_plus),
        (gamma_minus, coin_minus), (gamma_plus, coin_minus))))
    # T's Hermiticity is a check of the report, so its eigensolve does not
    # raise on it.
    w_t, v_t = _eigh(_real_if_exact(dec.discriminant))
    # Negating the coin swaps its eigenspaces, so inherited and birth
    # spaces trade places across the grading signs.
    eff = EigenspaceCensus(counts.birth_minus, counts.birth_plus, counts.inherited_minus,
                           counts.inherited_plus) if dec.flipped else counts
    top = w_t.size - eff.m_plus
    # Contiguous copies: a product with a strided view of the columns can
    # take another BLAS path and round differently.
    lift = dec.d.conj().T
    return dec, counts, eff, w_t, (lift @ _real_if_exact(v_t[:, top:].copy()),
                                   lift @ _real_if_exact(v_t[:, :eff.m_minus].copy()),
                                   w_t[eff.m_minus:top])


def _span_check(name: str, pair: ChiralPair, span_pairs) -> CheckResult:
    """Each pair of subspaces must coincide to within ``tol.structural * dim``."""
    ok, worst = True, 0.0
    for a, b in span_pairs:
        same, residual = spans_match(a, b)
        ok = ok and same and residual <= pair.tol.structural * pair.dim
        worst = max(worst, residual)
    return CheckResult(name, ok, worst)


def _span(v: np.ndarray) -> Subspace:
    """The span of ``v``'s columns, held contiguous, and real when exactly real.

    A product with a strided basis can take another BLAS path and round
    differently, so the basis is copied when it is a view.
    """
    return Subspace(len(v), np.ascontiguousarray(_real_if_exact(v)))


def _sum(n: int, parts) -> Subspace:
    """The orthogonal sum of ``parts``, its basis stacked into a fresh contiguous array."""
    return Subspace(n, np.hstack([np.empty((n, 0))] + [p.basis for p in parts]))


def _formula(counts: EigenspaceCensus) -> int:
    return (counts.M_minus - counts.m_minus) - (counts.M_plus - counts.m_plus)


def _mean(values: np.ndarray):
    """``np.mean`` of a cluster; of one value, the value itself.

    ``np.mean`` sums from zero, so a lone -0.0 (or a complex value's
    -0.0 part) comes back as 0.0; adding zero does the same.
    """
    return values[0] + 0.0 if len(values) == 1 else np.mean(values)


def cluster_reals(values, gap: float) -> tuple[tuple[float, int], ...]:
    """Group sorted real values whose consecutive gap is at most ``gap``."""
    vals = np.sort(np.asarray(values, dtype=float))
    return tuple(
        (float(_mean(vals[start:stop])), stop - start)
        for start, stop in _cluster_slices(vals, gap)
    )


def cluster_unimodular(values, gap: float) -> tuple[tuple[complex, int], ...]:
    """Group unit-circle values by argument, merging across the branch cut.

    Representatives are cluster means renormalized to modulus one, and
    the result is sorted by principal argument in (-pi, pi].
    """
    vals = np.asarray(values, dtype=complex)
    if vals.size == 0:
        return ()
    vals = vals[_principal_order(vals)]
    # hypot rounds as scalar abs() does, so each <= gap decision is the
    # one a value-by-value comparison makes; a NaN distance breaks.
    steps = vals[1:] - vals[:-1]
    groups = [vals[start:stop] for start, stop in
              _runs(~(np.hypot(steps.real, steps.imag) <= gap), len(vals))]
    if len(groups) > 1 and abs(complex(groups[0][0]) - complex(groups[-1][-1])) <= gap:
        groups[0] = np.concatenate([groups.pop(), groups[0]])

    def normalized_mean(g: np.ndarray) -> complex:
        rep = complex(_mean(g))
        mag = abs(rep)
        return rep / mag if mag > 0 else rep

    out = [(normalized_mean(g), len(g)) for g in groups]
    return tuple(out[k] for k in _principal_order([z for z, _ in out]))


def build_index_report(pair: ChiralPair) -> IndexReport:
    """Assemble spectra, census, all four index routes, and every check.

    Never raises for a pair that :func:`make_pair` accepts: failing checks
    are recorded with their residuals. A discriminant eigenvalue beyond
    +-1 is judged by ``discriminant_contraction`` and clamped to +-1 for
    the spectral mapping. Use :func:`verify_spectral_mapping` to turn
    failures into :class:`InconsistencyDetected`.
    """
    tol = pair.tol
    n = pair.dim
    checks: list[CheckResult] = []
    warnings: list[str] = []

    gamma_plus, gamma_minus = pair.ops.spaces("gamma", tol)
    # The census and the walk subspace share each principal-angle factorization.
    outside_svd = _OutsideSVDs()
    dec, counts, eff_counts, w_t, (lift_t_plus, lift_t_minus, interior_t) = \
        _discriminant_census(pair, gamma_plus, gamma_minus, outside_svd)
    walk = _walk_subspace(pair, gamma_plus, gamma_minus, dec, eff_counts, outside_svd)
    del outside_svd  # its n x k factors are not read again
    # U's eigenvalues on W, then those on W-perp: there U is -Gamma for
    # the effective coin, so W-perp & Gamma-+ sits at +1 and W-perp &
    # Gamma+- at -1, the order swapping when the coin was flipped. On L
    # the walk's certificate has measured B* U B's unitarity, and on the
    # whole space make_pair has measured U's; only a U that the pair's
    # operators formed unchecked is checked here.
    measured = walk.basis is not None or pair.ops.unitarity_measured
    u_values, u_vectors = (_eig_unitary if measured else eig_unitary)(walk.u, tol)
    out_plus, out_minus = walk.outside if dec.flipped else walk.outside[::-1]
    w_dim = u_values.size
    u_values = np.concatenate([u_values, np.ones(out_plus), -np.ones(out_minus)])
    at_plus = _near_unit(u_values, 1.0, tol.rank)
    at_minus = _near_unit(u_values, -1.0, tol.rank)
    # ker(U -+ 1) & W, lifted; ker(U -+ 1) adds that sign's part of W-perp.
    ker_u_plus, ker_u_minus = (_span(walk.lift(u_vectors[:, at[:w_dim]]))
                               for at in (at_plus, at_minus))
    interior_u = u_values[~(at_plus | at_minus)]

    # Coisometry identities. The effective coin is recovered as 2 d* d - 1.
    res = _maxabs(dec.d @ dec.d.conj().T - np.eye(dec.coin_space_dim))
    checks.append(CheckResult("coisometry_rows_orthonormal", res <= tol.structural, res))
    res = pair.ops.coin_recovery(dec.d, dec.flipped)
    checks.append(CheckResult("coisometry_recovers_coin", res <= tol.structural * n, res))
    res = _maxabs(dec.discriminant - dec.discriminant.conj().T)
    # T = d Gamma d* is a compression: a coherent error of Gamma's entries
    # adds up to n times larger in T's.
    checks.append(CheckResult("discriminant_hermitian", res <= tol.structural * n, res))

    norm_t = float(np.max(np.abs(w_t))) if w_t.size else 0.0
    res = max(0.0, norm_t - 1.0)
    # The compression has |T|_2 <= |Gamma|_2, and |Gamma|_2^2 <= 1 + n r for
    # Gamma's unitarity residual r <= tol.structural (nu in
    # chiral._derived_bounds), so |T|_2 - 1 <= n tol.structural / 2 + rounding.
    checks.append(CheckResult("discriminant_contraction", res <= tol.structural * n, res))

    # Commutation structure of the supercharge and its Hermitian partner,
    # on W: on W-perp q vanishes and U is -+Gamma, by the certificates and
    # the coin identity above.
    anti, commute = walk.commutation
    checks.append(CheckResult("supercharge_anticommutes", anti <= tol.structural * n, anti))
    checks.append(CheckResult("hermitian_part_commutes", commute <= tol.structural * n, commute))

    # Kernel identities tying the supercharge to the evolution; ker(1 - U^2)
    # is read from U's eigenvalues, since 1 - U^2 is normal. The SVD of q
    # also gives the spectrum of H = q*q and, split by the grading, its
    # kernel. W-perp lies in both kernels, so they are compared on W.
    ker_q_w, sigma_q, ker_q_plus, ker_q_minus = walk.supercharge_kernel(tol)
    ker_q_dim = ker_q_w.dim + n - w_dim
    ker_u_squared = Subspace(
        w_dim, _real_if_exact(u_vectors[:, _near_unit(u_values**2, 1.0, tol.rank)[:w_dim]]))
    checks.append(_span_check(
        "supercharge_kernel_matches_squared_evolution", pair, ((ker_q_w, ker_u_squared),)))

    # The kernels of alpha and of q on each side of the grading, and the
    # unit eigenspaces, each add the same part of W-perp on both sides of
    # their span checks, so each check compares the parts in W only.
    ker_alpha, ker_alpha_star = walk.alpha_kernels(tol)
    checks.append(_span_check("alpha_kernel_graded_intersection", pair, (
        (ker_alpha, ker_q_plus), (ker_alpha_star, ker_q_minus))))

    # Discriminant eigenspace lifts (flip aware).
    checks.append(_span_check("inherited_spaces_lift", pair, (
        (Subspace(n, lift_t_plus), eff_counts.inherited_plus),
        (Subspace(n, lift_t_minus), eff_counts.inherited_minus))))

    # ker(U -+ 1) splits into orthogonal inherited and birth parts. On L
    # the part in L-perp, the effective census's birth space, is left out:
    # the supplied coin's birth space, or its inherited one when flipped.
    on_l = walk.basis is not None
    inside = slice(int(dec.flipped), int(dec.flipped) + 1) if on_l else slice(None)
    sources = ((counts.inherited_plus, counts.birth_plus, ker_u_plus),
               (counts.inherited_minus, counts.birth_minus, ker_u_minus))
    split = _span_check("unit_eigenspace_split", pair, [
        (_sum(n, (inherited, birth)[inside]), eigenspace)
        for inherited, birth, eigenspace in sources])
    cross = max(_overlap(inherited, birth) for inherited, birth, _ in sources)
    checks.append(CheckResult("unit_eigenspace_split",
                              split.passed and cross <= tol.structural * n,
                              max(split.residual, cross)))

    # Kernel of the supercharge block: discriminant lift plus birth space,
    # which on L is L-perp's part and is left out.
    checks.append(_span_check("alpha_kernel_decomposition", pair, [
        (_span(walk.lift(kernel.basis)), _sum(n, (Subspace(n, lift_t), birth)[:1 if on_l else 2]))
        for kernel, lift_t, birth in ((ker_alpha, lift_t_plus, eff_counts.birth_minus),
                                      (ker_alpha_star, lift_t_minus, eff_counts.birth_plus))]))

    # Spectra.
    w_h = sigma_q[::-1] ** 2
    spectrum_u = cluster_unimodular(u_values, tol.cluster)
    spectrum_t = cluster_reals(w_t, tol.cluster)
    spectrum_h = cluster_reals(w_h, tol.cluster)

    # Multiplicities at +-1 must match the census.
    unit_plus, unit_minus = int(at_plus.sum()), int(at_minus.sum())
    res = float(abs(unit_plus - counts.m_plus - counts.M_plus)
                + abs(unit_minus - counts.m_minus - counts.M_minus))
    checks.append(CheckResult("unit_eigenvalue_counts", res == 0.0, res))

    # Spectral mapping away from +-1, with multiplicity bookkeeping. The
    # flip negates U, which only swaps which of +-1 a value sits at.
    if dec.flipped:
        interior_u = -interior_u

    observed = cluster_unimodular(interior_u, tol.cluster)
    predicted: list[tuple[complex, int]] = []
    for t, mult in cluster_reals(interior_t, tol.cluster):
        upper, lower = _preimages(t)
        predicted.append((upper, mult))
        predicted.append((lower, mult))
    predicted = [predicted[k] for k in _principal_order([z for z, _ in predicted])]
    mapping_residual = 0.0
    if len(observed) != len(predicted):
        # the sorted lists cannot be aligned; fall back to the two-sided
        # worst nearest-neighbour distance (2, the circle diameter, when
        # one side is empty)
        mapping_residual = 2.0
        if observed and predicted:
            mapping_residual = max(
                max(min(abs(lam - p) for p, _ in predicted) for lam, _ in observed),
                max(min(abs(p - lam) for lam, _ in observed) for p, _ in predicted),
            )
        checks.append(CheckResult(
            "spectral_mapping_multiplicities", False, mapping_residual,
            "cluster count mismatch between evolution and discriminant"))
    else:
        ok = True
        for (lam, mu), (pred, mt) in zip(observed, predicted):
            mapping_residual = max(mapping_residual, abs(lam - pred))
            ok = ok and mu == mt
        ok = ok and mapping_residual <= tol.cluster
        checks.append(CheckResult(
            "spectral_mapping_multiplicities", ok, mapping_residual))

    # Squared supercharge spectrum: doubled 1 - t^2 plus a zero block,
    # which is ker q under the cutoff that decided it.
    nonzero_h = w_h[ker_q_dim:]
    expected_zero = unit_plus + unit_minus
    expected_nonzero = np.sort(np.concatenate([1.0 - interior_t**2] * 2)) \
        if interior_t.size else np.empty(0)
    if ker_q_dim != expected_zero or len(nonzero_h) != len(expected_nonzero):
        checks.append(CheckResult(
            "squared_supercharge_spectrum", False,
            float(abs(ker_q_dim - expected_zero)
                  + abs(len(nonzero_h) - len(expected_nonzero))),
            "zero-block or doubled-spectrum size mismatch"))
    else:
        res = _maxabs(nonzero_h - expected_nonzero) if nonzero_h.size else 0.0
        checks.append(CheckResult(
            "squared_supercharge_spectrum", res <= tol.cluster, res))

    # The four index routes.
    shift = walk.outside[0] - walk.outside[1]
    ia = ker_alpha.dim - ker_alpha_star.dim + shift
    iw = ker_q_plus.dim - ker_q_minus.dim + shift
    ifm = _formula(counts)
    sig = gamma_plus.dim - gamma_minus.dim
    routes = (ia, iw, ifm, sig)
    res = float(max(routes) - min(routes))
    checks.append(CheckResult("index_routes_agree", res == 0.0, res))

    # Projection-pair route: P1 - P2 = (Gamma -+ C)/2 for P1 = Gamma+ and
    # P2 = C+-. It shares d* with the census but takes the eigenvalues of
    # the differences (compressed to ran d* + Gamma ran d* when d* is
    # narrow), not principal-angle sines: a factorization of its own, so
    # it cross-checks the census rather than repeating it.
    pp = _coin_pair_index(pair, dec.d.conj().T, -1.0 if dec.flipped else 1.0, dec.gamma_lift)
    checks.append(CheckResult(
        "projection_pair_identity", pp == ia, float(abs(pp - ia))))

    # Unit eigenvalue count bounds the index magnitude.
    total_unit = unit_plus + unit_minus
    checks.append(CheckResult(
        "eigenvalue_count_lower_bound", total_unit >= abs(ia),
        float(max(0, abs(ia) - total_unit))))

    # Strict contraction: no inherited eigenvalues, index from birth counts.
    if norm_t < 1.0 - tol.cluster:
        res = float(eff_counts.m_plus + eff_counts.m_minus
                    + abs(ia - eff_counts.M_minus + eff_counts.M_plus))
        checks.append(CheckResult("small_discriminant_norm_case", res == 0.0, res))

    # Balanced grading forces index zero.
    if sig == 0:
        checks.append(CheckResult(
            "balanced_grading_zero_index", ia == 0, float(abs(ia))))

    # Flag near-degenerate cluster separations; these make multiplicity
    # bookkeeping tolerance-sensitive without being errors themselves.
    for label, reps in (
        ("discriminant", [v for v, _ in spectrum_t]),
        ("evolution", [v for v, _ in spectrum_u]),
    ):
        if len(reps) > 1:
            gaps = [abs(reps[i + 1] - reps[i]) for i in range(len(reps) - 1)]
            if label == "evolution":
                gaps.append(abs(reps[0] - reps[-1]))
            smallest = min(gaps)
            if smallest < 10.0 * tol.cluster:
                warnings.append(
                    f"{label} clusters separated by only {smallest:.3e}; "
                    f"multiplicities may be tolerance-sensitive")

    consistent = all(c.passed for c in checks)

    return IndexReport(
        dim=n,
        index_alpha=ia,
        index_witten=iw,
        index_formula=ifm,
        gamma_signature=sig,
        census=counts,
        spectrum_u=spectrum_u,
        spectrum_t=spectrum_t,
        spectrum_h=spectrum_h,
        mapping_residual=mapping_residual,
        consistent=consistent,
        flipped=dec.flipped,
        checks=tuple(checks),
        warnings=tuple(warnings),
    )


def verify_spectral_mapping(pair: ChiralPair) -> IndexReport:
    """Build the index report and insist every structural check passed.

    Raises :class:`InconsistencyDetected` naming the first failed check
    and carrying the full report; a failure signals a tolerance problem
    or an invalid input, never a silent pass.
    """
    report = build_index_report(pair)
    for check in report.checks:
        if not check.passed:
            raise InconsistencyDetected(check.name, check.residual, report=report)
    return report
