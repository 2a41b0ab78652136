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
``n x dim L`` matrix ``q B``; L-perp adds the eigenvalues +-1 on
``L-perp & Gamma-+`` and a zero block of q. L-perp is ``C- & Gamma C-``
for the effective coin, so ``L-perp & Gamma+-`` are the effective
census's birth spaces, and L's rank on each side of the grading comes
from the census. Two certificates, ``|U B - B (B* U B)|`` and
``|q - (q B) B*|``, must lie within ``tol.structural * n``, and a third,
the unitarity residual of ``B* U B``, within ``tol.structural``. When
one fails, or when 4c > n, the report runs on W = C^n instead, where the
same code makes the dense factorizations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chiral import ChiralPair, _projection_pair_index, _supercharge
from .errors import InconsistencyDetected, OutOfRange
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _cluster_slices,
    _involution_eigenspaces,
    _kernel_svd,
    _maxabs,
    _near_unit,
    _real_if_exact,
    eig_hermitian,
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
    is a Hermitian contraction either way.
    """

    d: np.ndarray
    flipped: bool
    discriminant: np.ndarray

    @property
    def coin_space_dim(self) -> int:
        return int(self.d.shape[0])


@dataclass(frozen=True)
class EigenspaceCensus:
    """The four sources of +-1 eigenvalues of the evolution.

    Inherited spaces intersect the grading's +-1 eigenspaces with the
    coin's +1 eigenspace; birth spaces intersect the opposite grading
    eigenspaces with the coin's -1 eigenspace. ``m_plus``/``m_minus`` and
    ``M_plus``/``M_minus`` are their dimensions.
    """

    m_plus: int
    m_minus: int
    M_plus: int
    M_minus: int
    inherited_plus: Subspace
    inherited_minus: Subspace
    birth_plus: Subspace
    birth_minus: Subspace


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


def spectral_image(xs, tol: Tolerance = DEFAULT_TOL) -> list[tuple[complex, complex]]:
    """Unit-circle preimages (upper branch, lower branch) of each value.

    Values are clamped to [-1, 1]; anything farther outside than
    ``tol.cluster`` raises :class:`OutOfRange` since it signals a broken
    discriminant rather than roundoff.
    """
    out = []
    for x in xs:
        x = float(x)
        if abs(x) > 1.0 + tol.cluster:
            raise OutOfRange(f"value {x!r} lies outside [-1, 1] beyond tolerance")
        x = min(1.0, max(-1.0, x))
        theta = math.acos(x)
        out.append((cmath.exp(1j * theta), cmath.exp(-1j * theta)))
    return out


def coisometry(pair: ChiralPair) -> CoisometryDecomposition:
    """Factor the coin through a coisometry and compress the grading.

    Chooses the smaller nonempty coin eigenspace as the coin space: the
    +1 eigenspace by default, the -1 eigenspace (recorded in ``flipped``)
    when the +1 eigenspace is empty or strictly larger. The flip leaves
    the index unchanged because negating the evolution does.
    """
    return _coisometry(pair, *_involution_eigenspaces(pair.coin, pair.tol))


def _coisometry(pair: ChiralPair, coin_plus: Subspace,
                coin_minus: Subspace) -> CoisometryDecomposition:
    flipped = coin_plus.dim == 0 or 0 < coin_minus.dim < coin_plus.dim
    d = (coin_minus if flipped else coin_plus).basis.conj().T
    t = d @ pair.gamma @ d.conj().T
    return CoisometryDecomposition(d=d, flipped=flipped, discriminant=t)


@dataclass(frozen=True)
class _Walk:
    """The subspace W on which the report computes U's and q's spectra.

    ``basis`` is an orthonormal basis ``B`` of W, or None when W is the
    whole space. ``u`` is ``B* U B`` and ``q`` is ``q B``. ``sides`` holds
    ``W & Gamma+`` and ``W & Gamma-`` in W's coordinates: the grading's
    eigenspaces on the whole space, and on L the leading and trailing
    columns of the identity, since ``B = [B+ | B-]``. ``outside`` holds
    ``W-perp & Gamma+`` and ``W-perp & Gamma-``, on which U is ``-Gamma``
    for the effective coin: on L the effective census's birth spaces,
    and empty when W is the whole space.
    """

    basis: np.ndarray | None
    u: np.ndarray
    q: np.ndarray
    sides: tuple[Subspace, Subspace]
    outside: tuple[Subspace, Subspace]

    def lift(self, v: np.ndarray) -> np.ndarray:
        return v if self.basis is None else self.basis @ v

    def restrict(self, m: np.ndarray) -> np.ndarray:
        """``m B``: the columns of ``m`` that act on W."""
        return m if self.basis is None else m @ self.basis

    def span(self, inner: np.ndarray, outer: Subspace, inner_rest: np.ndarray | None,
             outer_rest: Subspace) -> Subspace:
        """The lift of ``inner``'s columns plus ``outer``, a part of W-perp.

        Its complement is the lift of ``inner_rest`` plus ``outer_rest``.
        On a proper W the subspace carries that complement when it is
        narrower than the basis, so :func:`spans_match` compares through
        it; on the whole space only the dense basis is kept and
        ``inner_rest`` is not read.
        """
        n = outer.ambient_dim
        basis = _real_if_exact(np.hstack([self.lift(inner), outer.basis]))
        if self.basis is None or inner_rest.shape[1] + outer_rest.dim >= basis.shape[1]:
            return Subspace(n, basis)
        return Subspace(n, basis, complement=_real_if_exact(
            np.hstack([self.lift(inner_rest), outer_rest.basis])))

    def supercharge_kernel(self, tol: Tolerance,
                           ) -> tuple[Subspace, np.ndarray, Subspace, Subspace]:
        """``ker q`` on W, the singular values of ``q`` and ``ker q & Gamma+-``.

        On a proper W, ``ker q = W-perp + B ker(q B)``, the singular
        values of q on W-perp are zeros, and each ``ker q & Gamma+-`` is
        the lift of ``ker(q B) & (W & Gamma+-)``, intersected in W's
        coordinates, plus ``W-perp & Gamma+-``. The kernel returned first
        is ``ker(q B)``, in W's coordinates. On the whole space it is
        ``ker q`` itself, W-perp is empty and no zeros are added.
        """
        ker_w, sigma = _kernel_svd(self.q, tol)
        n = self.q.shape[0]
        plus, minus = (
            Subspace(n, np.hstack([self.lift(subspace_intersection(ker_w, side, tol).basis),
                                   out.basis]))
            for side, out in zip(self.sides, self.outside))
        return ker_w, np.concatenate([sigma, np.zeros(n - sigma.size)]), plus, minus

    def alpha_kernels(self, tol: Tolerance) -> tuple[Subspace, Subspace]:
        """``ker alpha`` and ``ker alpha*`` of the supercharge block, in C^n.

        The block ``alpha`` maps ``W & Gamma+`` to ``W & Gamma-``; on L it
        is the at most c x c matrix ``B-* (q B)+``. q vanishes on W-perp,
        so each kernel is the lift of the block's kernel plus that side of
        W-perp. On a proper W its complement is the lift of the kernel's
        SVD complement and of W's other side, plus W-perp's other side.
        """
        plus, minus = self.sides
        alpha = self.lift(minus.basis).conj().T @ self.q @ plus.basis
        kernels = kernel_basis(alpha, tol), kernel_basis(alpha.conj().T, tol)
        return tuple(
            self.span(side.basis @ ker.basis, outer,
                      None if self.basis is None
                      else np.hstack([side.basis @ ker.complement, side.complement]), rest)
            for side, ker, outer, rest in zip(self.sides, kernels, self.outside,
                                              self.outside[::-1]))


def _certificate_bound(pair: ChiralPair) -> float:
    """Largest certificate residual with which the report runs on L."""
    return pair.tol.structural * pair.dim


def _walk_subspace(pair: ChiralPair, gamma_plus: Subspace, gamma_minus: Subspace,
                   dec: CoisometryDecomposition, eff: EigenspaceCensus,
                   q: np.ndarray) -> _Walk:
    """W = L = ran d* + Gamma ran d* when certified and small, else the whole space.

    U maps L to itself, and on L-perp the effective coin is -1, so U is
    -Gamma there for the effective coin and q vanishes (Szegedy's busy
    subspace). As ``L-perp = C- & Gamma C-`` for the effective coin,
    ``L-perp & Gamma+-`` are the effective census's birth spaces
    ``Gamma+- & C-``, and L's part in Gamma+- has the rank
    ``r+- = dim Gamma+- - dim(Gamma+- & C-)`` that the census decided.
    With ``G+-`` the grading's eigenbases, that part is
    ``G+- ran(G+-* d*)``, so the leading r+- left singular vectors of the
    ``k+- x c`` matrices ``G+-* d*`` give L's basis ``B = [B+ | B-]``.
    L is used when ``4c <= n``, when, to within ``tol.structural * n``,
    ``U B = B (B* U B)`` and ``q = (q B) B*``, and when ``B* U B`` is
    unitary to within the ``tol.structural`` that :func:`eig_unitary`
    demands; otherwise W is the whole space and every factorization is
    the dense one. The last certificate matters for a pair whose
    unitarity error is coherent: :func:`make_pair` bounds ``U* U - 1``
    entrywise, and a compression of it can be up to n times larger.
    """
    n, tol = pair.dim, pair.tol
    empty = Subspace(n, np.empty((n, 0)))
    dense = _Walk(None, pair.u, q, (gamma_plus, gamma_minus), (empty, empty))
    if 4 * dec.coin_space_dim > n:
        return dense
    d_star = dec.d.conj().T
    ranks = (gamma_plus.dim - eff.M_minus, gamma_minus.dim - eff.M_plus)
    b = np.hstack([
        g.basis @ np.linalg.svd(g.basis.conj().T @ d_star, full_matrices=False)[0][:, :r]
        for g, r in zip((gamma_plus, gamma_minus), ranks)])
    ub, qb = pair.u @ b, q @ b
    u_w = b.conj().T @ ub
    bound = _certificate_bound(pair)
    # The census cannot leave L more directions on a side of the grading
    # than G+-* d* has singular vectors; if it does, L is not used.
    if (b.shape[1] < sum(ranks) or _maxabs(ub - b @ u_w) > bound
            or _maxabs(q - qb @ b.conj().T) > bound or unitarity_residual(u_w) > tol.structural):
        return dense
    eye, r = np.eye(b.shape[1]), ranks[0]
    sides = (Subspace(len(eye), eye[:, :r], complement=eye[:, r:]),
             Subspace(len(eye), eye[:, r:], complement=eye[:, :r]))
    return _Walk(b, u_w, qb, sides, (eff.birth_minus, eff.birth_plus))


def _discriminant_census(pair: ChiralPair, gamma_plus: Subspace, gamma_minus: Subspace):
    """Coisometry, census and discriminant eigensystem from one eigensolve each.

    Returns the coisometry decomposition, the census of the supplied
    pair and of the effective one (flipped with the coin), the
    discriminant's eigenvalues, and the lifts ``d* ker(T - 1)`` and
    ``d* ker(T + 1)`` and the rest of its spectrum. The effective census
    says how many of T's eigenvalues sit at +-1: its principal-angle
    sines are linear in an eigenvalue's angle from +-1, as ``|lambda -+ 1|``
    is for U, while ``1 -+ t`` is quadratic in it. The kernels are T's own
    top ``m+`` and bottom ``m-`` eigenvectors, so their lift onto the
    inherited spaces still compares two factorizations.
    """
    tol = pair.tol
    coin_plus, coin_minus = _involution_eigenspaces(pair.coin, tol)
    dec = _coisometry(pair, coin_plus, coin_minus)
    inherited_plus = subspace_intersection(gamma_plus, coin_plus, tol)
    inherited_minus = subspace_intersection(gamma_minus, coin_plus, tol)
    birth_plus = subspace_intersection(gamma_minus, coin_minus, tol)
    birth_minus = subspace_intersection(gamma_plus, coin_minus, tol)
    counts = EigenspaceCensus(
        m_plus=inherited_plus.dim,
        m_minus=inherited_minus.dim,
        M_plus=birth_plus.dim,
        M_minus=birth_minus.dim,
        inherited_plus=inherited_plus,
        inherited_minus=inherited_minus,
        birth_plus=birth_plus,
        birth_minus=birth_minus,
    )
    w_t, v_t = eig_hermitian(dec.discriminant, tol)
    eff = _flip_census(counts) if dec.flipped else counts
    top = w_t.size - eff.m_plus
    # Contiguous copies: a product with a strided view of the columns can
    # take another BLAS path and round differently.
    lift = dec.d.conj().T
    return dec, counts, eff, w_t, (lift @ _real_if_exact(v_t[:, top:].copy()),
                                   lift @ _real_if_exact(v_t[:, :eff.m_minus].copy()),
                                   w_t[eff.m_minus:top])


def _flip_census(c: EigenspaceCensus) -> EigenspaceCensus:
    # Negating the coin swaps its eigenspaces, so inherited and birth
    # spaces trade places across the grading signs.
    return EigenspaceCensus(
        m_plus=c.M_minus,
        m_minus=c.M_plus,
        M_plus=c.m_minus,
        M_minus=c.m_plus,
        inherited_plus=c.birth_minus,
        inherited_minus=c.birth_plus,
        birth_plus=c.inherited_minus,
        birth_minus=c.inherited_plus,
    )


def _lift_check(pair: ChiralPair, eff: EigenspaceCensus, lift_t_plus: np.ndarray,
                lift_t_minus: np.ndarray) -> CheckResult:
    """Effective inherited spaces must be the coisometry lifts of ker(T -+ 1)."""
    return _span_check("inherited_spaces_lift", pair, (
        (Subspace(pair.dim, lift_t_plus), eff.inherited_plus),
        (Subspace(pair.dim, lift_t_minus), eff.inherited_minus),
    ))


def _span_check(name: str, pair: ChiralPair, span_pairs) -> CheckResult:
    """Each pair of subspaces must coincide to within ``tol.structural * dim``."""
    ok, worst = True, 0.0
    for a, b in span_pairs:
        same, residual = spans_match(a, b)
        ok = ok and same and residual <= pair.tol.structural * pair.dim
        worst = max(worst, residual)
    return CheckResult(name, ok, worst)


def census(pair: ChiralPair) -> EigenspaceCensus:
    """Count the four +-1 eigenvalue sources of the supplied pair.

    Also verifies that the discriminant's +-1 eigenspaces lift through
    the coisometry onto the matching intersection spaces, raising
    :class:`InconsistencyDetected` if they do not.
    """
    _, counts, eff, _, (lift_t_plus, lift_t_minus, _) = _discriminant_census(
        pair, *_involution_eigenspaces(pair.gamma, pair.tol))
    check = _lift_check(pair, eff, lift_t_plus, lift_t_minus)
    if not check.passed:
        raise InconsistencyDetected(check.name, check.residual)
    return counts


def _formula(counts: EigenspaceCensus) -> int:
    return (counts.M_minus - counts.m_minus) - (counts.M_plus - counts.m_plus)


def index_formula(pair: ChiralPair) -> int:
    """Index from the eigenvalue census: (M- - m-) - (M+ - m+)."""
    return _formula(census(pair))


def cluster_reals(values, gap: float) -> tuple[tuple[float, int], ...]:
    """Group sorted real values whose consecutive gap is at most ``gap``."""
    vals = np.sort(np.asarray(values, dtype=float))
    return tuple(
        (float(np.mean(vals[start:stop])), stop - start)
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
    args = np.angle(vals)
    args[args <= -np.pi + 1e-14] += 2.0 * np.pi
    vals = vals[np.argsort(args, kind="stable")]
    groups: list[list[complex]] = []
    for v in vals:
        if groups and abs(v - groups[-1][-1]) <= gap:
            groups[-1].append(complex(v))
        else:
            groups.append([complex(v)])
    if len(groups) > 1 and abs(groups[0][0] - groups[-1][-1]) <= gap:
        groups[0] = groups.pop() + groups[0]

    def normalized_mean(g: list[complex]) -> complex:
        rep = complex(np.mean(g))
        mag = abs(rep)
        return rep / mag if mag > 0 else rep

    out = [(normalized_mean(g), len(g)) for g in groups]

    def principal_arg(z: complex) -> float:
        a = cmath.phase(z)
        return a + 2.0 * np.pi if a <= -np.pi + 1e-14 else a

    out.sort(key=lambda item: principal_arg(item[0]))
    return tuple(out)


def build_index_report(pair: ChiralPair) -> IndexReport:
    """Assemble spectra, census, all four index routes, and every check.

    Never raises for a valid pair: failing checks are recorded with their
    residuals. Use :func:`verify_spectral_mapping` to turn failures into
    :class:`InconsistencyDetected`.
    """
    tol = pair.tol
    n = pair.dim
    eye = np.eye(n)
    checks: list[CheckResult] = []
    warnings: list[str] = []

    gamma_plus, gamma_minus = _involution_eigenspaces(pair.gamma, tol)
    q = _supercharge(pair)
    dec, counts, eff_counts, w_t, (lift_t_plus, lift_t_minus, interior_t) = \
        _discriminant_census(pair, gamma_plus, gamma_minus)
    walk = _walk_subspace(pair, gamma_plus, gamma_minus, dec, eff_counts, q)
    # U's eigenvalues on W, then those on W-perp: there U is -Gamma for
    # the effective coin, so W-perp & Gamma-+ sits at +1 and W-perp &
    # Gamma+- at -1, the order swapping when the coin was flipped.
    u_values, u_vectors = eig_unitary(walk.u, tol)
    out_plus, out_minus = walk.outside if dec.flipped else walk.outside[::-1]
    w_dim = u_values.size
    u_values = np.concatenate([u_values, np.ones(out_plus.dim), -np.ones(out_minus.dim)])
    at_plus = _near_unit(u_values, 1.0, tol.rank)
    at_minus = _near_unit(u_values, -1.0, tol.rank)
    ker_u_plus = walk.span(u_vectors[:, at_plus[:w_dim]], out_plus,
                           u_vectors[:, ~at_plus[:w_dim]], out_minus)
    ker_u_minus = walk.span(u_vectors[:, at_minus[:w_dim]], out_minus,
                            u_vectors[:, ~at_minus[:w_dim]], out_plus)
    interior_u = u_values[~(at_plus | at_minus)]

    # Coisometry identities.
    coin_eff = -pair.coin if dec.flipped else pair.coin
    res = _maxabs(dec.d @ dec.d.conj().T - np.eye(dec.coin_space_dim))
    checks.append(CheckResult("coisometry_rows_orthonormal", res <= tol.structural, res))
    res = _maxabs(2.0 * dec.d.conj().T @ dec.d - eye - coin_eff)
    checks.append(CheckResult("coisometry_recovers_coin", res <= tol.structural * n, res))
    res = _maxabs(dec.discriminant - dec.discriminant.conj().T)
    checks.append(CheckResult("discriminant_hermitian", res <= tol.structural, res))

    norm_t = float(np.max(np.abs(w_t))) if w_t.size else 0.0
    res = max(0.0, norm_t - 1.0)
    checks.append(CheckResult("discriminant_contraction", res <= tol.structural, res))

    # Commutation structure of the supercharge and its Hermitian partner,
    # on W: on W-perp q vanishes and U is -+Gamma, by the certificates and
    # the coin identity above.
    g = pair.gamma
    g_w = walk.restrict(g)
    res = _maxabs(g @ walk.q + q @ g_w)
    checks.append(CheckResult("supercharge_anticommutes", res <= tol.structural * n, res))
    r = (pair.u + pair.u.conj().T) / 2.0
    res = _maxabs(g @ walk.restrict(r) - r @ g_w)
    checks.append(CheckResult("hermitian_part_commutes", res <= tol.structural * n, res))

    # Kernel identities tying the supercharge to the evolution; ker(1 - U^2)
    # is read from U's eigenvalues, since 1 - U^2 is normal. The SVD of q
    # also gives the spectrum of H = q*q and, split by the grading, its
    # kernel. W-perp lies in both kernels, so they are compared on W.
    ker_q_w, sigma_q, ker_q_plus, ker_q_minus = walk.supercharge_kernel(tol)
    ker_q_dim = ker_q_w.dim + n - w_dim
    ker_u_squared = Subspace(
        w_dim, _real_if_exact(u_vectors[:, _near_unit(u_values**2, 1.0, tol.rank)[:w_dim]]))
    checks.append(_span_check(
        "supercharge_kernel_matches_squared_evolution", pair,
        ((Subspace(w_dim, ker_q_w.basis), ker_u_squared),)))

    ker_alpha, ker_alpha_star = walk.alpha_kernels(tol)
    checks.append(_span_check("alpha_kernel_graded_intersection", pair, (
        (ker_alpha, ker_q_plus), (ker_alpha_star, ker_q_minus))))

    # Discriminant eigenspace lifts (flip aware).
    checks.append(_lift_check(pair, eff_counts, lift_t_plus, lift_t_minus))

    # ker(U -+ 1) splits into orthogonal inherited and birth parts.
    sources = ((counts.inherited_plus, counts.birth_plus, ker_u_plus),
               (counts.inherited_minus, counts.birth_minus, ker_u_minus))
    split = _span_check("unit_eigenspace_split", pair, [
        (Subspace(n, np.hstack([inherited.basis, birth.basis])), eigenspace)
        for inherited, birth, eigenspace in sources])
    cross = max(_maxabs(inherited.basis.conj().T @ birth.basis)
                for inherited, birth, _ in sources)
    checks.append(CheckResult("unit_eigenspace_split",
                              split.passed and cross <= tol.structural * n,
                              max(split.residual, cross)))

    # Kernel of the supercharge block: discriminant lift plus birth space.
    checks.append(_span_check("alpha_kernel_decomposition", pair, (
        (ker_alpha, Subspace(n, np.hstack([lift_t_plus, eff_counts.birth_minus.basis]))),
        (ker_alpha_star, Subspace(n, np.hstack([lift_t_minus, eff_counts.birth_plus.basis]))),
    )))

    # Spectra.
    w_h = sigma_q[::-1] ** 2
    spectrum_u = cluster_unimodular(u_values, tol.cluster)
    spectrum_t = cluster_reals(w_t, tol.cluster)
    spectrum_h = cluster_reals(w_h, tol.cluster)

    # Multiplicities at +-1 must match the census.
    res = float(
        abs(ker_u_plus.dim - counts.m_plus - counts.M_plus)
        + abs(ker_u_minus.dim - counts.m_minus - counts.M_minus)
    )
    checks.append(CheckResult("unit_eigenvalue_counts", res == 0.0, res))

    # Spectral mapping away from +-1, with multiplicity bookkeeping. The
    # flip negates U, which only swaps which of +-1 a value sits at.
    if dec.flipped:
        interior_u = -interior_u

    observed = cluster_unimodular(interior_u, tol.cluster)
    predicted: list[tuple[complex, int]] = []
    for t, mult in cluster_reals(interior_t, tol.cluster):
        upper, lower = spectral_image([t], tol)[0]
        predicted.append((upper, mult))
        predicted.append((lower, mult))
    predicted.sort(key=lambda item: cmath.phase(item[0]))
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
    expected_zero = ker_u_plus.dim + ker_u_minus.dim
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
    ia = ker_alpha.dim - ker_alpha_star.dim
    iw = ker_q_plus.dim - ker_q_minus.dim
    ifm = _formula(counts)
    sig = gamma_plus.dim - gamma_minus.dim
    routes = (ia, iw, ifm, sig)
    res = float(max(routes) - min(routes))
    checks.append(CheckResult("index_routes_agree", res == 0.0, res))

    # Projection-pair route: P1 - P2 = (Gamma -+ C)/2 for P1 = Gamma+ and
    # P2 = C+-, a factorization of its own rather than the census's.
    pp = (_projection_pair_index((pair.gamma - pair.coin) / 2.0, tol)
          + _projection_pair_index((pair.gamma + pair.coin) / 2.0, tol))
    checks.append(CheckResult(
        "projection_pair_identity", pp == ia, float(abs(pp - ia))))

    # Unit eigenvalue count bounds the index magnitude.
    total_unit = ker_u_plus.dim + ker_u_minus.dim
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
