"""Discriminant-based spectral analysis and the index report.

The coin of a chiral pair factors through a coisometry onto the coin's
+1 eigenspace. Compressing the grading by that coisometry yields the
discriminant, a Hermitian contraction whose spectrum determines the
evolution's spectrum away from +-1 through the Joukowski map. Eigenvalues
of the evolution at +-1 split into inherited ones (lifted from the
discriminant's +-1 eigenvalues) and birth ones (invisible to the
discriminant). Counting the four sources gives the index formula, and
everything here cross-checks the different routes against each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .chiral import (
    ChiralPair,
    _super_operators,
    graded_decomposition,
    make_pair,
    projection_pair_index,
)
from .errors import InconsistencyDetected, OutOfRange
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    _cluster_slices,
    _involution_eigenspaces,
    _maxabs,
    _near_unit,
    _real_if_exact,
    eig_hermitian,
    eig_unitary,
    kernel_basis,
    spans_match,
    subspace_intersection,
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


def joukowski(z: complex) -> complex:
    """Average of a number and its reciprocal; maps the unit circle to [-1, 1]."""
    z = complex(z)
    return (z + 1.0 / z) / 2.0


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


def flipped_pair(pair: ChiralPair) -> ChiralPair:
    """The pair with negated evolution; same grading, negated coin."""
    return make_pair(-pair.u, pair.gamma, pair.tol)


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


def _unit_split(values: np.ndarray, vectors: np.ndarray, tol: Tolerance):
    """ker(A - 1), ker(A + 1) and the other eigenvalues of a normal operator.

    Bases whose entries are all exactly real are returned as float64.
    """
    at_plus = _near_unit(values, 1.0, tol.rank)
    at_minus = _near_unit(values, -1.0, tol.rank)
    n = vectors.shape[0]
    return (Subspace(n, _real_if_exact(vectors[:, at_plus])),
            Subspace(n, _real_if_exact(vectors[:, at_minus])),
            values[~(at_plus | at_minus)])


def _discriminant_census(pair: ChiralPair, gamma_plus: Subspace, gamma_minus: Subspace):
    """Coisometry, census and discriminant eigensystem from one eigensolve each.

    Returns the coisometry decomposition, the census of the supplied
    pair, the discriminant's eigenvalues, and ``ker(T - 1)``,
    ``ker(T + 1)`` and the rest of its spectrum as split by
    :func:`_unit_split`.
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
    return dec, counts, w_t, _unit_split(w_t, v_t, tol)


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


def _lift_check(pair: ChiralPair, dec: CoisometryDecomposition,
                counts: EigenspaceCensus, ker_t_plus: Subspace,
                ker_t_minus: Subspace) -> CheckResult:
    """Inherited spaces must be the coisometry lifts of ker(T -+ 1)."""
    eff = _flip_census(counts) if dec.flipped else counts
    lift = dec.d.conj().T
    return _span_check("inherited_spaces_lift", pair, (
        (Subspace(pair.dim, lift @ ker_t_plus.basis), eff.inherited_plus),
        (Subspace(pair.dim, lift @ ker_t_minus.basis), eff.inherited_minus),
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
    dec, counts, _, (ker_t_plus, ker_t_minus, _) = _discriminant_census(
        pair, *_involution_eigenspaces(pair.gamma, pair.tol))
    check = _lift_check(pair, dec, counts, ker_t_plus, ker_t_minus)
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

    graded = graded_decomposition(pair)
    ops = _super_operators(pair, graded)
    dec, counts, w_t, (ker_t_plus, ker_t_minus, interior_t) = _discriminant_census(
        pair, graded.plus_basis, graded.minus_basis)
    eff_counts = _flip_census(counts) if dec.flipped else counts
    u_values, u_vectors = eig_unitary(pair.u, tol)
    ker_u_plus, ker_u_minus, interior_u = _unit_split(u_values, u_vectors, tol)

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

    # Commutation structure of the supercharge and its Hermitian partner.
    g = pair.gamma
    res = _maxabs(g @ ops.q + ops.q @ g)
    checks.append(CheckResult("supercharge_anticommutes", res <= tol.structural * n, res))
    res = _maxabs(g @ ops.r - ops.r @ g)
    checks.append(CheckResult("hermitian_part_commutes", res <= tol.structural * n, res))

    # Kernel identities tying the supercharge to the evolution; ker(1 - U^2)
    # is read from U's eigenvalues, since 1 - U^2 is normal.
    ker_q = kernel_basis(ops.q, tol)
    ker_u_squared = Subspace(
        n, _real_if_exact(u_vectors[:, _near_unit(u_values**2, 1.0, tol.rank)]))
    checks.append(_span_check(
        "supercharge_kernel_matches_squared_evolution", pair, ((ker_q, ker_u_squared),)))

    ker_alpha = kernel_basis(graded.alpha, tol)
    ker_alpha_star = kernel_basis(graded.alpha.conj().T, tol)
    lifted_ker_alpha = Subspace(n, graded.plus_basis.basis @ ker_alpha.basis)
    lifted_ker_alpha_star = Subspace(n, graded.minus_basis.basis @ ker_alpha_star.basis)
    checks.append(_span_check("alpha_kernel_graded_intersection", pair, (
        (lifted_ker_alpha, subspace_intersection(ker_q, graded.plus_basis, tol)),
        (lifted_ker_alpha_star, subspace_intersection(ker_q, graded.minus_basis, tol)),
    )))

    # Discriminant eigenspace lifts (flip aware).
    checks.append(_lift_check(pair, dec, counts, ker_t_plus, ker_t_minus))

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
    lift = dec.d.conj().T
    checks.append(_span_check("alpha_kernel_decomposition", pair, (
        (lifted_ker_alpha,
         Subspace(n, np.hstack([lift @ ker_t_plus.basis, eff_counts.birth_minus.basis]))),
        (lifted_ker_alpha_star,
         Subspace(n, np.hstack([lift @ ker_t_minus.basis, eff_counts.birth_plus.basis]))),
    )))

    # Spectra.
    w_h, _ = eig_hermitian(ops.h, tol)
    spectrum_u = cluster_unimodular(u_values, tol.cluster)
    spectrum_t = cluster_reals(w_t, tol.cluster)
    spectrum_h = cluster_reals(w_h, tol.cluster)

    # Multiplicities at +-1 must match the census.
    ok = (
        ker_u_plus.dim == counts.m_plus + counts.M_plus
        and ker_u_minus.dim == counts.m_minus + counts.M_minus
    )
    res = float(
        abs(ker_u_plus.dim - counts.m_plus - counts.M_plus)
        + abs(ker_u_minus.dim - counts.m_minus - counts.M_minus)
    )
    checks.append(CheckResult("unit_eigenvalue_counts", ok, res))

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
        elif not observed and not predicted:
            mapping_residual = 0.0
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

    # Squared supercharge spectrum: doubled 1 - t^2 plus a zero block.
    zero_h = _near_unit(w_h, 0.0, tol.rank)
    nonzero_h = np.sort(w_h[~zero_h])
    expected_zero = ker_u_plus.dim + ker_u_minus.dim
    expected_nonzero = np.sort(np.concatenate([1.0 - interior_t**2] * 2)) \
        if interior_t.size else np.empty(0)
    if int(zero_h.sum()) != expected_zero or len(nonzero_h) != len(expected_nonzero):
        checks.append(CheckResult(
            "squared_supercharge_spectrum", False,
            float(abs(int(zero_h.sum()) - expected_zero)
                  + abs(len(nonzero_h) - len(expected_nonzero))),
            "zero-block or doubled-spectrum size mismatch"))
    else:
        res = _maxabs(nonzero_h - expected_nonzero) if nonzero_h.size else 0.0
        checks.append(CheckResult(
            "squared_supercharge_spectrum", res <= tol.cluster, res))

    # The four index routes.
    ia = ker_alpha.dim - ker_alpha_star.dim
    iw = kernel_basis(ops.h_plus, tol).dim - kernel_basis(ops.h_minus, tol).dim
    ifm = _formula(counts)
    sig = graded.plus_basis.dim - graded.minus_basis.dim
    routes = (ia, iw, ifm, sig)
    res = float(max(routes) - min(routes))
    checks.append(CheckResult("index_routes_agree", res == 0.0, res))

    # Projection-pair route.
    gamma_plus = (eye + pair.gamma) / 2.0
    coin_plus = (eye + pair.coin) / 2.0
    coin_minus = (eye - pair.coin) / 2.0
    pp = (projection_pair_index(gamma_plus, coin_plus, tol)
          + projection_pair_index(gamma_plus, coin_minus, tol))
    checks.append(CheckResult(
        "projection_pair_identity", pp == ia, float(abs(pp - ia))))

    # Unit eigenvalue count bounds the index magnitude.
    total_unit = ker_u_plus.dim + ker_u_minus.dim
    checks.append(CheckResult(
        "eigenvalue_count_lower_bound", total_unit >= abs(ia),
        float(max(0, abs(ia) - total_unit))))

    # Strict contraction: no inherited eigenvalues, index from birth counts.
    if norm_t < 1.0 - tol.cluster:
        ok = (eff_counts.m_plus == 0 and eff_counts.m_minus == 0
              and ia == eff_counts.M_minus - eff_counts.M_plus)
        res = float(eff_counts.m_plus + eff_counts.m_minus
                    + abs(ia - eff_counts.M_minus + eff_counts.M_plus))
        checks.append(CheckResult("small_discriminant_norm_case", ok, res))

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

    consistent = max(routes) == min(routes) and mapping_residual <= tol.cluster

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
