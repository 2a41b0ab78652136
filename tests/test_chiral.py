"""Tests for chiral pair validation, the supercharge, and index routes."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwalk.chiral import (
    _derived_bounds,
    _projection_pair_index,
    index_alpha,
    make_pair,
)
from chiralwalk.errors import (
    ChiralSymmetryViolated,
    ChiralWalkError,
    DimensionMismatch,
    InconsistencyDetected,
    NotInvolution,
    NotUnitary,
)
from chiralwalk.linalg import (
    DEFAULT_TOL,
    Subspace,
    _identity_residual,
    _maxabs,
    _rank_svd,
    kernel_basis,
    spans_match,
    subspace_intersection,
)
from chiralwalk.models import grover_search, toy_four_dim, toy_two_dim
from chiralwalk.selfcheck import haar_unitary, random_chiral_pair, random_involution
from chiralwalk.spectral import build_index_report
from oracles import alpha, grading_bases, supercharge


def phase_swap(angle):
    return np.array([[0.0, np.exp(1j * angle)], [np.exp(-1j * angle), 0.0]])


def hadamard_grading_and_skewed_coin():
    """Gamma = H_64 / 8 and a coin 7e-10 from Hermitian.

    The pair (Gamma C, Gamma) is chiral to 8.75e-11, inside the default
    structural bound, while C fails the bound by a factor of seven.
    """
    h = np.ones((1, 1))
    for _ in range(6):
        h = np.block([[h, h], [h, -h]])
    phi = np.arcsin(3.5e-10)
    coin = np.diag(np.concatenate([[np.exp(1j * phi)], np.ones(31), -np.ones(32)]))
    return h / 8.0, coin


def hadamard_grading_skewed_by(delta, n=64):
    """Gamma = H_n / sqrt(n) with +-delta added to one off-diagonal pair.

    The grading's Hermiticity residual is 2 delta. With the coin
    2 Q Q^T - 1 through a random n/2-dim real subspace, the pair
    (Gamma C, Gamma) is unitary, involutive and chiral to well inside the
    default structural bound for delta = 0.75e-10.
    """
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    gamma = h / np.sqrt(n)
    gamma[0, 1] += delta
    gamma[1, 0] -= delta
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    coin = 2.0 * q[:, :n // 2] @ q[:, :n // 2].T - np.eye(n)
    return gamma, coin


class TestMakePair:
    def test_two_dim_phase_pair(self):
        beta, gamma_phase = 0.4, 1.1
        c = gamma_phase - beta
        u = np.diag([np.exp(1j * beta), np.exp(-1j * beta)])
        pair = make_pair(u, phase_swap(gamma_phase))
        assert np.max(np.abs(pair.coin - phase_swap(c))) < 1e-12

    def test_identity_pair(self):
        pair = make_pair(np.eye(3), np.eye(3))
        assert np.array_equal(pair.coin, np.eye(3))

    def test_commuting_grading_violates_chirality(self):
        # the grading commutes with this evolution, so conjugation gives
        # back the evolution itself, not its adjoint
        u = np.diag([np.exp(1j * np.pi / 4)] * 2)
        with pytest.raises(ChiralSymmetryViolated) as excinfo:
            make_pair(u, np.diag([1.0, -1.0]))
        assert excinfo.value.residual == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_rejects_non_unitary_evolution(self):
        with pytest.raises(NotUnitary):
            make_pair(np.diag([2.0, 1.0]), np.eye(2))

    def test_rejects_non_involutory_grading(self):
        with pytest.raises(NotInvolution):
            make_pair(np.eye(2), np.diag([1j, -1j]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_pair(np.eye(2), np.eye(3))

    def test_rejects_coin_beyond_hermitian_bound(self):
        # Every report eigendecomposes the coin as Hermitian at the
        # structural bound, so the pair must be refused up front.
        gamma, coin = hadamard_grading_and_skewed_coin()
        with pytest.raises(NotInvolution,
                           match="coin is not Hermitian: residual 7.0+e-10 exceeds 1.0+e-10"):
            make_pair(gamma @ coin, gamma)

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_rejects_grading_beyond_hermitian_bound(self, n):
        # Every report eigendecomposes the grading as Hermitian at the
        # structural bound, so a grading that fails it must be refused up
        # front, not by an unnamed error from inside the report.
        gamma, coin = hadamard_grading_skewed_by(0.75e-10, n)
        with pytest.raises(NotInvolution, match="grading is not Hermitian: "
                           "residual 1.50+e-10 exceeds 1.0+e-10"):
            make_pair(gamma @ coin, gamma)

    def test_grading_inside_hermitian_bound_gets_a_report(self):
        gamma, coin = hadamard_grading_skewed_by(0.25e-10)
        report = build_index_report(make_pair(gamma @ coin, gamma))
        assert report.index_alpha == report.index_witten == 0

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_inputs_are_never_mutated(self, real):
        # Every residual is taken in place from a fresh product, so the
        # arrays passed in are left as they were, also when refused.
        rng = np.random.default_rng(5)
        n = 6
        dtype = np.float64 if real else np.complex128
        if real:
            def orthogonal():
                return np.linalg.qr(rng.standard_normal((n, n)))[0]

            def involution():
                basis = orthogonal()[:, :3]
                return 2.0 * basis @ basis.T - np.eye(n)

            skewed = hadamard_grading_skewed_by(0.75e-10)
        else:
            def orthogonal():
                return haar_unitary(rng, n)

            def involution():
                return random_involution(rng, n)

            skewed = hadamard_grading_and_skewed_coin()
        gamma = involution()
        cases = [
            (gamma @ involution(), gamma, None, None),
            (gamma @ involution() * 1.1, gamma, NotUnitary, "evolution is not unitary"),
            (involution(), gamma * 1.1, NotInvolution, "grading is not unitary"),
            (involution(), orthogonal(), NotInvolution, "grading does not square to one"),
            (orthogonal(), gamma, ChiralSymmetryViolated, None),
            (skewed[0] @ skewed[1], skewed[0], NotInvolution, "is not Hermitian"),
            (np.eye(n, dtype=dtype), np.eye(n + 1, dtype=dtype), DimensionMismatch, None),
        ]
        for u, g, error, match in cases:
            assert u.dtype == dtype
            u_copy, g_copy = u.copy(), g.copy()
            if error is None:
                make_pair(u, g)
            else:
                with pytest.raises(error, match=match):
                    make_pair(u, g)
            assert u.tobytes() == u_copy.tobytes() and g.tobytes() == g_copy.tobytes()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_identity_residual_rounds_as_subtracting_the_identity(self, real):
        rng = np.random.default_rng(9)
        for n in (1, 2, 5, 16, 33):
            for m in (rng.standard_normal((n, n)) if real else haar_unitary(rng, n),
                      np.linalg.qr(rng.standard_normal((n, n)))[0]):
                for p in (m.conj().T @ m, m @ m):
                    expected = p - np.eye(n)
                    got = p.copy()
                    assert _identity_residual(got) == _maxabs(expected)
                    assert got.tobytes() == expected.tobytes()


def _outcome(error: ChiralWalkError | None):
    return None if error is None else (type(error), getattr(error, "check", None))


def _reference_make_pair_outcome(u, gamma, tol):
    """make_pair's outcome with all eight n x n products formed.

    None when the pair is accepted, else the error class and, for a
    failed derived identity, its name.
    """
    u, g = np.asarray(u, dtype=complex), np.asarray(gamma, dtype=complex)
    if not (u.imag.any() or g.imag.any()):
        u, g = np.ascontiguousarray(u.real), np.ascontiguousarray(g.real)
    scale = tol.structural * len(u)
    coin = g @ u
    checks = [
        (_identity_residual(u.conj().T @ u), tol.structural, NotUnitary("")),
        (_identity_residual(g.conj().T @ g), tol.structural, NotInvolution("")),
        (_identity_residual(g @ g), tol.structural, NotInvolution("")),
        (_maxabs(coin @ g - u.conj().T), tol.structural, ChiralSymmetryViolated(0.0, 0.0)),
        (_identity_residual(coin @ coin), scale, InconsistencyDetected("coin involution", 0.0)),
        (_identity_residual(coin.conj().T @ coin), scale,
         InconsistencyDetected("coin unitarity", 0.0)),
        (_maxabs(u - g @ coin), scale, InconsistencyDetected("product recovery", 0.0)),
        (_maxabs(coin - coin.conj().T), tol.structural, NotInvolution("")),
        (_maxabs(g - g.conj().T), tol.structural, NotInvolution("")),
    ]
    return _outcome(next((error for residual, bound, error in checks if residual > bound), None))


def _make_pair_outcome(u, gamma):
    try:
        make_pair(u, gamma)
    except ChiralWalkError as error:
        return _outcome(error)
    return None


def _drawn_involution(rng, dim, real):
    """A reflection through a random subspace, real orthogonal or Haar unitary."""
    if not real:
        return random_involution(rng, dim)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :rng.integers(0, dim + 1)]
    return 2.0 * basis @ basis.T - np.eye(dim)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       real=st.booleans(),
       target=st.sampled_from(["evolution", "grading", "coin", "none"]),
       coherent=st.booleans(),
       factor=st.floats(min_value=0.5, max_value=2.0))
def test_make_pair_outcome_matches_all_eight_products(dim, seed, real, target, coherent,
                                                      factor):
    # The coin's involution and unitarity and the recovery of u are
    # formed only where their derived bounds exceed tol.structural * n,
    # which takes residuals near the tolerance at a small dimension. A
    # pair perturbed to within a factor of 2 of tol.structural must be
    # accepted or refused, and with the same error, as when all eight are
    # formed.
    rng = np.random.default_rng(seed)
    gamma, coin = _drawn_involution(rng, dim, real), _drawn_involution(rng, dim, real)
    noise = np.ones((dim, dim)) if coherent else rng.uniform(-1.0, 1.0, (dim, dim))
    if not real:
        noise = noise * np.exp(2j * np.pi * rng.uniform(size=(dim, dim)))
    noise *= factor * DEFAULT_TOL.structural / (2.0 * np.max(np.abs(noise)))
    if target == "coin":
        coin = coin + noise
    elif target == "grading":
        gamma = gamma + noise
    u = gamma @ coin + (noise if target == "evolution" else 0.0)
    assert _make_pair_outcome(u, gamma) == _reference_make_pair_outcome(u, gamma, DEFAULT_TOL)


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(min_value=1, max_value=64),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       real=st.booleans(),
       target=st.sampled_from(["skew grading", "commuting skew grading", "chirality"]),
       coherent=st.booleans(),
       exponent=st.floats(min_value=-2.5, max_value=0.5))
def test_make_pair_outcome_matches_all_eight_products_near_the_square_and_chirality(
        dim, seed, real, target, coherent, exponent):
    # g @ g and the chirality product are formed only where their derived
    # bounds, which grow with sqrt(n), exceed tol.structural. A grading
    # moved by a skew-Hermitian S = N - N* (or by S + G S G, which commutes
    # with it, so that only its square sees the move), or an evolution
    # moved by a unitary factor that breaks only chirality, is scaled so
    # that the moved residual, of G^2 - 1 or of C G - U*, is
    # 10**exponent * tol.structural. It must be accepted or refused, and
    # with the same error, as when all eight products are formed.
    rng = np.random.default_rng(seed)
    gamma, coin = _drawn_involution(rng, dim, real), _drawn_involution(rng, dim, real)
    if coherent:
        noise = np.triu(np.ones((dim, dim)), 1)
        if not real:
            noise = noise * np.exp(2j * np.pi * rng.uniform())
    else:
        noise = rng.uniform(-1.0, 1.0, (dim, dim))
        if not real:
            noise = noise * np.exp(2j * np.pi * rng.uniform(size=(dim, dim)))
    skew = noise - noise.conj().T
    if target == "commuting skew grading":
        skew = skew + gamma @ skew @ gamma
    eye = np.eye(dim)

    def moved(scale):
        if target == "chirality":
            # The Cayley transform of a skew-Hermitian matrix is unitary.
            factor = np.linalg.solve(eye - scale * skew / 2.0, eye + scale * skew / 2.0)
            return gamma @ coin @ factor, gamma
        return gamma @ coin, gamma + scale * skew

    def residual(u, g):
        if target == "chirality":
            return _maxabs(g @ u @ g - u.conj().T)
        return _identity_residual(g @ g)

    # The moved residual is linear in a small scale. Some moves leave it
    # at zero (a rotation times a 2 x 2 reflection is a reflection).
    scale = 0.0
    if (peak := np.max(np.abs(skew))) > 0.0:
        scale = DEFAULT_TOL.structural / peak
        if (unscaled := residual(*moved(scale))) > 0.0:
            scale *= 10.0**exponent * DEFAULT_TOL.structural / unscaled
    u, gamma = moved(scale)
    assert _make_pair_outcome(u, gamma) == _reference_make_pair_outcome(u, gamma, DEFAULT_TOL)


def test_derived_bounds_keep_the_products_of_tiny_pairs_near_the_tolerance():
    # Arguments r_u, r_g, h_g, h_c, r_2, chirality; bounds in the order
    # g @ g, chirality, coin involution, coin unitarity, product recovery.
    tol = DEFAULT_TOL.structural
    near = [0.9 * tol] * 6
    for n in (1, 2, 3):
        square, chirality, involution, unitarity, _ = _derived_bounds(n, *near)
        assert square > tol and chirality > tol
        assert unitarity > tol * n and (involution > tol * n) == (n < 3)
    assert _derived_bounds(1, *[tol] * 6)[4] > tol
    # A Hermiticity residual just past tol.structural / sqrt(n) alone makes
    # the grading's square and the chirality product be formed.
    for n in (1, 16, 64):
        assert _derived_bounds(n, 0.0, 0.0, 1.01 * tol / n**0.5, 0.0)[0] > tol
        assert _derived_bounds(n, 0.0, 0.0, 0.0, 1.01 * tol / n**0.5)[1] > tol
    tiny = _derived_bounds(256, *[1e-15] * 6)
    assert all(bound < 1e-1 * tol for bound in tiny[:2])
    assert all(bound < 1e-2 * tol * 256 for bound in tiny[2:])
    # Where g @ g and the chirality product are not formed, their bounds
    # stand in for their residuals in the last three.
    residuals = (64, 1e-13, 2e-13, 3e-13, 4e-13)
    square, chirality = _derived_bounds(*residuals)[:2]
    assert _derived_bounds(*residuals)[2:] == _derived_bounds(*residuals, square, chirality)[2:]
    # The chirality bound's rounding term alone reaches tol.structural at
    # n = 4096, and not at n = 2048.
    assert _derived_bounds(2048, *[0.0] * 4)[1] <= tol < _derived_bounds(4096, *[0.0] * 4)[1]
    assert _derived_bounds(8192, *[0.0] * 4)[0] < 1e-1 * tol


@pytest.mark.parametrize("qubits", range(1, 9))
def test_search_pairs_form_three_products(qubits):
    # make_pair measures u* u, g* g and both Hermiticity residuals, and
    # forms the coin g @ u. For the dense matrices of a search pair every
    # derived bound then settles its check, so none of the other five
    # products is formed.
    tol = DEFAULT_TOL.structural
    for target in sorted({0, 1, 2**qubits - 1}):
        search = grover_search(qubits, target)
        pair = make_pair(search.u, search.gamma)
        u, g, coin = pair.u, pair.gamma, pair.coin
        n = pair.dim
        bounds = _derived_bounds(n, _identity_residual(u.T @ u), _identity_residual(g.T @ g),
                                 _maxabs(g - g.T), _maxabs(coin - coin.T))
        assert max(bounds[:2]) <= tol
        assert max(bounds[2:]) <= tol * n


def _n_by_n_products(monkeypatch):
    """Record the shapes of the factors of every product make_pair writes with np.matmul."""
    shapes = []

    def recorded(a, b, *args, _fn=np.matmul, **kwargs):
        shapes.append((np.shape(a), np.shape(b)))
        return _fn(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    return shapes


def _square_products(shapes, n):
    """How many of the recorded products have two n x n factors."""
    return sum(a == b == (n, n) for a, b in shapes)


def test_small_and_wide_pairs_measure_their_products(monkeypatch):
    # At every dimension, with narrow or wide sides, make_pair forms three
    # n x n products, u* u, g* g and the coin g @ u, and measures both
    # Hermiticity residuals; for these pairs, the dense matrices of search
    # pairs among them, every derived bound settles its check, so none of
    # the other five products is formed.
    rng = np.random.default_rng(3)
    pairs = []
    for n, g_plus, c_plus in ((32, 2, 1), (64, 32, 1), (64, 2, 32), (64, 32, 32), (64, 2, 1)):
        gamma = random_involution(rng, n, g_plus)
        pairs.append((gamma @ random_involution(rng, n, c_plus), gamma))
    for qubits in (5, 8):
        search = grover_search(qubits, 3)
        pairs.append((search.u, search.gamma))
    for u, gamma in pairs:
        shapes = _n_by_n_products(monkeypatch)
        make_pair(u, gamma)
        monkeypatch.undo()
        assert _square_products(shapes, len(u)) == 3


def _narrow_drawn_involution(rng, dim, side, real):
    """A reflection through a random subspace whose +1 side (or -1, side < 0) has |side| dims."""
    plus = side if side > 0 else dim + side
    if not real:
        return random_involution(rng, dim, plus)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :plus]
    return 2.0 * basis @ basis.T - np.eye(dim)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=64, max_value=256),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       real=st.booleans(),
       share=st.tuples(st.floats(min_value=0.0, max_value=1.0),
                       st.floats(min_value=0.0, max_value=1.0)),
       flips=st.tuples(st.booleans(), st.booleans()),
       target=st.sampled_from(["skew grading", "non-unitary grading", "skew coin",
                               "non-unitary coin", "evolution",
                               "non-unitary grading under a kept coin"]),
       coherent=st.booleans(),
       exponent=st.floats(min_value=-2.5, max_value=0.5))
def test_make_pair_outcome_matches_all_eight_products_on_narrow_sides(
        dim, seed, real, share, flips, target, coherent, exponent):
    # A grading and a coin with narrow sides, at dimensions 64 to 256. The
    # grading is moved by a skew-Hermitian or a Hermitian matrix (the
    # latter breaks its unitarity), the coin likewise, or the evolution
    # by an arbitrary one, scaled so that the moved residual is
    # 10**exponent * tol.structural. A non-unitary grading under a kept
    # coin (U = G^-1 C) moves u* u through the grading alone. The pair
    # must be accepted or refused, and with the same error, as when all
    # eight products are formed.
    rng = np.random.default_rng(seed)
    gamma, coin = (_narrow_drawn_involution(
        rng, dim, (1 + int(s * (dim // 4 - 1))) * (-1 if flip else 1), real)
        for s, flip in zip(share, flips))
    noise = (np.triu(np.ones((dim, dim)), 1) if coherent
             else rng.uniform(-1.0, 1.0, (dim, dim)))
    if not real:
        noise = noise * np.exp(2j * np.pi * rng.uniform(size=(dim, dim)))
    if target.startswith("skew"):
        noise = noise - noise.conj().T
    elif target.startswith("non-unitary"):
        noise = noise + noise.conj().T

    def moved(scale):
        g = gamma + scale * noise if "grading" in target else gamma
        if target.endswith("kept coin"):
            return np.linalg.solve(g, coin), g
        c = coin + scale * noise if target.endswith("coin") else coin
        return g @ c + (scale * noise if target == "evolution" else 0.0), g

    def residual(u, g):
        if target == "skew grading":
            return _maxabs(g - g.conj().T)
        if "non-unitary grading" in target:
            return _identity_residual(g.conj().T @ g)
        if target == "skew coin":
            c = g @ u
            return _maxabs(c - c.conj().T)
        return _identity_residual(u.conj().T @ u)

    scale = DEFAULT_TOL.structural / np.max(np.abs(noise))
    if (unscaled := residual(*moved(scale))) > 0.0:
        scale *= 10.0**exponent * DEFAULT_TOL.structural / unscaled
    u, g = moved(scale)
    assert _make_pair_outcome(u, g) == _reference_make_pair_outcome(u, g, DEFAULT_TOL)


class TestSuperchargeOnReport:
    def test_toy_two_dim_squared_supercharge_spectrum(self):
        # q = diag(sin beta, -sin beta), so H = q^2 is sin^2 beta twice
        beta = 0.8
        report = build_index_report(toy_two_dim(beta, 1.3))
        assert [m for _, m in report.spectrum_h] == [2]
        assert report.spectrum_h[0][0] == pytest.approx(np.sin(beta) ** 2, abs=1e-12)

    def test_evolution_equal_to_grading_has_zero_squared_supercharge(self):
        gamma = phase_swap(0.2)
        report = build_index_report(make_pair(gamma, gamma))  # coin is the identity
        assert [m for _, m in report.spectrum_h] == [2]
        assert abs(report.spectrum_h[0][0]) < 1e-12

    def test_squared_supercharge_spectrum_bounded(self):
        report = build_index_report(random_chiral_pair(np.random.default_rng(17), 8))
        assert sum(m for _, m in report.spectrum_h) == 8
        assert all(-1e-12 <= w <= 1.0 + 1e-12 for w, _ in report.spectrum_h)

    def test_commutation_structure(self):
        report = build_index_report(random_chiral_pair(np.random.default_rng(23), 10))
        checks = {c.name: c for c in report.checks}
        for name in ("supercharge_anticommutes", "hermitian_part_commutes"):
            assert checks[name].passed and checks[name].residual < 1e-10 * 10

    def test_identity_grading_has_empty_minus_block(self):
        # alpha has shape ((n - signature)/2, (n + signature)/2) = (0, 4)
        assert build_index_report(make_pair(np.eye(4), np.eye(4))).gamma_signature == 4

    def test_swap_grading_gives_one_by_one_block(self):
        pair = make_pair(phase_swap(0.0) @ phase_swap(0.9), phase_swap(0.0))
        assert build_index_report(pair).gamma_signature == 0

    def test_four_dim_block_shape(self):
        # a (3, 1) block
        assert build_index_report(toy_four_dim(2)).gamma_signature == -2


class TestIndexRoutes:
    @pytest.mark.parametrize("variant,expected", [(1, -4), (3, 0), (5, 4)])
    def test_four_dim_index(self, variant, expected):
        assert index_alpha(toy_four_dim(variant)) == expected

    def test_witten_index_trivial_grading(self):
        # coin equals the evolution, which is an involution here
        pair = toy_four_dim(5)
        assert build_index_report(pair).index_witten == 4

    def test_witten_index_evolution_equal_to_grading(self):
        gamma = np.diag([1.0, 1.0, -1.0])
        pair = make_pair(gamma, gamma)
        assert build_index_report(pair).index_witten == 2 - 1

    def test_two_dim_swap_index_zero(self):
        assert build_index_report(toy_two_dim(0.7, 1.9)).index_witten == 0

    def test_routes_agree_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for dim in (2, 5, 9, 16):
            pair = random_chiral_pair(rng, dim)
            ia = index_alpha(pair)
            report = build_index_report(pair)
            assert report.index_witten == report.gamma_signature == ia

    def test_signature_closed_form_against_nullity_oracle(self):
        # independent oracle: rank-nullity on the supercharge block
        rng = np.random.default_rng(47)
        for dim in (3, 8, 17, 32):
            pair = random_chiral_pair(rng, dim)
            block = alpha(pair)
            d_minus, d_plus = block.shape
            rank = np.linalg.matrix_rank(block, tol=1e-10)
            oracle = (d_plus - rank) - (d_minus - rank)
            assert index_alpha(pair) == oracle == d_plus - d_minus

    @pytest.mark.parametrize("factor,rank", [(0.5, 2), (2.0, 3)])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_ranks_from_singular_values_match_kernel_bases(self, factor, rank, real):
        # Rotations through angles with sines 1, 0.6 and a planted sine,
        # each graded by diag(1, -1), give alpha those singular values;
        # an extra direction with U = Gamma = 1 adds a zero column. The
        # planted sine sits at `factor` times the rank cutoff, which is
        # tol.rank times the largest singular value, 1.
        sines = (1.0, 0.6, factor * 1e-8)
        n = 2 * len(sines) + 1
        u, gamma = np.eye(n), np.eye(n)
        for k, s in enumerate(sines):
            c = np.sqrt(1.0 - s * s)
            u[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
            gamma[2 * k + 1, 2 * k + 1] = -1.0
        rng = np.random.default_rng(13)
        w = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else haar_unitary(rng, n)
        pair = make_pair(w @ u @ w.conj().T, w @ gamma @ w.conj().T)
        assert (pair.u.dtype == np.float64) == real
        a = alpha(pair)
        assert a.shape == (3, 4)
        for block in (a, a.conj().T):
            assert _rank_svd(block, pair.tol, vectors=False)[0] == rank
            assert kernel_basis(block, pair.tol).dim == block.shape[1] - rank
        kernel_route = kernel_basis(a).dim - kernel_basis(a.conj().T).dim
        assert index_alpha(pair) == kernel_route == 1


class TestProjectionPairIndex:
    def test_equal_projections(self):
        p = np.diag([1.0, 0.0, 0.0])
        assert _projection_pair_index(p - p, DEFAULT_TOL) == 0

    def test_identity_versus_zero(self):
        n = 4
        assert _projection_pair_index(np.eye(n) - np.zeros((n, n)), DEFAULT_TOL) == n

    def test_search_pair_identity(self):
        pair = grover_search(2, 3)
        eye = np.eye(pair.dim)
        gamma_plus = (eye + pair.gamma) / 2
        total = (_projection_pair_index(gamma_plus - (eye + pair.coin) / 2, pair.tol)
                 + _projection_pair_index(gamma_plus - (eye - pair.coin) / 2, pair.tol))
        assert total == index_alpha(pair) == -4


class TestKernelIdentities:
    def test_supercharge_kernel_is_squared_evolution_kernel(self):
        rng = np.random.default_rng(13)
        for dim in (4, 7, 12):
            pair = random_chiral_pair(rng, dim)
            ker_q = kernel_basis(supercharge(pair))
            ker_u2 = kernel_basis(np.eye(dim) - pair.u @ pair.u)
            same, residual = spans_match(ker_q, ker_u2)
            assert same and residual < 1e-8

    def test_alpha_kernels_are_graded_supercharge_kernels(self):
        rng = np.random.default_rng(29)
        for dim in (4, 9, 14):
            pair = random_chiral_pair(rng, dim)
            a = alpha(pair)
            ker_q = kernel_basis(supercharge(pair))
            for block, grading_space in zip((a, a.conj().T),
                                            (Subspace(dim, b) for b in grading_bases(pair))):
                lifted = grading_space.basis @ kernel_basis(block).basis
                expected = subspace_intersection(ker_q, grading_space)
                assert lifted.shape[1] == expected.dim
                b = expected.basis
                residual = np.max(np.abs(lifted - b @ (b.conj().T @ lifted))) \
                    if lifted.size else 0.0
                assert residual < 1e-8


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(min_value=2, max_value=12),
       seed=st.integers(min_value=0, max_value=10**6))
def test_index_routes_and_anticommutation_property(dim, seed):
    pair = random_chiral_pair(np.random.default_rng(seed), dim)
    ia = index_alpha(pair)
    report = build_index_report(pair)
    assert report.index_witten == report.gamma_signature == ia
    q, r = supercharge(pair), (pair.u + pair.u.conj().T) / 2
    assert np.max(np.abs(pair.gamma @ q + q @ pair.gamma)) <= 1e-10 * dim
    assert np.max(np.abs(pair.gamma @ r - r @ pair.gamma)) <= 1e-10 * dim


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(min_value=2, max_value=10),
       seed=st.integers(min_value=0, max_value=10**6))
def test_index_sign_flip_property(dim, seed):
    pair = random_chiral_pair(np.random.default_rng(seed), dim)
    ia = index_alpha(pair)
    assert index_alpha(make_pair(-pair.u, pair.gamma)) == ia
    assert index_alpha(make_pair(pair.u, -pair.gamma)) == -ia
    assert index_alpha(make_pair(pair.u.conj().T, pair.gamma)) == ia


class TestIndexInvariances:
    def test_sign_flips(self):
        rng = np.random.default_rng(37)
        for dim in (3, 6, 11):
            pair = random_chiral_pair(rng, dim)
            ia = index_alpha(pair)
            assert index_alpha(make_pair(-pair.u, pair.gamma)) == ia
            assert index_alpha(make_pair(pair.u, -pair.gamma)) == -ia

    def test_inverse_invariance(self):
        rng = np.random.default_rng(41)
        for dim in (2, 8, 13):
            pair = random_chiral_pair(rng, dim)
            assert index_alpha(make_pair(pair.u.conj().T, pair.gamma)) == index_alpha(pair)

    def test_conjugation_invariance(self):
        from chiralwalk.selfcheck import haar_unitary

        rng = np.random.default_rng(43)
        for dim in (3, 7, 10):
            pair = random_chiral_pair(rng, dim)
            v = haar_unitary(rng, dim)
            moved = make_pair(v @ pair.u @ v.conj().T, v @ pair.gamma @ v.conj().T)
            assert index_alpha(moved) == index_alpha(pair)

    def test_unit_eigenvalue_count_bounds_index(self):
        rng = np.random.default_rng(53)
        for dim in (2, 6, 12, 20):
            pair = random_chiral_pair(rng, dim)
            eye = np.eye(dim)
            count = kernel_basis(pair.u - eye).dim + kernel_basis(pair.u + eye).dim
            assert count >= abs(index_alpha(pair))


@pytest.mark.parametrize("module", ["chiralwalk", "chiralwalk.chiral", "chiralwalk.linalg",
                                    "chiralwalk.spectral", "chiralwalk.errors"])
def test_deleted_names_stay_out_of_the_public_surface(module):
    # The supercharge block is computed inside the index routes alone, a
    # pair's kind is known only to its operators, and the eigensolvers run
    # only on matrices make_pair has validated.
    deleted = {"graded_decomposition", "super_operators", "GradedDecomposition",
               "SuperOperators", "hermiticity_residual", "spectral_image",
               "_Dense", "_check_dense", "_operators", "_eigenspaces", "_supercharge",
               "eig_hermitian", "eig_unitary", "NotHermitian"}
    assert deleted.isdisjoint(vars(importlib.import_module(module)))
