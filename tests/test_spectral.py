"""Tests for the coisometry, discriminant, census, and mapping verification."""

import cmath
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralwalk import linalg, spectral
from chiralwalk.chiral import ChiralPair, Factors, _Stored, index_alpha, make_pair
from chiralwalk.errors import InconsistencyDetected
from chiralwalk.linalg import Tolerance, _eigh, kernel_basis
from chiralwalk.models import (
    Graph,
    SplitStepParams,
    grover_search,
    grover_walk,
    split_step_cycle,
    toy_four_dim,
)
from chiralwalk.selfcheck import (
    haar_unitary,
    random_chiral_pair,
    random_involution,
    transformation_checks,
)
from chiralwalk.spectral import (
    build_index_report,
    cluster_reals,
    cluster_unimodular,
    _preimages,
    coisometry,
    verify_spectral_mapping,
)
from oracles import alpha, supercharge


def phase_swap(angle):
    return np.array([[0.0, np.exp(1j * angle)], [np.exp(-1j * angle), 0.0]])


class TestCoisometry:
    def test_trivial_coin_makes_d_unitary(self):
        gamma = random_involution(np.random.default_rng(2), 5, plus_dim=2)
        pair = make_pair(gamma, gamma)  # coin is the identity
        dec = coisometry(pair)
        assert not dec.flipped
        assert dec.coin_space_dim == 5
        assert np.max(np.abs(dec.d @ dec.d.conj().T - np.eye(5))) < 1e-12
        assert np.max(np.abs(dec.d.conj().T @ dec.d - np.eye(5))) < 1e-12
        # the discriminant is the grading rewritten in the coin basis
        back = dec.d.conj().T @ dec.discriminant @ dec.d
        assert np.max(np.abs(back - gamma)) < 1e-10

    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_search_pair_flips_to_scalar_discriminant(self, qubits):
        n_positions = 2**qubits
        dec = coisometry(grover_search(qubits, n_positions - 1))
        assert dec.flipped
        assert dec.coin_space_dim == 1
        assert dec.discriminant.shape == (1, 1)
        expected = 2.0 / n_positions - 1.0
        assert abs(dec.discriminant[0, 0] - expected) < 1e-12

    def test_negated_identity_coin_triggers_flip(self):
        n = 3
        pair = make_pair(-np.eye(n), np.eye(n))  # coin is minus the identity
        dec = coisometry(pair)
        assert dec.flipped
        assert dec.coin_space_dim == n

    def test_coisometry_identities_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for dim in (2, 5, 9, 14):
            pair = random_chiral_pair(rng, dim)
            dec = coisometry(pair)
            k = dec.coin_space_dim
            assert np.max(np.abs(dec.d @ dec.d.conj().T - np.eye(k))) < 1e-10
            coin_eff = -pair.coin if dec.flipped else pair.coin
            rebuilt = 2.0 * dec.d.conj().T @ dec.d - np.eye(dim)
            assert np.max(np.abs(rebuilt - coin_eff)) < 1e-10
            w = np.linalg.eigvalsh(dec.discriminant)
            assert np.max(np.abs(w)) <= 1.0 + 1e-10


class TestSpectralImage:
    def test_endpoint_one(self):
        upper, lower = _preimages(1.0)
        assert upper == pytest.approx(1.0)
        assert lower == pytest.approx(1.0)

    def test_zero_maps_to_imaginary_units(self):
        upper, lower = _preimages(0.0)
        assert upper == pytest.approx(1j)
        assert lower == pytest.approx(-1j)

    def test_minus_half_maps_to_third_roots(self):
        # arccos(-1/2) = 2 pi / 3
        upper, lower = _preimages(-0.5)
        assert upper == pytest.approx(cmath.exp(2j * np.pi / 3))
        assert lower == pytest.approx(cmath.exp(-2j * np.pi / 3))

    def test_out_of_range(self):
        # Clamped: how far T's spectrum may lie outside [-1, 1] is judged by
        # the discriminant_contraction check alone.
        assert _preimages(1.1) == (1, 1)
        assert _preimages(-1.1) == pytest.approx((-1, -1))

    def test_clamps_just_outside(self):
        upper, _ = _preimages(1.0 + 1e-12)
        assert upper == pytest.approx(1.0)

    def test_round_trip_interior(self):
        xs = np.linspace(-0.99, 0.99, 41)
        for x in xs:
            upper, lower = _preimages(x)
            assert abs((upper + 1 / upper) / 2 - x) < 1e-14
            assert abs((lower + 1 / lower) / 2 - x) < 1e-14

    def test_round_trip_near_endpoints(self):
        # arccos conditioning costs accuracy near +-1
        for x in (1.0 - 1e-12, -1.0 + 1e-12):
            upper, _ = _preimages(x)
            assert abs((upper + 1 / upper) / 2 - x) < 1e-7


def _record_span_checks(monkeypatch):
    """Record every subspace the report passes to ``spans_match``."""
    spans = []

    def recorded(a, b, _fn=spectral.spans_match):
        spans.extend((a, b))
        return _fn(a, b)

    monkeypatch.setattr(spectral, "spans_match", recorded)
    return spans


class TestCensus:
    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_search_pair_census_after_flip(self, qubits):
        n_positions = 2**qubits
        pair = grover_search(qubits, 0)
        counts = build_index_report(make_pair(-pair.u, pair.gamma)).census
        assert (counts.m_plus, counts.m_minus) == (0, 0)
        assert counts.M_minus == 1
        assert counts.M_plus == 2 * n_positions - 3

    def test_four_dim_variant_four(self):
        counts = build_index_report(toy_four_dim(4)).census
        assert (counts.M_plus, counts.M_minus, counts.m_plus, counts.m_minus) == (1, 1, 2, 0)

    def test_identity_pair(self):
        n = 5
        counts = build_index_report(make_pair(np.eye(n), np.eye(n))).census
        assert counts.m_plus == n
        assert counts.m_minus == counts.M_plus == counts.M_minus == 0

    def test_counts_match_space_dimensions(self):
        rng = np.random.default_rng(19)
        counts = build_index_report(random_chiral_pair(rng, 12)).census
        assert counts.m_plus == counts.inherited_plus.dim
        assert counts.m_minus == counts.inherited_minus.dim
        assert counts.M_plus == counts.birth_plus.dim
        assert counts.M_minus == counts.birth_minus.dim

    def test_census_intersects_by_the_one_routine(self, monkeypatch):
        # A q = 7 search report intersects four times in the census and
        # twice for the graded kernels of q, each by subspace_intersection.
        calls = []

        def counted(s1, s2, tol, _fn=spectral.subspace_intersection):
            calls.append(1)
            return _fn(s1, s2, tol)

        monkeypatch.setattr(spectral, "subspace_intersection", counted)
        assert build_index_report(grover_search(7, 3)).consistent
        assert len(calls) == 6


class TestIndexFormula:
    def test_search_two_qubits(self):
        assert build_index_report(grover_search(2, 1)).index_formula == -4

    def test_four_dim_variant_four(self):
        assert build_index_report(toy_four_dim(4)).index_formula == 2

    def test_finite_graph_walk(self):
        pair = grover_walk(Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0))))
        assert build_index_report(pair).index_formula == 0


class TestVerifySpectralMapping:
    def test_search_two_qubits_spectrum(self):
        report = verify_spectral_mapping(grover_search(2, 3))
        assert report.index_alpha == report.index_witten == -4
        assert report.index_formula == report.gamma_signature == -4
        assert report.consistent

        # oracle: direct dense eigensolve, grouped within 1e-8
        oracle = np.linalg.eigvals(grover_search(2, 3).u)
        expected_points = [np.exp(1j * np.arccos(0.5)), np.exp(-1j * np.arccos(0.5)),
                           1.0, -1.0]
        oracle_counts = [int(np.sum(np.abs(oracle - p) < 1e-8)) for p in expected_points]
        assert sorted(m for _, m in report.spectrum_u) == sorted(oracle_counts)
        for point, count in zip(expected_points, oracle_counts):
            matches = [m for v, m in report.spectrum_u if abs(v - point) < 1e-10]
            assert matches == [count]

    def test_evolution_equal_to_grading_is_trivially_consistent(self):
        gamma = random_involution(np.random.default_rng(3), 6, plus_dim=4)
        report = verify_spectral_mapping(make_pair(gamma, gamma))
        assert report.consistent
        assert report.mapping_residual == 0.0
        assert all(min(abs(v - 1.0), abs(v + 1.0)) < 1e-12
                   for v, _ in report.spectrum_u)

    def test_random_pair_dim_sixteen_consistent(self):
        pair = random_chiral_pair(np.random.default_rng(101), 16)
        report = verify_spectral_mapping(pair)
        assert report.consistent
        assert all(check.passed for check in report.checks)

    def test_tampered_pair_raises_with_report(self):
        # bypass validation to plant a coin that does not match the pair
        good = random_chiral_pair(np.random.default_rng(5), 6)
        bad = ChiralPair(_Stored(good.u, good.gamma,
                                 random_involution(np.random.default_rng(6), 6)), good.tol)
        with pytest.raises(InconsistencyDetected) as excinfo:
            verify_spectral_mapping(bad)
        assert excinfo.value.report is not None
        assert any(not c.passed for c in excinfo.value.report.checks)

    def test_merged_clusters_detected(self):
        # a huge clustering tolerance folds distinct eigenvalue clusters
        # together, which the multiplicity bookkeeping must refuse
        loose = Tolerance(structural=1e-10, rank=1e-8, cluster=0.6)
        pair = grover_search(6, 0, loose)
        with pytest.raises(InconsistencyDetected):
            verify_spectral_mapping(pair)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1, class C: one discriminant cluster whose preimages "
        "lie apart on the circle fails the mapping with no warning"))
    def test_discriminant_cluster_stretched_on_the_circle_is_consistent_or_warned(self):
        # Two swap blocks of the grading, each with the coin 2 y y^T - 1 for
        # y = (cos phi, sin phi) and sin 2 phi = t: T has the eigenvalues t,
        # 5e-9 apart, one tol.cluster cluster. Near t = 1 the Joukowski map
        # stretches that gap by 1/sin theta to 3.5e-6 on the circle, so U
        # has two clusters where T predicts one.
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        gamma, coin = np.kron(np.eye(2), swap), np.zeros((4, 4))
        for k, t in enumerate((0.999999, 0.999999 + 5e-9)):
            phi = np.arcsin(t) / 2.0
            y = np.array([np.cos(phi), np.sin(phi)])
            coin[2 * k:2 * k + 2, 2 * k:2 * k + 2] = 2.0 * np.outer(y, y) - np.eye(2)
        report = build_index_report(make_pair(gamma @ coin, gamma))
        assert report.consistent or report.warnings

    def test_branch_cut_cluster_is_merged(self):
        # a -1 eigenvalue of high multiplicity sits on the argument branch
        # cut; its reported cluster must not split across the two signs
        report = verify_spectral_mapping(grover_search(3, 1))
        at_minus_one = [m for v, m in report.spectrum_u if abs(v + 1.0) < 1e-10]
        assert at_minus_one == [13]
        assert len(report.spectrum_u) == 4

    def test_cluster_unimodular_merges_first_and_last_groups(self):
        # e^{-i(pi - eps)} sorts first and e^{i(pi - eps)} and -1 last; with
        # +1 sorted between them, only the wrap-around merge joins the two
        near_minus_one = [cmath.exp(1j * (np.pi - 1e-10)), cmath.exp(-1j * (np.pi - 1e-10)), -1.0]
        for values, expected in ((near_minus_one, ((-1.0, 3),)),
                                 (near_minus_one + [1.0], ((1.0, 1), (-1.0, 3)))):
            clusters = cluster_unimodular(values, 1e-8)
            assert [m for _, m in clusters] == [m for _, m in expected]
            assert all(abs(v - w) < 1e-12 for (v, _), (w, _) in zip(clusters, expected))

    def test_flip_tie_prefers_unflipped(self):
        # coin eigenspaces of equal dimension: keep the original pair
        from chiralwalk.models import toy_two_dim

        dec = coisometry(toy_two_dim(0.3, 1.1))
        assert not dec.flipped
        assert dec.coin_space_dim == 1


class TestReportStructure:
    def test_discriminant_norm_bounded_on_random_pairs(self):
        rng = np.random.default_rng(59)
        for dim in (2, 6, 10, 15):
            pair = random_chiral_pair(rng, dim)
            report = build_index_report(pair)
            assert all(abs(t) <= 1.0 + 1e-10 for t, _ in report.spectrum_t)
            assert all(h >= -1e-12 for h, _ in report.spectrum_h)

    def test_unit_eigenvalue_counts(self):
        rng = np.random.default_rng(61)
        for dim in (3, 8, 13):
            pair = random_chiral_pair(rng, dim)
            report = build_index_report(pair)
            eye = np.eye(dim)
            from chiralwalk.linalg import kernel_basis

            assert kernel_basis(pair.u - eye).dim == report.census.m_plus + report.census.M_plus
            assert kernel_basis(pair.u + eye).dim == report.census.m_minus + report.census.M_minus

    def test_strict_contraction_case(self):
        # the search discriminant has norm below one, so inherited counts
        # vanish for the flipped pair and the index is a birth-count gap
        pair = grover_search(3, 5)
        report = build_index_report(pair)
        names = [c.name for c in report.checks]
        assert "small_discriminant_norm_case" in names
        assert all(c.passed for c in report.checks)

    def test_balanced_grading_case(self):
        gamma = random_involution(np.random.default_rng(71), 6, plus_dim=3)
        coin = random_involution(np.random.default_rng(72), 6)
        report = build_index_report(make_pair(gamma @ coin, gamma))
        assert report.gamma_signature == 0
        assert report.index_alpha == 0
        assert any(c.name == "balanced_grading_zero_index" and c.passed
                   for c in report.checks)

    def test_factorization_budget(self, monkeypatch):
        # A search pair is held by its factors, the narrow bases G (k = 2)
        # and Y (c = 1) of Gamma and C, and its report runs on the
        # compression to Z = span(Y, G), of dimension k + c = 3, with the
        # scalar block on Z-perp counted. So the one factorization with n
        # rows is the SVD of (1 - Y Y*) G that gives Z's basis; every other
        # one is at most (k + c) x (k + c), and no QR has n rows. An
        # eigensolve of Gamma or C, a dense evolution eigensolve, an SVD of
        # q, an n x n eigvalsh or the basis of a subspace held by its
        # complement shows here.
        calls = []
        for name in ("svd", "eigh", "eigvalsh", "qr"):
            def recorded(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                a = np.asarray(a)
                calls.append((_name, sys._getframe(1).f_code.co_name, a,
                              kwargs.get("mode", args[0] if args else "reduced")))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        spans = _record_span_checks(monkeypatch)
        for qubits in (5, 6, 7):
            # Counted across the build and the report: the build factorizes
            # nothing.
            calls.clear()
            pair = grover_search(qubits, 0)
            n = pair.dim
            assert isinstance(pair.ops, Factors) and calls == []
            spans.clear()
            report = build_index_report(pair)
            assert report.consistent and report.census.m_minus == n - 3
            # Every span check compares subspaces of Z, of dimension at most 3.
            assert spans and max(s.ambient_dim for s in spans) <= 3
            # The census's Gamma- & C+ holds Z-perp and is held by its
            # complement in Z; no basis of it is formed.
            assert report.census.inherited_minus.by_complement
            assert report.census.inherited_minus.complement.shape == (n, 3)
            tall = [(name, caller, a.shape) for name, caller, a, _ in calls if len(a) == n]
            assert tall == [("svd", "reduced", (n, 2))]
            assert all(max(a.shape) <= 3 for _, _, a, _ in calls[1:])
            assert not [a for name, _, a, _ in calls if name == "qr" and len(a) == n]
            counts = {name: sum(call[0] == name for call in calls)
                      for name in ("svd", "eigh", "eigvalsh", "qr")}
            # No QR at all: the one lift of a space held by an empty
            # complement writes out the identity that a QR of no columns gives.
            assert counts == {"svd": 10, "eigh": 5, "eigvalsh": 2, "qr": 0}

    def test_span_checks_on_a_wide_grading_compare_narrow_bases(self, monkeypatch):
        # A random complex pair with a balanced grading and a narrow coin:
        # both birth spaces are wide and have no narrow complement, but the
        # span checks compare only the parts in L, of dimension at most 2c.
        rng = np.random.default_rng(512)
        n, c = 512, 20
        gamma = random_involution(rng, n, plus_dim=256)
        pair = make_pair(gamma @ random_involution(rng, n, plus_dim=c), gamma)
        assert pair.u.dtype == np.complex128
        spans = _record_span_checks(monkeypatch)
        report = build_index_report(pair)
        assert report.consistent and report.census.M_plus == report.census.M_minus == 236
        assert spans and max(s.dim for s in spans) <= 2 * c

    def test_battery_factorization_budget(self, monkeypatch):
        # The invariant battery eigendecomposes the grading once for the
        # three transforms that keep it, and the negated and conjugated
        # gradings once each; each of its five indices takes two
        # singular-value-only SVDs, of alpha and of alpha*.
        calls = []
        for name in ("svd", "eigh"):
            def recorded(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.asarray(a), kwargs))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        pair = random_chiral_pair(np.random.default_rng(19), 12)
        assert pair.u.dtype == np.complex128
        transformation_checks(pair, 0, np.random.default_rng(20))
        eighs = [a for name, a, _ in calls if name == "eigh"]
        svds = [kwargs for name, _, kwargs in calls if name == "svd"]
        assert len(eighs) == 3 and len(svds) == 10
        assert np.array_equal(eighs[0], pair.gamma) and np.array_equal(eighs[1], -pair.gamma)
        assert all(kwargs == {"compute_uv": False} for kwargs in svds)
        # With the grading 1 every alpha is empty, and nothing is factorized.
        calls.clear()
        coin = random_involution(np.random.default_rng(21), 12)
        transformation_checks(make_pair(coin, np.eye(12)), 0, np.random.default_rng(22))
        assert [name for name, _, _ in calls] == ["eigh"] * 3

    def test_real_pair_is_factorized_in_real_arithmetic(self, monkeypatch):
        # Every factorization of a real pair's report runs on float64
        # input except the cluster splits inside _eig_unitary, whose
        # eigenvectors are complex; a stray complex up-cast shows here.
        pair = grover_search(5, 0)
        assert pair.u.dtype == pair.gamma.dtype == pair.coin.dtype == np.float64
        calls = []
        for name in ("svd", "eigh"):
            def recorded(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, sys._getframe(1).f_code.co_name, np.asarray(a).dtype))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        build_index_report(pair)
        complex_calls = [call for call in calls if call[2] != np.float64]
        assert complex_calls
        assert all(call[:2] == ("eigh", "_eig_unitary") for call in complex_calls)
        assert calls.count(("eigh", "_eig_unitary", np.float64)) == 1

    def test_squared_supercharge_spectrum_against_discriminant(self):
        # sigma(H) must be the doubled 1 - t^2 plus an explicit zero block
        pair = random_chiral_pair(np.random.default_rng(83), 11)
        report = build_index_report(pair)
        assert any(c.name == "squared_supercharge_spectrum" and c.passed
                   for c in report.checks)
        dec = coisometry(pair)
        w_t, _ = _eigh(dec.discriminant)
        interior = w_t[np.abs(np.abs(w_t) - 1.0) > 1e-8]
        q = supercharge(pair)
        w_h = np.linalg.eigvalsh(q @ q)
        nonzero = np.sort(w_h[np.abs(w_h) > 1e-8])
        expected = np.sort(np.concatenate([1.0 - interior**2] * 2))
        assert nonzero.shape == expected.shape
        assert np.max(np.abs(nonzero - expected)) < 1e-8 if nonzero.size else True


class TestPerturbationInvariance:
    def test_coin_rerandomization_preserves_index(self):
        rng = np.random.default_rng(97)
        for dim in (4, 9, 16):
            gamma = random_involution(rng, dim)
            baseline = make_pair(gamma @ random_involution(rng, dim), gamma)
            expected = index_alpha(baseline)
            for _ in range(5):
                perturbed = make_pair(gamma @ random_involution(rng, dim), gamma)
                assert index_alpha(perturbed) == expected


def _report_summary(report):
    return (
        (report.index_alpha, report.index_witten, report.index_formula,
         report.gamma_signature),
        (report.census.m_plus, report.census.m_minus,
         report.census.M_plus, report.census.M_minus),
        report.flipped,
        [(c.name, c.passed) for c in report.checks],
    )


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda v=v: toy_four_dim(v), id=f"toy4-{v}") for v in range(1, 6)),
    pytest.param(lambda: grover_search(3, 0), id="search-3-0"),
    pytest.param(lambda: grover_search(3, 5), id="search-3-5"),
    pytest.param(lambda: grover_walk(Graph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))),
                 id="walk-paw"),
    pytest.param(lambda: split_step_cycle(SplitStepParams(
        8, 0.6, 0.8, tuple(np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 8)))),
        id="split-step-8"),
])
def test_real_pair_report_matches_complex_twin(build):
    # Conjugating a real pair by a Haar unitary gives a genuinely complex
    # pair with the same report, which takes the complex path throughout.
    # (A diagonal phase would leave the diagonal toy pairs real.)
    pair = build()
    assert pair.u.dtype == np.float64
    w = haar_unitary(np.random.default_rng(20), pair.dim)
    twin = make_pair(w @ pair.u @ w.conj().T, w @ pair.gamma @ w.conj().T)
    assert twin.u.dtype == np.complex128
    real, complex_ = build_index_report(pair), build_index_report(twin)
    assert _report_summary(real) == _report_summary(complex_)
    for key in ("spectrum_u", "spectrum_t", "spectrum_h"):
        a, b = getattr(real, key), getattr(complex_, key)
        assert [m for _, m in a] == [m for _, m in b]
        assert max((abs(x - y) for (x, _), (y, _) in zip(a, b)), default=0.0) <= 1e-12


def _reflection(rng, m, real):
    """2P - 1 through a random subspace of random dimension, real or complex."""
    basis = np.linalg.qr(rng.standard_normal((m, m)))[0] if real else haar_unitary(rng, m)
    basis = basis[:, :int(rng.integers(0, m + 1))]
    return 2.0 * basis @ basis.conj().T - np.eye(m)


def _planted_directions(rng, n, planted, real):
    """Evolution and grading whose coin shares ``planted`` eigenvectors with it.

    Each shared direction is +-1 for both, so it is an eigenvector of U
    at +-1 and lies in ker q; the rest of the space carries independent
    random reflections. Returns the matrices ``(U, Gamma)`` as built.
    """
    w = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else haar_unitary(rng, n)
    shared, rest = w[:, :planted], w[:, planted:]

    def involution():
        signs = rng.choice([-1.0, 1.0], size=planted)
        return (shared * signs) @ shared.conj().T \
            + rest @ _reflection(rng, n - planted, real) @ rest.conj().T

    gamma = involution()
    return gamma @ involution(), gamma


def _assert_witten_and_h_routes(pair):
    # Reference Witten index: the literal nullity gap of the graded blocks
    # of H, alpha* alpha on Gamma+ and alpha alpha* on Gamma-.
    a = alpha(pair)
    expected = kernel_basis(a.conj().T @ a).dim - kernel_basis(a @ a.conj().T).dim
    report = build_index_report(pair)
    assert report.index_witten == expected
    # Reference spectrum of H: a Hermitian eigensolve of q @ q.
    q = supercharge(pair)
    reference = cluster_reals(np.linalg.eigvalsh(q @ q), pair.tol.cluster)
    assert [m for _, m in report.spectrum_h] == [m for _, m in reference]
    assert max(abs(x - y) for (x, _), (y, _) in zip(report.spectrum_h, reference)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(min_value=2, max_value=24),
       planted=st.integers(min_value=0, max_value=8),
       real=st.booleans(),
       seed=st.integers(min_value=0, max_value=10**6))
def test_witten_index_and_h_spectrum_from_supercharge_svd(dim, planted, real, seed):
    u, gamma = _planted_directions(np.random.default_rng(seed), dim, min(planted, dim), real)
    pair = make_pair(u, gamma)
    # A real draw stays real and a complex one takes the complex path,
    # unless its imaginary parts all cancel exactly (dimension 2 with one
    # planted direction can give such a draw).
    assert (pair.u.dtype == np.float64) == (real or not (u.imag.any() or gamma.imag.any()))
    _assert_witten_and_h_routes(pair)


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda q=q, t=t: grover_search(q, t), id=f"search-{q}-{t}")
      for q in range(1, 5) for t in sorted({0, 2**q - 1})),
    *(pytest.param(lambda v=v: toy_four_dim(v), id=f"toy4-{v}") for v in range(1, 6)),
])
def test_witten_index_and_h_spectrum_with_large_supercharge_kernel(build):
    _assert_witten_and_h_routes(build())


def _loop_cluster_reals(values, gap):
    """cluster_reals as a loop over the sorted values, each cluster's mean from np.mean."""
    vals = np.sort(np.asarray(values, dtype=float))
    clusters, start = [], 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > gap:
            clusters.append((float(np.mean(vals[start:k])), k - start))
            start = k
    return tuple(clusters)


def _loop_cluster_unimodular(values, gap):
    """cluster_unimodular as a loop over the values in argument order."""
    vals = np.asarray(values, dtype=complex)
    if vals.size == 0:
        return ()
    vals = vals[linalg._principal_order(vals)]
    groups = []
    for v in vals:
        if groups and abs(v - groups[-1][-1]) <= gap:
            groups[-1].append(complex(v))
        else:
            groups.append([complex(v)])
    if len(groups) > 1 and abs(groups[0][0] - groups[-1][-1]) <= gap:
        groups[0] = groups.pop() + groups[0]
    out = []
    for g in groups:
        rep = complex(np.mean(g))
        out.append((rep / abs(rep) if abs(rep) > 0 else rep, len(g)))
    return tuple(out[k] for k in linalg._principal_order([z for z, _ in out]))


def _bytes(clusters):
    return [(np.complex128(v).tobytes(), m) for v, m in clusters]


@settings(max_examples=200, deadline=None)
@given(size=st.integers(min_value=0, max_value=40),
       clusters=st.integers(min_value=1, max_value=6),
       spread=st.sampled_from([0.0, 1e-12, 1e-9, 1e-8, 1e-7]),
       signed_zeros=st.booleans(),
       seed=st.integers(min_value=0, max_value=10**6))
def test_clustering_matches_the_value_by_value_loop(size, clusters, spread, signed_zeros, seed):
    # Cluster boundaries found at once and one-value means taken as the
    # value itself must give, byte for byte, what the loop gives: with
    # values a tolerance apart, clusters across the branch cut, and
    # signed zeros, which np.mean's sum from zero turns into 0.0.
    rng = np.random.default_rng(seed)
    centres = rng.choice([0.0, np.pi, -np.pi + 1e-12, np.pi / 2, 1.0], clusters)
    angles = rng.choice(centres, size) + spread * rng.standard_normal(size)
    unimodular = np.exp(1j * angles)
    reals = np.cos(angles)
    if signed_zeros and size:
        reals[: size // 2] = -0.0
        unimodular[: size // 3] = complex(-0.0, 1.0)
        unimodular[size // 3: size // 2] = complex(-1.0, -0.0)
    for gap in (0.0, 1e-8, 1e-6):
        assert _bytes(cluster_reals(reals, gap)) == _bytes(_loop_cluster_reals(reals, gap))
        assert _bytes(cluster_unimodular(unimodular, gap)) == \
            _bytes(_loop_cluster_unimodular(unimodular, gap))



def _package_calls(fn) -> int:
    """Calls made from chiralwalk frames while ``fn`` runs.

    Under ``sys.setprofile``, a ``call`` event counts when its caller
    frame is in the package and a ``c_call`` event when it is raised from
    a package frame: the call sites the package itself executes, however
    many calls numpy makes beneath them.
    """
    root = os.path.dirname(spectral.__file__) + os.sep
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            caller = frame.f_back
            count += caller is not None and caller.f_code.co_filename.startswith(root)
        elif event == "c_call":
            count += frame.f_code.co_filename.startswith(root)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


# Calls from chiralwalk frames with Python 3.11 and numpy 2.4.6: building
# and reporting on the 7-qubit search pair, and reporting on one seeded
# dense pair per dimension 2..16, in total (733.7 a pair). They were 1012
# and 13437 (895.8 a pair) before the report's per-call overhead was cut;
# a change that adds calls to the report raises these budgets on purpose.
SEARCH_REPORT_CALLS = 834
DENSE_REPORT_CALLS = 11005


def test_report_calls_stay_within_budget():
    search = _package_calls(lambda: build_index_report(grover_search(7, 5)))
    dense = []
    for dim in range(2, 17):
        pair = random_chiral_pair(np.random.default_rng(dim), dim)
        dense.append(_package_calls(lambda: build_index_report(pair)))
    assert search <= SEARCH_REPORT_CALLS
    assert sum(dense) <= DENSE_REPORT_CALLS
