"""Tests for the concrete model builders."""

import tracemalloc

import numpy as np
import pytest

from chiralwalk import chiral, models
from chiralwalk.chiral import Factors, Reflection, index_alpha, make_factored_pair, make_pair
from chiralwalk.errors import (
    DimensionMismatch,
    GraphInvalid,
    NotInvolution,
    OutOfRange,
    ParamInvariantViolated,
)
from chiralwalk.linalg import _identity_residual, spans_match, unitarity_residual
from chiralwalk.models import (
    Graph,
    SplitStepParams,
    grover_search,
    grover_walk,
    search_probability_table,
    split_step_cycle,
    toy_four_dim,
    toy_two_dim,
)
from chiralwalk.selfcheck import random_connected_multigraph
from chiralwalk.spectral import build_index_report, coisometry, verify_spectral_mapping


class TestGraph:
    def test_triangle(self):
        g = Graph(3, ((0, 1), (1, 2), (2, 0)))
        assert g.directed_edges() == [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]
        assert list(g.degrees()) == [2, 2, 2]

    def test_self_loop_contributes_two(self):
        g = Graph(1, ((0, 0),))
        assert list(g.degrees()) == [2]
        assert g.directed_edges() == [(0, 0), (0, 0)]

    def test_rejects_disconnected(self):
        with pytest.raises(GraphInvalid):
            Graph(4, ((0, 1), (2, 3)))

    def test_rejects_isolated_vertex(self):
        with pytest.raises(GraphInvalid):
            Graph(3, ((0, 1),))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphInvalid):
            Graph(2, ((0, 2),))

    def test_rejects_empty(self):
        with pytest.raises(GraphInvalid):
            Graph(0, ())


class TestGroverSearch:
    @pytest.mark.parametrize("qubits,expected", [(1, 0), (2, -4), (3, -12)])
    def test_index(self, qubits, expected):
        pair = grover_search(qubits, 2**qubits - 1)
        assert index_alpha(pair) == expected

    def test_two_qubit_spectrum(self):
        report = verify_spectral_mapping(grover_search(2, 3))
        points = {round(np.angle(v) / np.pi, 6): m for v, m in report.spectrum_u}
        # arccos(1 - 2/4) = pi/3
        assert points == {round(1 / 3, 6): 1, round(-1 / 3, 6): 1, 0.0: 1, 1.0: 5}

    @pytest.mark.parametrize("qubits", range(1, 9))
    def test_discriminant_scalar_value(self, qubits):
        dec = coisometry(grover_search(qubits, 0))
        assert dec.flipped
        assert dec.discriminant.shape == (1, 1)
        assert abs(dec.discriminant[0, 0] - (2.0 / 2**qubits - 1.0)) < 1e-12

    def test_rejects_bad_target(self):
        with pytest.raises(OutOfRange):
            grover_search(2, 4)

    @pytest.mark.parametrize("qubits", range(1, 9))
    def test_grading_is_written_as_kron_writes_it(self, qubits):
        # Down to the sign of each zero. The pair is held by its factors, and
        # the dense grading formed from them, 2 B B* - 1, has the bits of
        # every nonzero entry of np.kron(reflect, eye(2)); its zeros are
        # cancellations, so +0.0, where np.kron writes -0.0 for a negative
        # entry times zero. Adding 0.0 to the expected side alone turns its
        # -0.0 into 0.0 and leaves every other bit as it is.
        n_positions = 2**qubits
        uniform = np.full(n_positions, 1.0 / np.sqrt(n_positions))
        reflect = 2.0 * np.outer(uniform, uniform) - np.eye(n_positions)
        expected = np.kron(reflect, np.eye(2))
        for target in sorted({0, n_positions - 1}):
            pair = grover_search(qubits, target)
            assert isinstance(pair.ops, Factors)
            assert pair.gamma.tobytes() == (expected + 0.0).tobytes()

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(OutOfRange):
            grover_search(0, 0)
        with pytest.raises(OutOfRange):
            grover_search(models.MAX_QUBITS + 1, 0)


def _report_summary(report):
    """A report's integers, booleans and check names, and its floats apart."""
    exact = (report.dim, report.index_alpha, report.index_witten, report.index_formula,
             report.gamma_signature, report.consistent, report.flipped,
             (report.census.m_plus, report.census.m_minus,
              report.census.M_plus, report.census.M_minus),
             [m for _, m in report.spectrum_u], [m for _, m in report.spectrum_t],
             [m for _, m in report.spectrum_h],
             [(c.name, c.passed, c.detail) for c in report.checks], report.warnings)
    floats = np.array([report.mapping_residual, *(c.residual for c in report.checks),
                       *(v for v, _ in report.spectrum_t), *(v for v, _ in report.spectrum_h)])
    return exact, floats, np.array([v for v, _ in report.spectrum_u])


@pytest.mark.parametrize("qubits", range(1, 11))
def test_factored_search_report_equals_the_dense_pair_report(qubits):
    # The pair held by its factors gets the report of make_pair on its
    # dense evolution and grading: the same integers, booleans and check
    # names, and floats to within 1e-12.
    for target in sorted({0, 1, 2**qubits - 1}):
        pair = grover_search(qubits, target)
        assert isinstance(pair.ops, Factors)
        factored = _report_summary(build_index_report(pair))
        dense = _report_summary(build_index_report(make_pair(pair.u, pair.gamma)))
        assert factored[0] == dense[0]
        for a, b in zip(factored[1:], dense[1:]):
            assert a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= 1e-12


@pytest.mark.parametrize("qubits", range(11, models.MAX_QUBITS + 1))
def test_factored_search_report_beyond_the_dense_sizes(qubits):
    # From q = 11 to the limit, where no dense pair is formed, every check
    # passes, the index is 4 - 2N on every route, the coin is flipped and
    # the discriminant is the single eigenvalue 2/N - 1 (N = 2^q).
    positions = 2**qubits
    for target in (0, positions - 1):
        pair = grover_search(qubits, target)
        report = build_index_report(pair)
        assert all(c.passed for c in report.checks) and report.consistent
        assert (report.index_alpha == report.index_witten == report.index_formula
                == report.gamma_signature == 4 - 2 * positions)
        assert report.flipped
        assert len(report.spectrum_t) == 1 and report.spectrum_t[0][1] == 1
        assert report.spectrum_t[0][0] == pytest.approx(2.0 / positions - 1.0, abs=1e-12)
    assert index_alpha(pair) == 4 - 2 * positions


def test_factored_search_path_forms_no_n_by_n_array(monkeypatch):
    # Building and reporting a search pair reads no dense matrix, and its
    # traced allocation peak is O(n), a few dozen length-n columns, where
    # one n x n array at q = 12 (n = 8192) would take 512 MiB.
    def refused(self, name):
        raise AssertionError(f"dense {name} formed")

    monkeypatch.setattr(Factors, "dense", refused)
    qubits = 12
    n = 2 ** (qubits + 1)
    tracemalloc.start()
    try:
        pair = grover_search(qubits, 5)
        report = build_index_report(pair)
        index = index_alpha(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.consistent and index == 4 - n
    assert peak <= 64 * 8 * n


def test_search_report_repr_forms_no_basis():
    # A wide subspace of the report is held by its narrow complement, and
    # its repr shows that complement, so printing the report peaks at
    # O(n k) where a basis read would form an n x n array (512 MiB at
    # q = 12).
    qubits = 12
    n = 2 ** (qubits + 1)
    report = build_index_report(grover_search(qubits, 5))
    tracemalloc.start()
    try:
        text = repr(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "complement=" in text
    assert peak <= 64 * 8 * n


class TestFactoredPair:
    def test_holds_the_reflections_and_their_eigenspaces(self):
        pair = grover_search(3, 5)
        n = pair.dim
        assert n == 16 and pair.dtype == np.float64
        reduced = pair.ops.reduced(pair)
        (g_plus, g_minus), (c_plus, c_minus) = (reduced.spaces(name) for name in ("gamma", "coin"))
        assert (g_plus.dim, g_minus.dim, c_plus.dim, c_minus.dim) == (2, n - 2, n - 1, 1)
        assert g_minus.by_complement and c_plus.by_complement
        # The dense matrices, formed on first read, are those the
        # reflections define, and U = Gamma C.
        assert np.array_equal(pair.coin, -(2.0 * np.outer(np.eye(n)[11], np.eye(n)[11])
                                           - np.eye(n)))
        assert np.abs(pair.u - pair.gamma @ pair.coin).max() <= 1e-15
        assert pair.u is pair.u

    def test_rejects_bases_that_are_not_orthonormal(self):
        rng = np.random.default_rng(4)
        basis = np.linalg.qr(rng.standard_normal((32, 3)))[0]
        coin = Reflection(np.eye(32)[:, :1], -1.0)
        make_factored_pair(Reflection(basis, 1.0), coin)
        for label, grading, c in (
                ("grading", Reflection(basis * (1.0 + 1e-9), 1.0), coin),
                ("coin", Reflection(basis, 1.0), Reflection(2.0 * np.eye(32)[:, :1], -1.0))):
            with pytest.raises(NotInvolution, match=f"{label} is not unitary"):
                make_factored_pair(grading, c)
        with pytest.raises(DimensionMismatch):
            make_factored_pair(Reflection(basis, 1.0), Reflection(np.eye(16)[:, :1], 1.0))
        with pytest.raises(ValueError, match="sign"):
            make_factored_pair(Reflection(basis, 0.5), coin)

    @pytest.mark.parametrize("n, k, c, s, t, real, seed", [
        pytest.param(*case, id="n{}-k{}-c{}-s{:+d}-t{:+d}-{}".format(
            *case[:5], "real" if case[5] else "complex"))
        for case in [
            # An empty grading basis, an empty coin basis, and both empty.
            (16, 0, 3, 1, -1, True, 1), (16, 3, 0, -1, 1, False, 2), (8, 0, 0, 1, 1, True, 3),
            # A coin wider than n/2: the flipped coin space holds Z-perp.
            (16, 3, 12, 1, 1, True, 4), (16, 3, 12, -1, 1, False, 5),
            (16, 3, 12, 1, -1, False, 6),
            # Both signs of the grading and of the coin, real and complex.
            (32, 4, 5, 1, 1, False, 7), (32, 4, 5, 1, -1, True, 8),
            (32, 4, 5, -1, 1, True, 9), (32, 4, 5, -1, -1, False, 10),
            # Twins that take the narrow routes.
            (64, 2, 40, 1, -1, True, 11), (64, 2, 40, -1, 1, False, 12),
            (96, 3, 2, -1, 1, False, 8), (96, 20, 4, 1, -1, True, 13)]])
    def test_factors_give_the_dense_pair_report(self, n, k, c, s, t, real, seed):
        # The factored pair's report, index_alpha and coisometry, taken on
        # its compression to span(G, Y) with Z-perp counted, are its dense
        # twin's: the same integers, booleans and check names, and floats,
        # census spaces and coin space to within 1e-12.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, k + c))
        if not real:
            z = z + 1j * rng.standard_normal((n, k + c))
        pair = make_factored_pair(Reflection(np.linalg.qr(z[:, :k])[0], float(s)),
                                  Reflection(np.linalg.qr(z[:, k:])[0], float(t)))
        twin = make_pair(pair.u, pair.gamma)
        assert pair.dtype == (np.float64 if real else np.complex128)
        report, dense = build_index_report(pair), build_index_report(twin)
        factored, want = _report_summary(report), _report_summary(dense)
        assert factored[0] == want[0] and report.consistent
        for a, b in zip(factored[1:], want[1:]):
            assert a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= 1e-12
        for name in ("inherited_plus", "inherited_minus", "birth_plus", "birth_minus"):
            same, residual = spans_match(getattr(report.census, name),
                                         getattr(dense.census, name))
            assert same and residual <= 1e-12, name
        assert index_alpha(pair) == index_alpha(twin) == report.index_alpha
        got, expected = coisometry(pair), coisometry(twin)
        assert got.flipped == expected.flipped == report.flipped
        assert got.d.shape == expected.d.shape
        assert np.abs(got.d @ got.d.conj().T - np.eye(len(got.d))).max(initial=0.0) <= 1e-12
        assert np.abs(got.d.conj().T @ got.d - expected.d.conj().T @ expected.d).max(
            initial=0.0) <= 1e-12
        assert np.abs(np.linalg.eigvalsh(got.discriminant)
                      - np.linalg.eigvalsh(expected.discriminant)).max(initial=0.0) <= 1e-12

    def test_large_factored_pair_refuses_its_matrices_without_allocating(self):
        # From the first qubit count past DENSE_MAX_DIM, reading u, gamma or
        # coin raises OutOfRange with the message the CLI prints, and the
        # refusal allocates O(n) at most, where one n x n float64 array at
        # q = 11 (n = 4096) would take 128 MiB.
        qubits = chiral.DENSE_MAX_DIM.bit_length() - 1
        pair = grover_search(qubits, 0)
        n = pair.dim
        assert n == 2 * chiral.DENSE_MAX_DIM
        for name in ("u", "gamma", "coin"):
            tracemalloc.start()
            try:
                with pytest.raises(OutOfRange) as excinfo:
                    getattr(pair, name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(excinfo.value) == (
                f"the pair of dimension {n} is held by its factors, and its dense "
                f"matrices are formed only up to dimension {chiral.DENSE_MAX_DIM}")
            assert peak <= 64 * 8 * n


class TestSearchProbability:
    def test_initial_probability_is_uniform(self):
        for qubits in (1, 2, 3):
            assert search_probability_table(qubits, 0, 0)[-1][1] == pytest.approx(
                1.0 / 2**qubits, abs=1e-15
            )

    def test_one_step_amplification_two_qubits(self):
        # compare against an independent dense-power oracle
        pair = grover_search(2, 3)
        state = np.zeros(8, dtype=complex)
        state[1::2] = 0.5
        oracle = np.linalg.matrix_power(pair.u, 1) @ state
        oracle_prob = abs(oracle[6]) ** 2 + abs(oracle[7]) ** 2
        value = search_probability_table(2, 3, 1)[-1][1]
        assert value == pytest.approx(oracle_prob, abs=1e-14)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert value >= 0.25

    def test_probabilities_sum_to_one_across_positions(self):
        qubits, steps = 2, 4
        for t in range(steps + 1):
            total = sum(
                search_probability_table(qubits, 1, t, measure=x)[-1][1]
                for x in range(2**qubits)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("qubits", range(1, 9))
    def test_rows_match_two_reflection_steps(self, qubits):
        # Oracle: the validated dense evolution, grading times coin, applied
        # to the position-major state (coordinate 2x + s for |x, s>).
        n_positions, steps = 2**qubits, 200
        for target in sorted({0, n_positions - 1}):
            u = grover_search(qubits, target).u
            for measure in sorted({target, 0}):
                state = np.zeros(2 * n_positions)
                state[1::2] = 1.0 / np.sqrt(n_positions)
                expected = []
                for step in range(steps + 1):
                    expected.append((step, float(np.sum(state[2 * measure:][:2] ** 2)),
                                     float(state @ state)))
                    state = u @ state
                rows = search_probability_table(qubits, target, steps, measure=measure)
                assert [row[0] for row in rows] == [row[0] for row in expected]
                assert np.max(np.abs(np.array(rows) - np.array(expected))) <= 1e-12

    def test_norm_conserved_along_trajectory(self):
        rows = search_probability_table(2, 2, 1000)
        assert len(rows) == 1001
        assert all(abs(total - 1.0) <= 1e-12 for _, _, total in rows)

    @pytest.mark.parametrize("qubits", [1, 2, 3, 5, 8, 12, 16])
    def test_rows_equal_the_mean_form_byte_for_byte(self, qubits):
        # The step reflects about the positions' mean, taken as the last
        # row of a running sum; the rows are those of np.mean's form.
        n_positions = 2**qubits
        steps = 60 if qubits == 16 else 300
        for target in sorted({0, 1, n_positions - 1}):
            state = np.zeros((n_positions, 2))
            state[:, 1] = 1.0 / np.sqrt(n_positions)
            expected = []
            for step in range(steps + 1):
                expected.append((step, float(state[target, 0] ** 2 + state[target, 1] ** 2),
                                 float(np.vdot(state, state))))
                state[target, 1] = -state[target, 1]
                state = 2.0 * state.mean(axis=0) - state
            rows = search_probability_table(qubits, target, steps)
            assert repr(rows) == repr(expected)


class TestGroverWalk:
    def test_triangle(self):
        pair = grover_walk(Graph(3, ((0, 1), (1, 2), (2, 0))))
        assert pair.dim == 6
        assert index_alpha(pair) == 0

    def test_four_cycle_unit_eigenvalues_match_eigensolve(self):
        pair = grover_walk(Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0))))
        report = verify_spectral_mapping(pair)
        assert report.index_alpha == 0
        oracle = np.linalg.eigvals(pair.u)
        for target, census_count in (
            (1.0, report.census.m_plus + report.census.M_plus),
            (-1.0, report.census.m_minus + report.census.M_minus),
        ):
            assert int(np.sum(np.abs(oracle - target) < 1e-8)) == census_count

    def test_single_self_loop(self):
        pair = grover_walk(Graph(1, ((0, 0),)))
        assert pair.dim == 2
        assert np.allclose(pair.gamma, [[0, 1], [1, 0]])
        assert index_alpha(pair) == 0

    def test_shift_is_zero_one_involution(self):
        g = random_connected_multigraph(np.random.default_rng(9), 5, 8, self_loops=1)
        pair = grover_walk(g)
        assert set(np.unique(pair.gamma.real)) <= {0.0, 1.0}
        assert np.max(np.abs(pair.gamma.imag)) == 0.0
        assert _identity_residual(pair.gamma @ pair.gamma) == 0.0

    def test_coin_space_has_vertex_count_dimension(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
        pair = grover_walk(g)
        # rank of the averaging projector equals the vertex count
        plus_dim = int(round(np.trace((np.eye(pair.dim) + pair.coin).real / 2)))
        assert plus_dim == 4

    def test_random_multigraphs_have_zero_index(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            vertices = int(rng.integers(2, 7))
            edges = vertices - 1 + int(rng.integers(0, 4))
            g = random_connected_multigraph(rng, vertices, edges)
            assert index_alpha(grover_walk(g)) == 0


class TestSplitStep:
    def test_diagonal_limit(self):
        params = SplitStepParams(sites=3, p=1.0, q=0.0, coin_angles=(0.0, 0.0, 0.0))
        pair = split_step_cycle(params)
        assert np.allclose(pair.u, np.eye(6))
        assert index_alpha(pair) == 0

    def test_pure_shift_limit(self):
        params = SplitStepParams(
            sites=4, p=0.0, q=np.exp(0.4j), coin_angles=(0.1, 0.7, 1.3, 2.9)
        )
        pair = split_step_cycle(params)
        assert unitarity_residual(pair.gamma) < 1e-12
        assert _identity_residual(pair.gamma @ pair.gamma) < 1e-12

    def test_all_routes_zero_for_three_four_five(self):
        rng = np.random.default_rng(15)
        params = SplitStepParams(
            sites=4, p=0.6, q=0.8, coin_angles=tuple(rng.uniform(0, 2 * np.pi, 4))
        )
        report = verify_spectral_mapping(split_step_cycle(params))
        assert (report.index_alpha, report.index_witten,
                report.index_formula, report.gamma_signature) == (0, 0, 0, 0)

    def test_grading_trace_vanishes(self):
        params = SplitStepParams(sites=5, p=0.28, q=0.96j, coin_angles=(0.0,) * 5)
        pair = split_step_cycle(params)
        assert abs(np.trace(pair.gamma)) < 1e-12

    def test_rejects_unnormalized_parameters(self):
        with pytest.raises(ParamInvariantViolated):
            split_step_cycle(SplitStepParams(sites=2, p=1.0, q=1.0, coin_angles=(0.0, 0.0)))

    def test_rejects_wrong_angle_count(self):
        with pytest.raises(ParamInvariantViolated):
            split_step_cycle(SplitStepParams(sites=3, p=1.0, q=0.0, coin_angles=(0.0,)))

    @pytest.mark.parametrize("p, q", [(np.nan, 0.8), (0.6, complex(np.nan, 0.0)),
                                      (np.inf, 0.0)])
    def test_rejects_non_finite_normalization(self, p, q):
        # A NaN residual fails the normalization check, which names p^2 + |q|^2.
        with pytest.raises(ParamInvariantViolated, match=r"p\^2 \+ \|q\|\^2"):
            split_step_cycle(SplitStepParams(sites=2, p=p, q=q, coin_angles=(0.0, 0.0)))

    @pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_angle(self, angle):
        with pytest.raises(ParamInvariantViolated, match="coin angle of site 1 must be finite"):
            split_step_cycle(SplitStepParams(sites=3, p=0.6, q=0.8,
                                             coin_angles=(0.1, angle, 0.2)))


class TestToyModels:
    @pytest.mark.parametrize("beta", [0.0, np.pi])
    def test_two_dim_unit_eigenvalue_dichotomy(self, beta):
        report = build_index_report(toy_two_dim(beta, 0.9))
        c = report.census
        case_plus = c.M_plus == c.m_plus == 1 and c.M_minus == c.m_minus == 0
        case_minus = c.M_minus == c.m_minus == 1 and c.M_plus == c.m_plus == 0
        assert case_plus or case_minus
        assert c.m_plus + c.M_plus + c.m_minus + c.M_minus == 2

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.5])
    def test_two_dim_generic_phase(self, beta):
        report = build_index_report(toy_two_dim(beta, 1.7))
        c = report.census
        assert (c.m_plus, c.m_minus, c.M_plus, c.M_minus) == (0, 0, 0, 0)
        assert report.index_alpha == 0

    @pytest.mark.parametrize("beta, gamma_phase, name, value", [
        (np.nan, 0.3, "beta", "nan"), (np.inf, 0.3, "beta", "inf"),
        (0.3, -np.inf, "gamma", "-inf"), (0.3, np.nan, "gamma", "nan")])
    def test_two_dim_rejects_non_finite_angle(self, beta, gamma_phase, name, value):
        # Refused before any exponential is taken, so no RuntimeWarning is raised.
        with pytest.raises(ParamInvariantViolated, match=f"^{name} must be finite, got {value}$"):
            toy_two_dim(beta, gamma_phase)

    def test_two_dim_index_always_zero(self):
        for beta in (0.0, 0.2, np.pi / 2, np.pi, 5.0):
            for gamma_phase in (0.0, 0.8, 2.2):
                assert index_alpha(toy_two_dim(beta, gamma_phase)) == 0

    @pytest.mark.parametrize(
        "variant,expected",
        [(1, (3, 0, 0, 1, -4)), (2, (2, 0, 1, 1, -2)), (3, (1, 0, 2, 1, 0)),
         (4, (1, 1, 2, 0, 2)), (5, (0, 1, 3, 0, 4))],
    )
    def test_four_dim_table(self, variant, expected):
        report = verify_spectral_mapping(toy_four_dim(variant))
        got = (report.census.M_plus, report.census.M_minus,
               report.census.m_plus, report.census.m_minus, report.index_alpha)
        assert got == expected

    def test_four_dim_rejects_bad_variant(self):
        with pytest.raises(OutOfRange):
            toy_four_dim(6)


def test_every_builder_passes_validation():
    rng = np.random.default_rng(27)
    pairs = [
        grover_search(2, 1),
        grover_walk(random_connected_multigraph(rng, 4, 6, self_loops=1)),
        split_step_cycle(SplitStepParams(
            sites=3, p=0.8, q=0.6j, coin_angles=tuple(rng.uniform(0, 6.3, 3)))),
        toy_two_dim(1.2, 0.4),
        toy_four_dim(2),
    ]
    for pair in pairs:
        # construction already validated; re-validate from raw matrices
        rebuilt = make_pair(pair.u, pair.gamma)
        assert np.max(np.abs(rebuilt.coin - pair.coin)) < 1e-12
