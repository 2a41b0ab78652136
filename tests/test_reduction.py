"""The index report on the walk's invariant subspace L = ran d* + Gamma ran d*.

Reports of pairs with a small coin space take U's spectrum, ker q and the
spectrum of H from L and lift them. Here they are compared with dense
numpy oracles written out below, and with the dense report that a failed
certificate falls back to. The projection-pair route's compression to
Halmos's reduction S = ran d* + Gamma ran d* is compared with the
eigenvalues of the whole differences of projections.
"""

import numpy as np
import pytest

from chiralwalk import linalg, spectral
from chiralwalk import chiral
from chiralwalk.chiral import make_pair
from chiralwalk.linalg import unitarity_residual
from chiralwalk.models import Graph, grover_search, grover_walk, toy_two_dim
from chiralwalk.selfcheck import haar_unitary, random_connected_multigraph
from chiralwalk.spectral import build_index_report, cluster_reals, cluster_unimodular, coisometry
from oracles import supercharge


def _planted_pair(seed, n, real, flipped):
    """Random grading and a coin whose smaller eigenspace has dim c <= n/4."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, n // 4 + 1))

    def reflection(plus_dim):
        w = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else haar_unitary(rng, n)
        return 2.0 * w[:, :plus_dim] @ w[:, :plus_dim].conj().T - np.eye(n)

    gamma = reflection(int(rng.integers(0, n + 1)))
    return make_pair(gamma @ reflection(n - c if flipped else c), gamma)


def _narrow_planted_pair(seed, n, real, flipped):
    """Random pair whose grading and coin each have a side of dim <= n/4."""
    rng = np.random.default_rng(seed)

    def reflection(small):
        w = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else haar_unitary(rng, n)
        return 2.0 * w[:, :small] @ w[:, :small].conj().T - np.eye(n)

    gamma = float(rng.choice([-1.0, 1.0])) * reflection(int(rng.integers(1, n // 4 + 1)))
    coin = reflection(int(rng.integers(1, n // 4 + 1)))
    return make_pair(gamma @ (-coin if flipped else coin), gamma)


def _graph_walk(seed, vertices, edges):
    return grover_walk(random_connected_multigraph(
        np.random.default_rng(seed), vertices, edges, self_loops=1))


SEARCH = [pytest.param(q, t, id=f"search-{q}-{t}")
          for q in range(1, 9) for t in sorted({0, 1, 2**q - 1})]
OTHERS = [
    *(pytest.param(lambda v=v, e=e: _graph_walk(v + e, v, e), id=f"graph-{v}-{e}")
      for v, e in ((20, 200), (10, 40), (8, 20), (5, 30))),
    *(pytest.param(lambda s=s, n=n, r=r, f=f: _planted_pair(s, n, r, f),
                   id=f"planted-{n}-{'real' if r else 'complex'}{'-flipped' if f else ''}")
      for s, (n, r, f) in enumerate([(8, True, False), (12, False, True), (16, False, False),
                                     (24, True, True), (32, True, False), (40, False, False),
                                     (48, False, True), (64, True, True), (64, False, False)])),
]


def _walk(pair):
    """The walk subspace of the pair's compression: the pair itself for a stored pair."""
    reduced = pair.ops.reduced(pair)
    plus, minus = linalg._involution_eigenspaces(reduced.pair.gamma, pair.tol)
    dec, _, eff, _, _ = spectral._discriminant_census(reduced, plus, minus)
    return spectral._walk_subspace(reduced, plus, minus, dec, eff)


def _takes_reduced_path(pair):
    return _walk(pair).basis is not None


def _runs_on_a_subspace(pair):
    """Whether the report runs on L, or on the compression of a pair held by its factors."""
    return _takes_reduced_path(pair) or pair.ops.reduced(pair).basis is not None


def _dense_search(qubits, target):
    """The search pair rebuilt by make_pair from its dense matrices, so it is held by them."""
    search = grover_search(qubits, target)
    return make_pair(search.u, search.gamma)


def _nullity(m, rank_tol):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s <= rank_tol * (s[0] if s[0] > rank_tol else 1.0)))


def _multiplicity_at(spectrum, value):
    return sum(m for v, m in spectrum if abs(v - value) <= 1e-8)


def _assert_matches_dense_oracles(pair):
    assert _runs_on_a_subspace(pair)
    tol = pair.tol
    report = build_index_report(pair)
    assert all(c.passed for c in report.checks) and report.consistent
    # U's spectrum against a general eigensolve of the whole matrix.
    oracle_u = cluster_unimodular(np.linalg.eigvals(pair.u), tol.cluster)
    assert [m for _, m in report.spectrum_u] == [m for _, m in oracle_u]
    assert max(abs(x - y) for (x, _), (y, _) in zip(report.spectrum_u, oracle_u)) <= 1e-12
    # ker(U -+ 1) and ker q against SVD nullities of the dense matrices.
    eye = np.eye(pair.dim)
    census = report.census
    for sign, inherited, birth in ((1.0, census.m_plus, census.M_plus),
                                   (-1.0, census.m_minus, census.M_minus)):
        nullity = _nullity(pair.u - sign * eye, tol.rank)
        assert inherited + birth == nullity == _multiplicity_at(report.spectrum_u, sign)
    q = (pair.u - pair.u.conj().T) / 2.0j
    assert _multiplicity_at(report.spectrum_h, 0.0) == _nullity(q, tol.rank)
    # H = q^2 against a Hermitian eigensolve of the dense square.
    oracle_h = cluster_reals(np.linalg.eigvalsh(q @ q), tol.cluster)
    assert [m for _, m in report.spectrum_h] == [m for _, m in oracle_h]
    assert max(abs(x - y) for (x, _), (y, _) in zip(report.spectrum_h, oracle_h)) <= 1e-12


@pytest.mark.parametrize("qubits, target", SEARCH)
def test_search_report_on_invariant_subspace(qubits, target):
    _assert_matches_dense_oracles(grover_search(qubits, target))


@pytest.mark.parametrize("build", OTHERS)
def test_report_on_invariant_subspace(build):
    _assert_matches_dense_oracles(build())


def test_dense_graph_walk_subspace_is_smaller_than_twice_the_coin():
    # A V=20, E=200 walk has c = 20, but the constant vector is a +1
    # eigenvector of the discriminant, so ran d* and Gamma ran d* share a
    # direction and L has dimension 2c - 1.
    pair = _graph_walk(7, 20, 200)
    assert coisometry(pair).coin_space_dim == 20
    assert _walk(pair).basis.shape == (pair.dim, 39)


def test_dense_walk_takes_the_supercharge_in_its_one_form():
    # The triangle walk has c = 3 > n/4, so its report runs on the whole
    # space. There S = (U - U*)/(2 unit) is the real (U - U^T)/2 for an
    # exactly real pair, and q = (U - U*)/2i for a complex one.
    pair = grover_walk(Graph(3, ((0, 1), (1, 2), (2, 0))))
    walk = _walk(pair)
    assert walk.basis is None and walk.q.dtype == np.float64
    assert np.array_equal(walk.q, (pair.u - pair.u.T) / 2.0)
    pair = toy_two_dim(0.3, 1.1)
    assert np.iscomplexobj(pair.u) and _walk(pair).basis is None
    assert np.array_equal(_walk(pair).q, (pair.u - pair.u.conj().T) / 2j)


@pytest.mark.parametrize("qubits", [3, 5, 7])
def test_coherent_unitarity_error_falls_back_instead_of_raising(qubits):
    # make_pair bounds U* U - 1 entrywise. Adding eps times the all-ones
    # block on the oracle's - register to the search coin makes that
    # error coherent: about 2 eps in every entry, just under the bound,
    # but of norm about n eps on L = span(|0, ->, |s, ->), where the
    # compression B* U B lives. The report must then run on the whole
    # space, whose eigensolve accepts U, instead of raising NotUnitary.
    base = grover_search(qubits, 0)
    positions = 2**qubits
    block = np.kron(np.ones((positions, positions)), np.diag([0.0, 1.0]))
    pair = make_pair(base.gamma @ (base.coin + 0.45 * base.tol.structural * block),
                     base.gamma)
    assert unitarity_residual(pair.u) <= pair.tol.structural
    basis = np.linalg.qr(np.stack([np.eye(pair.dim)[1], block[1] / positions**0.5], axis=1))[0]
    assert unitarity_residual(basis.T @ pair.u @ basis) > pair.tol.structural
    assert not _takes_reduced_path(pair)
    report = build_index_report(pair)
    assert report.consistent
    assert _summary(report) == _summary(build_index_report(base))


def _summary(report):
    return (report.index_alpha, report.index_witten, report.index_formula,
            report.gamma_signature, report.flipped, report.consistent,
            (report.census.m_plus, report.census.m_minus,
             report.census.M_plus, report.census.M_minus),
            [(c.name, c.passed) for c in report.checks], len(report.warnings),
            [[m for _, m in s] for s in (report.spectrum_u, report.spectrum_t,
                                         report.spectrum_h)])


NARROW = [
    *(pytest.param(lambda q=q, t=t: grover_search(q, t), id=f"search-{q}-{t}")
      for q in range(1, 9) for t in sorted({0, 1, 3, 2**q - 1} & set(range(2**q)))),
    *(pytest.param(lambda v=v, e=e: _graph_walk(v + e, v, e), id=f"graph-{v}-{e}")
      for v, e in ((20, 200), (10, 40))),
    *(pytest.param(lambda s=s, n=n, r=r, f=f: _narrow_planted_pair(s, n, r, f),
                   id=f"narrow-{n}-{'real' if r else 'complex'}{'-flipped' if f else ''}")
      for s, (n, r, f) in enumerate([(64, True, False), (64, False, True), (96, True, True),
                                     (128, False, False), (160, True, False)], start=30)),
]
# The larger inputs take the narrow routes only against the eigensolves.
NARROW_LARGE = [
    *(pytest.param(lambda t=t: grover_search(9, t), id=f"search-9-{t}") for t in (0, 1, 3, 511)),
    *(p for p in OTHERS if p.id.startswith("graph") and p.id not in {q.id for q in NARROW}),
    *(pytest.param(lambda s=s, n=n, r=r, f=f: _narrow_planted_pair(s, n, r, f),
                   id=f"narrow-{n}-{'real' if r else 'complex'}{'-flipped' if f else ''}")
      for s, (n, r, f) in enumerate([(256, True, False), (256, False, True), (512, True, True),
                                     (512, False, False)], start=40)),
]


@pytest.mark.parametrize("build", [
    *(pytest.param(lambda q=q: grover_search(q, 2**q - 1), id=f"search-{q}")
      for q in range(1, 7)),
    *OTHERS,
    # NARROW's graph walks are those of OTHERS, and its search-q-(2**q - 1)
    # for q <= 6 are the search-q above.
    *(p for p in NARROW if p.id not in {other.id for other in OTHERS}
      | {f"search-{q}-{2**q - 1}" for q in range(1, 7)}),
])
def test_failed_certificate_falls_back_to_the_dense_report(monkeypatch, build):
    # With no certificate accepted, W is the whole space and every
    # factorization is the dense one; the report of the pair rebuilt from
    # its dense matrices, a search pair's dense twin, must say the same.
    pair = build()
    reduced = build_index_report(pair)
    monkeypatch.setattr(spectral, "_certificate_bound", lambda reduced: -1.0)
    pair = make_pair(pair.u, pair.gamma)
    assert not _takes_reduced_path(pair)
    dense = build_index_report(pair)
    assert _summary(dense) == _summary(reduced)
    for key in ("spectrum_u", "spectrum_t", "spectrum_h"):
        a, b = getattr(reduced, key), getattr(dense, key)
        assert max((abs(x - y) for (x, _), (y, _) in zip(a, b)), default=0.0) <= 1e-12
    for a, b in zip(reduced.checks, dense.checks):
        assert abs(a.residual - b.residual) <= 1e-12


@pytest.mark.parametrize("build", NARROW + NARROW_LARGE)
def test_narrow_sides_give_the_eigensolve_report(monkeypatch, build):
    # Eigenspaces of Gamma and C from their narrow sides, wide subspaces
    # held by their narrow complements, and the projection-pair route on
    # Halmos's reduction must give the report that eigensolves, dense
    # bases and the whole differences give: the same exit code, indices,
    # census, check names and outcomes, and floats to within 1e-12. The
    # eigensolve side is make_pair on the pair's matrices: a search pair
    # is held by its factors, whose eigenspaces are the reflections' own
    # whatever the size floor, and a dense pair is rebuilt as it was.
    pair = build()
    n = pair.dim
    if n >= 64:
        assert any(linalg._narrow_eigenspaces(m, pair.tol) is not None
                   for m in (pair.gamma, pair.coin))
    narrow = build_index_report(pair)
    monkeypatch.setattr(linalg, "_NARROW_MIN_DIM", 10**9)
    shapes = []

    def recorded(a, *args, _eigh=np.linalg.eigh, **kwargs):
        shapes.append(np.shape(a))
        return _eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    dense = build_index_report(make_pair(pair.u, pair.gamma))
    # Gamma and C are each eigensolved whole.
    assert shapes.count((n, n)) >= 2
    assert _summary(narrow) == _summary(dense)
    assert narrow.mapping_residual == pytest.approx(dense.mapping_residual, abs=1e-12)
    for key in ("spectrum_u", "spectrum_t", "spectrum_h"):
        a, b = getattr(narrow, key), getattr(dense, key)
        assert max((abs(x - y) for (x, _), (y, _) in zip(a, b)), default=0.0) <= 1e-12
    for a, b in zip(narrow.checks, dense.checks):
        assert abs(a.residual - b.residual) <= 1e-12


def _trivial_walk(seed, n, k, real, sign):
    """U = sign Gamma for a grading whose smaller side has k <= n/4 dimensions."""
    rng = np.random.default_rng(seed)
    w = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else haar_unitary(rng, n)
    gamma = float(rng.choice([-1.0, 1.0])) * (2.0 * w[:, :k] @ w[:, :k].conj().T - np.eye(n))
    return make_pair(sign * gamma, gamma)


@pytest.mark.parametrize("build", [
    pytest.param(lambda s=s, n=n, k=k, r=r, g=g: _trivial_walk(s, n, k, r, g),
                 id=f"trivial-{n}-k{k}-{'real' if r else 'complex'}{'-minus' if g < 0 else ''}")
    for s, (n, k, r, g) in enumerate([(64, 16, True, 1.0), (64, 3, False, -1.0),
                                      (96, 24, False, 1.0), (96, 1, True, -1.0),
                                      (128, 32, True, -1.0), (128, 7, False, 1.0)], start=80)])
def test_trivial_walk_with_a_narrow_grading(build):
    # The coin is +-1, so the report runs on the whole space and the
    # census's inherited spaces are Gamma's eigenspaces, the wide one held
    # by its narrow complement; the lift of T's +-1 eigenvectors is
    # compared with that side's basis, formed from the complement.
    pair = build()
    report = build_index_report(pair)
    assert report.consistent
    assert report.index_alpha == report.index_witten == report.index_formula \
        == report.gamma_signature
    checks = {c.name: c.residual for c in report.checks}
    assert checks["inherited_spaces_lift"] <= 1e-14


@pytest.mark.parametrize("qubits", [6, 8])
def test_lifted_kernel_of_the_block_on_invariant_subspace(qubits):
    # The report takes ker alpha* from the c x c block on L; lifted and
    # joined by L-perp & Gamma-, the census's birth space, it must span
    # what G- ker(G+* q G-) spans, with the block formed on the whole space.
    # The search pair is rebuilt from its dense matrices, which the report
    # reads on L; held by its factors it runs on its compression.
    pair = _dense_search(qubits, 1)
    walk = _walk(pair)
    assert walk.basis.shape == (pair.dim, 2)
    inside = walk.lift(walk.alpha_kernels(pair.tol)[1].basis)
    plus, minus = linalg._involution_eigenspaces(pair.gamma, pair.tol)
    eff = spectral._discriminant_census(pair.ops.reduced(pair), plus, minus)[2]
    lifted = np.hstack([inside, eff.birth_plus.basis])
    alpha = minus.basis.conj().T @ supercharge(pair) @ plus.basis
    oracle = minus.basis @ linalg.kernel_basis(alpha.conj().T, pair.tol).basis
    assert lifted.shape[1] == oracle.shape[1]
    assert np.max(np.abs(lifted @ lifted.conj().T - oracle @ oracle.conj().T)) <= 1e-12


def _dense_coin_pair_index(pair):
    return (chiral._projection_pair_index((pair.gamma - pair.coin) / 2.0, pair.tol)
            + chiral._projection_pair_index((pair.gamma + pair.coin) / 2.0, pair.tol))


def _coin_narrow_side(pair):
    dec = coisometry(pair)
    return dec.d.conj().T, -1.0 if dec.flipped else 1.0


def _reflection(rng, n, plus_dim, real):
    w = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else haar_unitary(rng, n)
    return 2.0 * w[:, :plus_dim] @ w[:, :plus_dim].conj().T - np.eye(n)


def _route_pair(seed, n, c, plus_dim, real, flipped):
    """Random grading with ``plus_dim`` +1 directions and a coin with a c-dim side."""
    rng = np.random.default_rng(seed)
    gamma = _reflection(rng, n, plus_dim, real)
    return make_pair(gamma @ _reflection(rng, n, n - c if flipped else c, real), gamma)


ROUTE = [
    *(pytest.param(lambda q=q, t=t: grover_search(q, t), id=f"search-{q}-{t}")
      for q in range(1, 9) for t in sorted({0, 1, 3, 2**q - 1}) if t < 2**q),
    *(pytest.param(lambda v=v, e=e: _graph_walk(v + e, v, e), id=f"graph-{v}-{e}")
      for v, e in ((20, 200), (10, 40), (8, 20), (5, 30), (3, 3))),
    *(pytest.param(lambda s=s, n=n, c=c, k=k, r=r, f=f: _route_pair(s, n, c, k, r, f),
                   id=f"planted-{n}-c{c}-plus{k}-{'real' if r else 'complex'}"
                      f"{'-flipped' if f else ''}")
      for s, (n, c, k, r, f) in enumerate([
          (8, 2, 4, True, False), (16, 3, 1, False, True), (32, 8, 32, True, False),
          (64, 1, 32, True, False), (64, 16, 32, False, True), (64, 5, 0, False, False),
          (96, 12, 90, True, True), (128, 32, 3, False, False), (128, 7, 64, True, True),
          (200, 40, 100, False, False), (256, 64, 255, True, False),
          (256, 9, 128, False, True), (512, 2, 256, True, True)], start=60)),
]


@pytest.mark.parametrize("build", ROUTE)
def test_projection_pair_route_on_halmos_reduction(build):
    # The compression of (Gamma -+ C)/2 to S = ran Y + Gamma ran Y, with
    # S-perp counted from traces, must give the integer that eigvalsh of
    # the two n x n differences gives; the size gate is bypassed, so pairs
    # below it are compared too.
    pair = build()
    narrow, sign = _coin_narrow_side(pair)
    assert chiral._compressed_coin_pair_index(pair, narrow, sign) == _dense_coin_pair_index(pair)
    assert chiral._coin_pair_index(pair, narrow, sign) == _dense_coin_pair_index(pair)


@pytest.mark.parametrize("qubits", [5, 7])
def test_uncertified_reduction_falls_back_to_the_dense_route(monkeypatch, qubits):
    # Tilted out of the coin's eigenspace, Y no longer spans a side of C,
    # so S = ran Y + Gamma ran Y is not invariant under the coin: the
    # certificate refuses S and the route takes eigvalsh of both n x n
    # differences, which still gives the pair's index.
    pair = grover_search(qubits, 1)
    narrow, sign = _coin_narrow_side(pair)
    rng = np.random.default_rng(qubits)
    tilted = np.linalg.qr(narrow + 1e-6 * rng.standard_normal(narrow.shape))[0]
    assert chiral._compressed_coin_pair_index(pair, tilted, sign) is None
    shapes = []

    def recorded(a, *args, _fn=np.linalg.eigvalsh, **kwargs):
        shapes.append(np.shape(a))
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    assert chiral._coin_pair_index(pair, tilted, sign) == build_index_report(pair).index_alpha
    assert shapes[:2] == [(pair.dim, pair.dim)] * 2


def _inherited_pair(seed, n, c, plus_dim, real, flipped):
    """Pair on L whose coin space meets both sides of the grading in a line each.

    The effective inherited spaces Gamma+- & C+ are then nonempty and lie
    in L, so U has +1 and -1 eigenvectors in L and the supercharge block
    has a kernel on each side.
    """
    rng = np.random.default_rng(seed)
    w = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else haar_unitary(rng, n)
    fresh = w[:, 1:] @ (rng.standard_normal((n - 1, c - 2)) if real
                        else haar_unitary(rng, n - 1)[:, :c - 2])
    fresh -= w[:, plus_dim:plus_dim + 1] @ (w[:, plus_dim:plus_dim + 1].conj().T @ fresh)
    space = np.linalg.qr(np.hstack([w[:, :1], w[:, plus_dim:plus_dim + 1], fresh]))[0]
    gamma = 2.0 * w[:, :plus_dim] @ w[:, :plus_dim].conj().T - np.eye(n)
    coin = 2.0 * space @ space.conj().T - np.eye(n)
    return make_pair(gamma @ (-coin if flipped else coin), gamma)


def _turned(v, i, toward, angle=1e-6):
    """``v`` with column i turned by ``angle`` toward the unit vector ``toward``."""
    v = v.copy()
    v[:, i] = np.cos(angle) * v[:, i] + np.sin(angle) * toward
    return v


def _failed(report):
    return {c.name: c.residual for c in report.checks if not c.passed}


LIVE = [pytest.param(lambda: _inherited_pair(5, 64, 12, 30, False, False), id="complex-64"),
        pytest.param(lambda: _inherited_pair(6, 96, 20, 40, True, True), id="real-96-flipped")]


@pytest.mark.parametrize("build", LIVE)
def test_span_checks_on_invariant_subspace_are_live(monkeypatch, build):
    # On L each of the three span checks compares only the parts in L, so
    # a column of U's or alpha's kernels there turned 1e-6 out of its span
    # must fail the checks that read it and no other.
    pair = build()
    walk = _walk(pair)
    assert walk.basis is not None and walk.basis.shape[1] < pair.dim
    bound = pair.tol.structural * pair.dim
    assert build_index_report(pair).consistent

    def turned_eig_unitary(m, tol, _fn=spectral._eig_unitary):
        # A +1 column turned toward a -1 column stays in ker(1 - U^2).
        values, vectors = _fn(m, tol)
        plus, minus = (np.flatnonzero(np.abs(values - s) <= 1e-8)[0] for s in (1.0, -1.0))
        return values, _turned(_turned(vectors, plus, vectors[:, minus]), minus,
                               -vectors[:, plus])

    def turned_kernel_basis(a, tol, _fn=spectral.kernel_basis):
        ker = _fn(a, tol)
        assert ker.dim and ker.complement.shape[1]
        return linalg.Subspace(ker.ambient_dim, _turned(ker.basis, 0, ker.complement[:, 0]))

    def turned_intersection(s1, s2, tol, _fn=spectral.subspace_intersection):
        out = _fn(s1, s2, tol)
        if out.ambient_dim == pair.dim or not out.dim:
            return out
        # Turned toward a direction of L outside the kernel, on L's other side.
        other = np.eye(out.ambient_dim)[:, ::-1][:, :1]
        other = linalg._outside(other, out.basis)
        return linalg.Subspace(out.ambient_dim,
                               _turned(out.basis, 0, other[:, 0] / np.linalg.norm(other)))

    for name, fn, failing in (
            ("_eig_unitary", turned_eig_unitary, {"unit_eigenspace_split"}),
            ("subspace_intersection", turned_intersection,
             {"alpha_kernel_graded_intersection"}),
            ("kernel_basis", turned_kernel_basis,
             {"alpha_kernel_graded_intersection", "alpha_kernel_decomposition"})):
        with monkeypatch.context() as patch:
            patch.setattr(spectral, name, fn)
            failed = _failed(build_index_report(pair))
        assert set(failed) == failing, name
        assert all(bound < residual < 1e-5 for residual in failed.values()), name


@pytest.mark.parametrize("build", [*LIVE, pytest.param(lambda: _dense_search(6, 3), id="search-6")])
def test_walk_unitarity_is_measured_once_on_the_invariant_subspace(monkeypatch, build):
    # The walk's certificate takes B* U B's unitarity residual, and U's
    # eigensolve on L does not take it again.
    pair = build()
    reduced = pair.ops.reduced(pair)
    plus, minus = pair.ops.spaces("gamma", pair.tol)
    dec, _, eff, _, _ = spectral._discriminant_census(reduced, plus, minus)
    walk = spectral._walk_subspace(reduced, plus, minus, dec, eff)
    assert walk.basis is not None
    gram = walk.u.conj().T @ walk.u
    products = []

    def recorded(p, _fn=linalg._identity_residual):
        products.append(p.copy())
        return _fn(p)

    monkeypatch.setattr(linalg, "_identity_residual", recorded)
    assert build_index_report(pair).consistent
    assert sum(np.array_equal(p, gram) for p in products) == 1


def test_search_report_forms_each_reflection_and_factorization_once(monkeypatch):
    # A q = 7 search report compresses the pair to Z = span(Y, G), which
    # takes the one SVD with n rows, of (1 - Y Y*) G, and applies neither
    # reflection to a length-n array: the grading and the coin enter Z's
    # coordinates through the products Z* G and Z* Y. Every other SVD is of
    # the 3 x 3 compression or smaller.
    pair = grover_search(7, 9)
    svds, reflections = [], []

    def svd(*args, _fn=np.linalg.svd, **kwargs):
        svds.append(np.shape(args[0]))
        return _fn(*args, **kwargs)

    def reflect(self, x, _fn=chiral.Reflection.__call__):
        reflections.append(self.sign)
        return _fn(self, x)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(chiral.Reflection, "__call__", reflect)
    assert build_index_report(pair).consistent
    assert svds[0] == (pair.dim, 2) and all(max(shape) <= 3 for shape in svds[1:])
    assert reflections == []


@pytest.mark.parametrize("build, measured", [
    pytest.param(lambda: make_pair(*_small_pair(6)), 0, id="stored")])
def test_dense_report_measures_unitarity_only_of_an_unchecked_evolution(monkeypatch, build,
                                                                        measured):
    # On W = C^n, make_pair has measured U* U - 1 of a stored pair, and the
    # report does not form U* U again.
    pair = build()
    assert _walk(pair).basis is None
    gram = pair.u.conj().T @ pair.u
    products = []

    def recorded(p, _fn=linalg._identity_residual):
        products.append(p.copy())
        return _fn(p)

    monkeypatch.setattr(linalg, "_identity_residual", recorded)
    report = build_index_report(pair)
    assert report.consistent
    assert sum(np.array_equal(p, gram) for p in products) == measured


def _small_pair(n):
    rng = np.random.default_rng(n)
    gamma = _reflection(rng, n, n // 2, False)
    return gamma @ _reflection(rng, n, n // 2, False), gamma


def _counted_unit_count(w, tol, blocks):
    """The unit count with each ``(value, count)`` block decided once, counted ``count`` times."""
    held = [(value, count) for value, count in blocks if count]
    values = np.concatenate([w, [value for value, _ in held]])
    plus, minus = (linalg._near_unit(values, target, tol.rank) for target in (1.0, -1.0))
    return int(plus[:w.size].sum() - minus[:w.size].sum()) + sum(
        count * (int(p) - int(m)) for (_, count), p, m in zip(held, plus[w.size:], minus[w.size:]))


def _counted_cases():
    """Explicit edge cases, then 40 seeded draws of eigenvalues, blocks and cutoffs."""
    empty, tol = np.empty(0), linalg.Tolerance()
    cases = [(empty, ((0.0, 0), (-1.0, 0)), tol), (empty, ((0.0, 3), (-1.0, 2)), tol),
             (empty, ((1.0, 4), (0.0, 0)), linalg.Tolerance(rank=0.6)),
             (np.array([np.nan]), ((1.0, 2), (0.0, 1)), tol),
             (np.array([0.5]), ((0.0, 5), (-1.0, 1)), linalg.Tolerance(rank=0.99))]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        w = rng.choice([-1.0, 1.0, 0.0, -1.0 + 1e-9, 1.0 - 1e-12]) + rng.uniform(
            -1, 1, int(rng.choice([0, 1, 2, 5]))) * rng.choice([0.0, 1e-12, 1e-7, 1.0, 3.0])
        if seed % 7 == 3 and w.size:
            w[0] = np.nan
        s_sign = float(rng.choice([-1.0, 1.0]))
        cases.append((w, (((1.0 - s_sign) / 2.0, int(rng.integers(0, 4))),
                          ((-1.0 - s_sign) / 2.0, int(rng.integers(0, 4)))),
                      linalg.Tolerance(rank=float(rng.choice([1e-8, 0.4, 0.6, 0.99])))))
    return cases


@pytest.mark.parametrize("w, blocks, tol", _counted_cases())
def test_counted_blocks_decide_as_the_written_values(w, blocks, tol):
    # The projection-pair route writes S-perp's eigenvalues, 0 and +-1, out
    # in full. Each copy of a value lies as far from +-1 as the others, so
    # every +-1 decision, with its largest distance, must be the one made
    # when each block is decided once and counted. Empty eigenvalue sets,
    # blocks alone, NaN and cutoffs near 1 (where a block at distance 1
    # counts) are among the cases.
    written = np.concatenate([w, *(np.full(k, v) for v, k in blocks)])
    assert chiral._unit_count(written, tol) == _counted_unit_count(w, tol, blocks)
