"""The index report on the walk's invariant subspace L = ran d* + Gamma ran d*.

Reports of pairs with a small coin space take U's spectrum, ker q and the
spectrum of H from L and lift them. Here they are compared with dense
numpy oracles written out below, and with the dense report that a failed
certificate falls back to.
"""

import numpy as np
import pytest

from chiralwalk import linalg, spectral
from chiralwalk.chiral import _supercharge, make_pair
from chiralwalk.linalg import unitarity_residual
from chiralwalk.models import grover_search, grover_walk
from chiralwalk.selfcheck import haar_unitary, random_connected_multigraph
from chiralwalk.spectral import build_index_report, cluster_reals, cluster_unimodular, coisometry


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
    plus, minus = linalg._involution_eigenspaces(pair.gamma, pair.tol)
    dec, _, eff, _, _ = spectral._discriminant_census(pair, plus, minus)
    return spectral._walk_subspace(pair, plus, minus, dec, eff, _supercharge(pair))


def _takes_reduced_path(pair):
    return _walk(pair).basis is not None


def _nullity(m, rank_tol):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s <= rank_tol * (s[0] if s[0] > rank_tol else 1.0)))


def _multiplicity_at(spectrum, value):
    return sum(m for v, m in spectrum if abs(v - value) <= 1e-8)


def _assert_matches_dense_oracles(pair):
    assert _takes_reduced_path(pair)
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
      for q in range(1, 9) for t in sorted({0, 1, 2**q - 1})),
    *(pytest.param(lambda v=v, e=e: _graph_walk(v + e, v, e), id=f"graph-{v}-{e}")
      for v, e in ((20, 200), (10, 40))),
    *(pytest.param(lambda s=s, n=n, r=r, f=f: _narrow_planted_pair(s, n, r, f),
                   id=f"narrow-{n}-{'real' if r else 'complex'}{'-flipped' if f else ''}")
      for s, (n, r, f) in enumerate([(64, True, False), (64, False, True), (96, True, True),
                                     (128, False, False), (160, True, False)], start=30)),
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
    # factorization is the dense one; the report must say the same.
    pair = build()
    reduced = build_index_report(pair)
    monkeypatch.setattr(spectral, "_certificate_bound", lambda pair: -1.0)
    assert not _takes_reduced_path(pair)
    dense = build_index_report(pair)
    assert _summary(dense) == _summary(reduced)
    for key in ("spectrum_u", "spectrum_t", "spectrum_h"):
        a, b = getattr(reduced, key), getattr(dense, key)
        assert max((abs(x - y) for (x, _), (y, _) in zip(a, b)), default=0.0) <= 1e-12
    for a, b in zip(reduced.checks, dense.checks):
        assert abs(a.residual - b.residual) <= 1e-12


@pytest.mark.parametrize("build", NARROW)
def test_narrow_sides_give_the_eigensolve_report(monkeypatch, build):
    # Eigenspaces of Gamma and C from their narrow sides, and wide bases
    # from complete QRs of narrow ones, must give the report that
    # eigensolves and products give.
    pair = build()
    if pair.dim >= 64:
        assert any(linalg._narrow_eigenspaces(m, pair.tol) is not None
                   for m in (pair.gamma, pair.coin))
    narrow = build_index_report(pair)
    monkeypatch.setattr(linalg, "_NARROW_MIN_DIM", 10**9)
    dense = build_index_report(pair)
    assert _summary(narrow) == _summary(dense)
    assert narrow.mapping_residual == pytest.approx(dense.mapping_residual, abs=1e-12)
    for key in ("spectrum_u", "spectrum_t", "spectrum_h"):
        a, b = getattr(narrow, key), getattr(dense, key)
        assert max((abs(x - y) for (x, _), (y, _) in zip(a, b)), default=0.0) <= 1e-12
    for a, b in zip(narrow.checks, dense.checks):
        assert abs(a.residual - b.residual) <= 1e-12


@pytest.mark.parametrize("qubits", [6, 8])
def test_lifted_kernel_of_the_block_on_invariant_subspace(qubits):
    # The report lifts ker alpha* from the c x c block on L and adds
    # L-perp & Gamma-, the census's birth space; it must span what
    # G- ker(G+* q G-) spans, with the block formed on the whole space,
    # and carry a narrow complement orthogonal to it.
    pair = grover_search(qubits, 1)
    walk = _walk(pair)
    assert walk.basis.shape == (pair.dim, 2)
    lifted = walk.alpha_kernels(pair.tol)[1]
    plus, minus = linalg._involution_eigenspaces(pair.gamma, pair.tol)
    alpha = minus.basis.conj().T @ _supercharge(pair) @ plus.basis
    oracle = minus.basis @ linalg.kernel_basis(alpha.conj().T, pair.tol).basis
    assert lifted.dim == oracle.shape[1]
    assert np.max(np.abs(lifted.basis @ lifted.basis.conj().T
                         - oracle @ oracle.conj().T)) <= 1e-12
    assert lifted.complement.shape[1] < lifted.dim
    assert np.max(np.abs(lifted.basis.conj().T @ lifted.complement)) <= 1e-13
