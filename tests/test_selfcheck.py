"""Tests for the invariant battery against a battery that recomputes everything."""

import numpy as np
import pytest

from chiralwalk.chiral import make_pair
from chiralwalk.linalg import kernel_basis
from chiralwalk.models import grover_search, toy_four_dim
from chiralwalk.selfcheck import (
    haar_unitary,
    random_chiral_pair,
    random_involution,
    run_selftest,
    transformation_checks,
)
from chiralwalk.spectral import build_index_report
from oracles import alpha


def _kernel_index(pair):
    """Index as the nullity of alpha minus that of alpha*, from kernel bases."""
    a = alpha(pair)
    return kernel_basis(a, pair.tol).dim - kernel_basis(a.conj().T, pair.tol).dim


def _recomputed_checks(pair, rng):
    """The battery with every transformed pair and every index computed afresh."""
    tol, n = pair.tol, pair.dim
    reference = _kernel_index(pair)
    cases = [
        ("index_negated_evolution", make_pair(-pair.u, pair.gamma, tol), reference),
        ("index_negated_grading", make_pair(pair.u, -pair.gamma, tol), -reference),
        ("index_inverse_evolution", make_pair(pair.u.conj().T, pair.gamma, tol), reference),
    ]
    v = haar_unitary(rng, n)
    cases.append(("index_unitary_conjugation",
                  make_pair(v @ pair.u @ v.conj().T, v @ pair.gamma @ v.conj().T, tol),
                  reference))
    cases.append(("index_coin_perturbation",
                  make_pair(pair.gamma @ random_involution(rng, n), pair.gamma, tol),
                  reference))
    out = []
    for name, candidate, expected in cases:
        res = float(abs(_kernel_index(candidate) - expected))
        out.append((name, res == 0.0, res))
    return out


def _random_pairs():
    rng = np.random.default_rng(2024)
    return [random_chiral_pair(rng, dim) for dim in range(2, 17) for _ in range(3)]


@pytest.mark.parametrize("build", [
    pytest.param(_random_pairs, id="random-2-16"),
    pytest.param(lambda: [grover_search(q, t) for q in (2, 3, 4) for t in (0, 2**q - 1)],
                 id="search-2-4"),
    pytest.param(lambda: [toy_four_dim(v) for v in range(1, 6)], id="toy4-1-5"),
])
def test_shared_grading_matches_recomputation(build):
    # The battery factorizes the grading once for the three transforms
    # that keep it and takes the reference index from the report; the
    # result must be what recomputing every index gives.
    for k, pair in enumerate(build()):
        report = build_index_report(pair)
        got = transformation_checks(pair, report.index_alpha, np.random.default_rng(k))
        expected = _recomputed_checks(pair, np.random.default_rng(k))
        assert [(c.name, c.passed, c.residual) for c in got] == expected


@pytest.mark.parametrize("seed", [7, 31])
def test_a_selftest_pair_eigensolves_each_involution_once(monkeypatch, seed):
    # The report eigensolves the pair's grading and coin, and the battery
    # reads the grading's eigenspaces back from the pair: only the negated
    # and the conjugated grading, independent checks, are eigensolved again.
    calls = []

    def recorded(a, *args, _fn=np.linalg.eigh, **kwargs):
        calls.append(np.array(a))
        return _fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    rng = np.random.default_rng(seed)
    pair = random_chiral_pair(rng, 12)
    report = build_index_report(pair)
    at_report = len(calls)
    # The battery's unitary v, drawn from a copy of the generator.
    replay = np.random.default_rng()
    replay.bit_generator.state = rng.bit_generator.state
    v = haar_unitary(replay, pair.dim)
    transformation_checks(pair, report.index_alpha, rng)
    involutions = {"gamma": pair.gamma, "coin": pair.coin, "negated": -pair.gamma,
                   "conjugated": v @ pair.gamma @ v.conj().T}
    seen = [[name for name, x in involutions.items() if np.array_equal(a, x)] for a in calls]
    assert [names for names in seen[:at_report] if names] == [["gamma"], ["coin"]]
    assert [names for names in seen[at_report:] if names] == [["negated"], ["conjugated"]]


@pytest.mark.parametrize("dim_max, trials, seed, message", [
    (1, 1, 0, "dim_max must be at least 2, got 1"),
    (2, 0, 0, "trials must be at least 1, got 0"),
    (2, 1, -5, "seed must be non-negative, got -5"),
])
def test_selftest_rejects_its_arguments_by_name(dim_max, trials, seed, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_selftest(dim_max, trials, seed)
