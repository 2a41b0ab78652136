"""Tests for the invariant battery against a battery that recomputes everything."""

import itertools
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chiralwalk import cli, selfcheck
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


SEEDS = (5, 99, 12345, 7, 2024, 31)
# The sweep over which a run shared out among forked workers must give the
# in-process result: dim_max 2-20, trials 1-4, six seeds taken in turn.
SPLIT_RUNS = [(dim_max, trials, seed) for (dim_max, trials), seed in zip(
    itertools.product((2, 3, 4, 6, 9, 13, 20), (1, 2, 3, 4)), itertools.cycle(SEEDS))]


class _Hung(BaseException):
    """Raised by the alarm; not an Exception, so no fallback swallows it."""


@pytest.fixture
def no_child_left():
    """Bound the test's time, then require that every forked worker was reaped."""
    def hung(signum, frame):
        raise _Hung("a forked run took over 120 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Share every run among four workers, one pair each at least; count the forks."""
    made = []

    def counted(_fork=os.fork):
        made.append(None)
        return _fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(selfcheck, "MIN_SHARE", 1)
    return made


def _in_process(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return run()


def _cli_run(monkeypatch, capsys, argv):
    """(exit code, stdout, SelftestResult) of one ``selftest`` command."""
    results = []

    def kept(*args, _run=run_selftest):
        results.append(_run(*args))
        return results[-1]

    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_selftest", kept)
        code = cli.main(argv)
    return code, capsys.readouterr().out, results[0]


@pytest.mark.parametrize("tol_rank", ["1e-8", "0.3"], ids=["default", "failing-rank"])
def test_forked_run_is_the_in_process_run(monkeypatch, capsys, forks, no_child_left, tol_rank):
    # A rank cutoff of 0.3 makes checks fail, and none raises: the failures
    # and their residuals come back from the workers as they are found in
    # process.
    failed = 0
    for dim_max, trials, seed in SPLIT_RUNS:
        argv = ["selftest", "--dim-max", str(dim_max), "--trials", str(trials),
                "--seed", str(seed), "--tol-rank", tol_rank]
        before = len(forks)
        forked = _cli_run(monkeypatch, capsys, argv)
        assert len(forks) - before == min(4, (dim_max - 1) * trials) - 1
        assert forked == _in_process(monkeypatch, lambda: _cli_run(monkeypatch, capsys, argv))
        failed += len(forked[2].failures)
    assert failed > 50 if tol_rank == "0.3" else failed == 0


def test_skipped_pair_leaves_the_generator_where_the_pair_does():
    for n in range(2, 21):
        full, skipped = np.random.default_rng(n), np.random.default_rng(n)
        pair = random_chiral_pair(full, n)
        transformation_checks(pair, build_index_report(pair).index_alpha, full)
        selfcheck._skip_pair(skipped, n)
        assert skipped.bit_generator.state == full.bit_generator.state


@pytest.mark.parametrize("site", ["raise", "exit"])
def test_failed_worker_gives_the_in_process_outcome(monkeypatch, forks, no_child_left, site):
    # Pair 1, of dimension 3, is worker 1's. Raised there, the run is made
    # again in process, which raises the same; a worker that dies without
    # raising is made up for in process too.
    parent = os.getpid()

    def faulty(pair, reference, rng, _checks=transformation_checks):
        if pair.dim == 3 and (site == "raise" or os.getpid() != parent):
            if site == "exit":
                os._exit(3)
            raise ArithmeticError(f"made to fail at dim {pair.dim}")
        return _checks(pair, reference, rng)

    monkeypatch.setattr(selfcheck, "transformation_checks", faulty)
    if site == "raise":
        with pytest.raises(ArithmeticError, match="^made to fail at dim 3$"):
            run_selftest(5, 1, 8)
    else:
        assert run_selftest(5, 1, 8) == _in_process(monkeypatch, lambda: run_selftest(5, 1, 8))
    assert len(forks) == 3


def test_short_runs_stay_in_process(monkeypatch, no_child_left):
    # The 2-pair selftest of the traced benchmark test, among others, is
    # never shared out, however many CPUs are allowed.
    def unused():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", unused)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert selfcheck._worker_count(2 * selfcheck.MIN_SHARE - 1) == 1
    assert selfcheck._worker_count(2 * selfcheck.MIN_SHARE) == 2
    assert run_selftest(3, 1, 4).pairs == 2


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_process_limited_to_one_cpu_runs_in_process():
    # Run in a child process pinned to one CPU, a 30-pair run makes no fork
    # and gives what it gives here.
    script = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "def unused():\n"
        "    raise AssertionError('forked')\n"
        "os.fork = unused\n"
        "from chiralwalk.selfcheck import run_selftest\n"
        "print(repr(run_selftest(16, 2, 5)))\n"
    )
    src = str(Path(selfcheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == repr(run_selftest(16, 2, 5)) + "\n"
