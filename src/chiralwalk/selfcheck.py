"""Randomized invariant battery over generated chiral pairs.

Pairs are produced as products of two random unitary involutions, each
built as a reflection 2P - 1 through a Haar-random subspace of random
dimension; that construction is exactly involutory up to roundoff and
exercises every grading signature. The battery combines the per-pair
report checks with invariances under sign flips, inversion, unitary
conjugation, and coin re-randomization. Each transformed pair is built
and validated by ``make_pair``, and its index is compared with the
report's. Nothing is computed twice: the pair keeps the eigenspaces of
its grading that its report computed, and the three transforms that keep
the grading read them there, so a pair's grading and coin are each
eigensolved once; the negated and the conjugated grading are each
factorized on their own, so those checks stay independent; and each
index is read from singular values alone. Pair k of a run, and its
battery, are drawn from their own generator, seeded with ``[seed, k]``;
so the pairs can be shared out among forked workers, one per allowed CPU
(:func:`run_selftest`), and the result is the same for any number of them.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .chiral import ChiralPair, _graded_index, index_alpha, make_pair
from .linalg import DEFAULT_TOL, Tolerance
from .models import Graph
from .spectral import CheckResult, build_index_report


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary from the QR factorization of a Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_involution(rng: np.random.Generator, n: int, plus_dim: int | None = None) -> np.ndarray:
    """Reflection 2P - 1 through a Haar-random subspace.

    ``plus_dim`` fixes the dimension of the +1 eigenspace; by default it
    is drawn uniformly from 0..n so all signatures occur.
    """
    if plus_dim is None:
        plus_dim = int(rng.integers(0, n + 1))
    basis = haar_unitary(rng, n)[:, :plus_dim]
    return 2.0 * basis @ basis.conj().T - np.eye(n)


def random_chiral_pair(rng: np.random.Generator, n: int, tol: Tolerance = DEFAULT_TOL) -> ChiralPair:
    """Random valid pair: grading times an independent random coin."""
    gamma = random_involution(rng, n)
    coin = random_involution(rng, n)
    return make_pair(gamma @ coin, gamma, tol)


def random_connected_multigraph(
    rng: np.random.Generator, vertices: int, edges: int, self_loops: int = 0
) -> Graph:
    """Connected multigraph: random spanning tree, extra edges, self-loops."""
    base = vertices - 1 + self_loops
    if edges < base:
        raise ValueError(
            f"{edges} edges cannot connect {vertices} vertices "
            f"and host {self_loops} self-loops"
        )
    order = rng.permutation(vertices)
    edge_list = []
    for i in range(1, vertices):
        parent = int(order[rng.integers(0, i)])
        edge_list.append((parent, int(order[i])))
    for _ in range(edges - base):
        edge_list.append((int(rng.integers(0, vertices)), int(rng.integers(0, vertices))))
    for _ in range(self_loops):
        v = int(rng.integers(0, vertices))
        edge_list.append((v, v))
    return Graph(vertices, tuple(edge_list))


def transformation_checks(
    pair: ChiralPair, reference: int, rng: np.random.Generator
) -> list[CheckResult]:
    """Index invariance under the standard pair transformations.

    Negating the evolution or taking its adjoint preserves the index;
    negating the grading negates it; conjugating both members by any
    unitary preserves it; and so does replacing the coin by an arbitrary
    fresh involution, the finite-rank perturbation statement. Each
    transformed pair is built and validated by :func:`make_pair`, and its
    index is compared with ``reference``, the index of ``pair`` itself
    (the ``index_alpha`` of its report). The three transforms that keep
    the grading share its eigenspaces as ``pair`` keeps them, computed by
    its report when that has run, else here once; the negated and the
    conjugated grading are each factorized afresh.
    """
    tol = pair.tol
    n = pair.dim
    # make_pair keeps the grading it is given, so the pairs built on this
    # one share its eigenspaces.
    graded = pair.ops.reduced(pair).spaces("gamma")

    def result(name: str, index: int, expected: int) -> CheckResult:
        res = float(abs(index - expected))
        return CheckResult(name, res == 0.0, res)

    def same_grading(u: np.ndarray) -> int:
        return _graded_index(make_pair(u, pair.gamma, tol), *graded)

    results = [
        result("index_negated_evolution", same_grading(-pair.u), reference),
        result("index_negated_grading",
               index_alpha(make_pair(pair.u, -pair.gamma, tol)), -reference),
        result("index_inverse_evolution", same_grading(pair.u.conj().T), reference),
    ]
    v = haar_unitary(rng, n)
    conjugated = make_pair(v @ pair.u @ v.conj().T, v @ pair.gamma @ v.conj().T, tol)
    results.append(result("index_unitary_conjugation", index_alpha(conjugated), reference))
    fresh_coin = random_involution(rng, n)
    results.append(result("index_coin_perturbation",
                          same_grading(pair.gamma @ fresh_coin), reference))
    return results


@dataclass(frozen=True)
class SelftestResult:
    """Aggregated pass counts of the invariant battery."""

    pairs: int
    passes: dict[str, int]
    totals: dict[str, int]
    failures: tuple[tuple[int, str, float], ...]  # (dim, check name, residual)

    @property
    def all_passed(self) -> bool:
        return not self.failures


# Fewest pairs a forked worker takes. Forking a process that has imported
# numpy, and reaping it, takes 3-4 ms; with the copy-on-write faults that
# both sides then take, a second worker costs about 8 ms, as much as four
# to six pairs of dimension 2-8. On 2 CPUs, runs of 14 such pairs or fewer
# gained nothing from a second worker and runs of 15 or more did.
MIN_SHARE = 8


def run_selftest(
    dim_max: int, trials: int, seed: int, tol: Tolerance = DEFAULT_TOL
) -> SelftestResult:
    """Run the full battery on ``trials`` random pairs per dimension 2..dim_max.

    Pair k and its battery are drawn from ``np.random.default_rng([seed, k])``,
    so the pairs are independent, and on Linux they are shared out among
    forked workers on the allowed CPUs (see :func:`_worker_count`). The
    result is the in-process one either way, and a run in which any worker
    fails is run again in process, so that it raises what the in-process
    run raises.
    """
    if dim_max < 2:
        raise ValueError(f"dim_max must be at least 2, got {dim_max}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    dims = [dim for dim in range(2, dim_max + 1) for _ in range(trials)]
    workers = _worker_count(len(dims))
    records = _forked(dims, seed, tol, workers) if workers > 1 else None
    if records is None:
        records = _share(dims, seed, tol, 0, 1)
    passes: dict[str, int] = {}
    totals: dict[str, int] = {}
    failures: list[tuple[int, str, float]] = []
    for _, dim, checks in records:
        for check in checks:
            totals[check.name] = totals.get(check.name, 0) + 1
            if check.passed:
                passes[check.name] = passes.get(check.name, 0) + 1
            else:
                passes.setdefault(check.name, 0)
                failures.append((dim, check.name, check.residual))
    return SelftestResult(
        pairs=len(dims), passes=passes, totals=totals, failures=tuple(failures)
    )


def _worker_count(pairs: int) -> int:
    """One worker per allowed CPU, but none with fewer than MIN_SHARE pairs."""
    if not hasattr(os, "sched_getaffinity"):  # not Linux
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), pairs // MIN_SHARE))


def _share(
    dims: list[int], seed: int, tol: Tolerance, worker: int, workers: int
) -> list[tuple[int, int, list[CheckResult]]]:
    """``(k, dim, checks)`` for each pair k with ``k % workers == worker``, in order."""
    records = []
    for k in range(worker, len(dims), workers):
        rng = np.random.default_rng([seed, k])
        pair = random_chiral_pair(rng, dims[k], tol)
        report = build_index_report(pair)
        battery = transformation_checks(pair, report.index_alpha, rng)
        records.append((k, dims[k], list(report.checks) + battery))
    return records


def _forked(
    dims: list[int], seed: int, tol: Tolerance, workers: int
) -> list[tuple[int, int, list[CheckResult]]] | None:
    """Every pair's record, from this process and ``workers - 1`` forked ones.

    This process is worker 0. A child pickles its records into a pipe
    once they are all made, and leaves by ``os._exit``; a child that
    fails sends no whole pickle. The records come back in pair order, or
    None if any worker failed; either way every child has been reaped.
    """
    children: dict[int, int] = {}  # pid -> read end of its pipe
    complete = False
    try:
        for worker in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    with open(write, "wb") as sink:
                        pickle.dump(_share(dims, seed, tol, worker, workers), sink)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children[pid] = read
        records = _share(dims, seed, tol, 0, workers)
        for read in children.values():
            with open(read, "rb", closefd=False) as source:
                records += pickle.loads(source.read())
        complete = True
    except Exception:
        pass
    finally:
        for pid, read in children.items():
            os.close(read)
            if not complete:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return sorted(records, key=lambda record: record[0]) if complete else None
