"""The traced run: nesting, coverage of the six modules, repeatable counts."""

import numpy as np
import pytest
from chiralwalk import cli, linalg, spectral

import tracing
import workloads
from worker import run_op

ARGVS = (
    ["index", "u.json", "g.json"],
    ["model", "grover-search", "--qubits", "2", "--target", "2"],
    ["evolve", "--qubits", "2", "--target", "1", "--steps", "3"],
    ["selftest", "--dim-max", "3", "--trials", "1", "--seed", "4"],
)


@pytest.fixture
def traced(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    gamma = workloads.reflection(rng, 6, 2)
    workloads.write_matrix_file(tmp_path / "u.json", gamma @ workloads.reflection(rng, 6, 4))
    workloads.write_matrix_file(tmp_path / "g.json", gamma)
    monkeypatch.chdir(tmp_path)

    def trace_once():
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            for op, argv in enumerate(ARGVS):
                tracer.op = op
                _, code, _, _ = run_op(cli, argv)
                assert code == 0, argv
        finally:
            undo()
        return tracer.spans

    return trace_once


def test_children_lie_inside_parents(traced):
    spans = traced()
    assert spans
    for record in spans:
        parent = record[tracing.PARENT]
        assert record[tracing.START] <= record[tracing.END]
        if parent >= 0:
            outer = spans[parent]
            assert outer[tracing.START] <= record[tracing.START]
            assert record[tracing.END] <= outer[tracing.END]
            assert outer[tracing.OP] == record[tracing.OP]


def test_spans_cover_six_modules_and_numpy(traced):
    names = {record[tracing.NAME] for record in traced()}
    layers = {name.rsplit(".", 1)[0] for name in names}
    assert set(tracing.MODULES) <= layers
    assert {"numpy.linalg.svd", "numpy.linalg.eigh", "numpy.linalg.qr"} <= names
    # looked up by name in spectral, and through linalg's globals
    assert "linalg.kernel_basis" in names and "linalg.subspace_intersection" in names


def test_counts_repeat_exactly(traced):
    def counts(spans):
        metrics = tracing.layer_metrics(spans, len(ARGVS))
        return {k: v for k, v in metrics.items() if k.endswith(("_calls", "_work"))}

    first = counts(traced())
    assert first == counts(traced())
    assert first["linalg.svd_calls"] > 0 and first["linalg.svd_work"] > 0


def test_install_undo_restores_lookup_sites():
    originals = (cli.main, spectral.kernel_basis, linalg.kernel_basis, np.linalg.svd)
    undo = tracing.install(tracing.Tracer())
    assert spectral.kernel_basis is not originals[1]
    assert linalg.kernel_basis is spectral.kernel_basis
    undo()
    assert (cli.main, spectral.kernel_basis, linalg.kernel_basis, np.linalg.svd) == originals


def test_self_time_excludes_children():
    spans = [
        ["a", -1, 0, 100, 0, 0],
        ["b", 0, 10, 40, 0, 0],
        ["a", 1, 15, 35, 0, 0],
        ["b", 0, 50, 60, 0, 0],
    ]
    totals = tracing.span_totals(spans)
    assert totals["a"]["incl_ns"] == 100  # the nested "a" is not counted twice
    assert totals["a"]["self_ns"] == (100 - 30 - 10) + 20
    assert totals["b"]["self_ns"] == (30 - 20) + 10
    assert totals["b"]["calls"] == 2
