"""Span tracing of chiralwalk from outside the package.

:func:`install` wraps every public function of the six chiralwalk modules
and ``numpy.linalg.svd/eigh/qr`` in place, in the importing process only.
Each wrapped call records a span: name, parent span, start, end, the
operation it belongs to, and for SVDs the computed work m*n*min(m, n).
A function is patched under every name it is looked up by: ``spectral``
imports ``kernel_basis`` by name, while ``subspace_intersection`` reaches
it through ``linalg``'s own globals, so both bindings get the wrapper.
Spans stay in memory; :func:`layer_metrics` reduces them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("cli", "chiral", "spectral", "linalg", "models", "selfcheck")
NUMPY_FUNCTIONS = ("svd", "eigh", "qr")

# Span record fields, kept as a list for low overhead.
NAME, PARENT, START, END, OP, WORK = range(6)


@dataclass
class Tracer:
    """In-memory span recorder; ``op`` labels the spans of the current operation."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    op: int = -1

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0, self.op,
                      work(*args) if work else 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return traced


def svd_work(a, *args) -> int:
    """Computed work of one SVD: m * n * min(m, n) of its (last two) dims."""
    m, n = np.shape(a)[-2:]
    return int(m * n * min(m, n))


def install(tracer: Tracer):
    """Wrap the public functions where they are looked up; return an undo callable."""
    modules = [importlib.import_module(f"chiralwalk.{m}") for m in MODULES]
    wrappers = {}
    for short, module in zip(MODULES, modules):
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                wrappers[obj] = tracer.wrap(f"{short}.{name}", obj)
    patched = []
    for module in [importlib.import_module("chiralwalk"), *modules]:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((module, name, obj))
                setattr(module, name, wrappers[obj])
    for name in NUMPY_FUNCTIONS:
        fn = getattr(np.linalg, name)
        patched.append((np.linalg, name, fn))
        setattr(np.linalg, name, tracer.wrap(f"numpy.linalg.{name}", fn,
                                             svd_work if name == "svd" else None))

    def undo() -> None:
        for module, name, obj in patched:
            setattr(module, name, obj)

    return undo


def span_totals(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self nanoseconds, and work.

    Inclusive time counts a span only when no ancestor has the same
    name, so a recursive call is not counted twice. Self time is the
    span's duration minus its children's durations.
    """
    child_ns = [0] * len(spans)
    for record in spans:
        if record[PARENT] >= 0:
            child_ns[record[PARENT]] += record[END] - record[START]
    totals: dict[str, dict[str, float]] = {}
    for i, record in enumerate(spans):
        duration = record[END] - record[START]
        entry = totals.setdefault(record[NAME], {"calls": 0, "incl_ns": 0, "self_ns": 0,
                                                 "work": 0})
        entry["calls"] += 1
        entry["self_ns"] += duration - child_ns[i]
        entry["work"] += record[WORK]
        parent = record[PARENT]
        while parent >= 0 and spans[parent][NAME] != record[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["incl_ns"] += duration
    return totals


# metric name -> (kind, span names); kind is incl/self seconds, calls or work
LAYER_METRICS = {
    "cli.load_matrix_file_s": ("incl", ["cli.load_matrix_file"]),
    "cli.render_report_s": ("incl", ["cli.render_report"]),
    "cli.main_self_s": ("self", ["cli.main"]),
    "chiral.make_pair_s": ("incl", ["chiral.make_pair"]),
    "chiral.make_pair_calls": ("calls", ["chiral.make_pair"]),
    "chiral.graded_decomposition_s": ("incl", ["chiral.graded_decomposition"]),
    "chiral.graded_decomposition_calls": ("calls", ["chiral.graded_decomposition"]),
    "chiral.super_operators_s": ("incl", ["chiral.super_operators"]),
    "chiral.projection_pair_index_s": ("incl", ["chiral.projection_pair_index"]),
    "chiral.index_alpha_calls": ("calls", ["chiral.index_alpha"]),
    "spectral.build_index_report_self_s": ("self", ["spectral.build_index_report"]),
    "spectral.coisometry_s": ("incl", ["spectral.coisometry"]),
    "spectral.cluster_s": ("incl", ["spectral.cluster_reals", "spectral.cluster_unimodular"]),
    "linalg.kernel_basis_s": ("incl", ["linalg.kernel_basis"]),
    "linalg.kernel_basis_calls": ("calls", ["linalg.kernel_basis"]),
    "linalg.subspace_intersection_s": ("incl", ["linalg.subspace_intersection"]),
    "linalg.subspace_intersection_calls": ("calls", ["linalg.subspace_intersection"]),
    "linalg.eig_unitary_s": ("incl", ["linalg.eig_unitary"]),
    "linalg.eig_hermitian_s": ("incl", ["linalg.eig_hermitian"]),
    "linalg.spans_match_s": ("incl", ["linalg.spans_match"]),
    "linalg.svd_calls": ("calls", ["numpy.linalg.svd"]),
    "linalg.eigh_calls": ("calls", ["numpy.linalg.eigh"]),
    "linalg.qr_calls": ("calls", ["numpy.linalg.qr"]),
    "linalg.svd_s": ("incl", ["numpy.linalg.svd"]),
    "linalg.eigh_s": ("incl", ["numpy.linalg.eigh"]),
    "linalg.svd_work": ("work", ["numpy.linalg.svd"]),
    "models.grover_search_s": ("incl", ["models.grover_search"]),
    "models.search_probability_table_self_s": ("self", ["models.search_probability_table"]),
    "selfcheck.random_chiral_pair_s": ("incl", ["selfcheck.random_chiral_pair"]),
    "selfcheck.transformation_checks_s": ("incl", ["selfcheck.transformation_checks"]),
    "selfcheck.run_selftest_self_s": ("self", ["selfcheck.run_selftest"]),
}
KIND_FIELD = {"incl": "incl_ns", "self": "self_ns", "calls": "calls", "work": "work"}


def layer_metrics(spans: list, ops: int) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` entry as a mean per operation over ``ops``."""
    totals = span_totals(spans)
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        value = sum(totals.get(name, {}).get(KIND_FIELD[kind], 0) for name in names)
        out[metric] = value / ops / (1e9 if kind in ("incl", "self") else 1.0)
    return out
