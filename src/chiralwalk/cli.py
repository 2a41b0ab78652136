"""Command line front end.

Commands

* ``index U.json Gamma.json`` -- validate a pair from matrix files and
  report spectra, census, and all index routes.
* ``model {grover-search,grover-walk,split-step,toy2,toy4}`` -- build one
  of the bundled models and report on it.
* ``evolve`` -- print the search walk's success-probability table.
* ``selftest`` -- run the randomized invariant battery.

Matrix files are JSON documents ``{"dim": n, "data": [[re, im], ...]}``
with ``dim**2`` row-major entries. Graph files are plain text: a
``vertices <count>`` line followed by one ``<origin> <terminus>`` pair
per line; ``#`` starts a comment. Reports are JSON with a fixed key
order, so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 usage, input or validation error, 2 a
consistency check failed. A pair that validates always gets its report,
and ``--dump-matrices`` writes on exit 2 too.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .chiral import make_pair
from .errors import ChiralWalkError, InconsistencyDetected
from .linalg import DEFAULT_TOL, Tolerance
from .models import (
    Graph,
    SplitStepParams,
    grover_search,
    grover_walk,
    search_probability_table,
    split_step_cycle,
    toy_four_dim,
    toy_two_dim,
)
from .selfcheck import run_selftest
from .spectral import IndexReport, build_index_report


def load_matrix_file(path) -> np.ndarray:
    """Read a MatrixFile document into a complex square matrix."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "dim" not in doc or "data" not in doc:
        raise ValueError(f"{path}: matrix file needs 'dim' and 'data' fields")
    dim = doc["dim"]
    data = doc["data"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"{path}: 'dim' must be a positive integer")
    if not isinstance(data, list) or len(data) != dim * dim:
        raise ValueError(f"{path}: 'data' must list exactly dim**2 entries")
    entries = np.empty(dim * dim, dtype=np.complex128)
    for k, item in enumerate(data):
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in item)
        ):
            raise ValueError(f"{path}: entry {k} is not a [re, im] pair")
        try:
            entries[k] = complex(item[0], item[1])
        except OverflowError:
            raise ValueError(f"{path}: entry {k} lies beyond the float range") from None
    if not np.all(np.isfinite(entries)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return entries.reshape(dim, dim)


def save_matrix_file(path, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype=np.complex128)
    doc = {
        "dim": int(m.shape[0]),
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_graph_file(path) -> Graph:
    """Read a GraphFile document: vertex count line, then edge lines."""
    vertices = None
    edges: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if vertices is None:
                if len(parts) != 2 or parts[0] != "vertices":
                    raise ValueError(
                        f"{path}:{lineno}: expected 'vertices <count>', got {line!r}"
                    )
                vertices = int(parts[1])
                continue
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected '<origin> <terminus>', got {line!r}"
                )
            edges.append((int(parts[0]), int(parts[1])))
    if vertices is None:
        raise ValueError(f"{path}: missing 'vertices <count>' line")
    return Graph(vertices, tuple(edges))


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def report_document(report: IndexReport, tol: Tolerance) -> dict:
    """Report as a JSON-ready dict with deterministic key order."""
    return {
        "report": "chiral-pair-index",
        "dim": report.dim,
        "tolerances": {
            "structural": tol.structural,
            "rank": tol.rank,
            "cluster": tol.cluster,
        },
        "flipped": report.flipped,
        "indices": {
            "alpha": report.index_alpha,
            "witten": report.index_witten,
            "formula": report.index_formula,
            "gamma_signature": report.gamma_signature,
        },
        "census": {
            "m_plus": report.census.m_plus,
            "m_minus": report.census.m_minus,
            "M_plus": report.census.M_plus,
            "M_minus": report.census.M_minus,
        },
        "spectrum_u": [
            {"value": _complex_pair(v), "multiplicity": m} for v, m in report.spectrum_u
        ],
        "spectrum_t": [
            {"value": float(v), "multiplicity": m} for v, m in report.spectrum_t
        ],
        "spectrum_h": [
            {"value": float(v), "multiplicity": m} for v, m in report.spectrum_h
        ],
        "mapping_residual": report.mapping_residual,
        "consistent": report.consistent,
        "checks": [
            {"name": c.name, "passed": c.passed, "residual": c.residual}
            | ({"detail": c.detail} if c.detail else {})
            for c in report.checks
        ],
        "warnings": list(report.warnings),
    }


def render_report(report: IndexReport, tol: Tolerance) -> str:
    return json.dumps(report_document(report, tol), indent=2) + "\n"


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dump_matrices(args, pair) -> None:
    if args.dump_matrices:
        directory = Path(args.dump_matrices)
        directory.mkdir(parents=True, exist_ok=True)
        save_matrix_file(directory / "u.json", pair.u)
        save_matrix_file(directory / "gamma.json", pair.gamma)


def _tolerance(args) -> Tolerance:
    return Tolerance(
        structural=args.tol_structural,
        rank=args.tol_rank,
        cluster=args.tol_cluster,
    )


def _report_and_emit(args, pair) -> int:
    report = build_index_report(pair)
    _emit(args, render_report(report, pair.tol))
    _dump_matrices(args, pair)
    failed = [c for c in report.checks if not c.passed]
    if failed:
        exc = InconsistencyDetected(failed[0].name, failed[0].residual)
        print(f"inconsistency: {exc}", file=sys.stderr)
    return 2 if failed else 0


def cmd_index(args) -> int:
    tol = _tolerance(args)
    u = load_matrix_file(args.u_file)
    gamma = load_matrix_file(args.gamma_file)
    pair = make_pair(u, gamma, tol)
    return _report_and_emit(args, pair)


def _parse_angles(text: str, sites: int) -> tuple[float, ...]:
    if text.startswith("random:"):
        seed = int(text.split(":", 1)[1])
        rng = np.random.default_rng(seed)
        return tuple(float(a) for a in rng.uniform(0.0, 2.0 * np.pi, sites))
    return tuple(float(part) for part in text.split(","))


def cmd_model(args) -> int:
    tol = _tolerance(args)
    if args.model == "grover-search":
        pair = grover_search(args.qubits, args.target, tol)
    elif args.model == "grover-walk":
        pair = grover_walk(load_graph_file(args.graph), tol)
    elif args.model == "split-step":
        params = SplitStepParams(
            sites=args.sites,
            p=args.p,
            q=complex(args.q_re, args.q_im),
            coin_angles=_parse_angles(args.angles, args.sites),
        )
        pair = split_step_cycle(params, tol)
    elif args.model == "toy2":
        pair = toy_two_dim(args.beta, args.gamma, tol)
    else:
        pair = toy_four_dim(args.variant, tol)
    return _report_and_emit(args, pair)


def cmd_evolve(args) -> int:
    rows = search_probability_table(args.qubits, args.target, args.steps, args.measure)
    lines = [f"{step}, {prob!r}, {total!r}" for step, prob, total in rows]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_selftest(args) -> int:
    tol = _tolerance(args)
    result = run_selftest(args.dim_max, args.trials, args.seed, tol)
    lines = [f"pairs: {result.pairs}"]
    for name in sorted(result.totals):
        lines.append(f"{name}: {result.passes[name]}/{result.totals[name]}")
    lines.append(f"failures: {len(result.failures)}")
    for dim, name, residual in result.failures:
        lines.append(f"  dim {dim}: {name} residual {residual:.6e}")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if result.all_passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser as it was.
    # Flags that act only on some commands are declared only there, so a
    # misplaced one is a usage error instead of being ignored.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    shared = argparse.ArgumentParser(add_help=False, parents=[output])
    shared.add_argument("--tol-structural", type=float, default=DEFAULT_TOL.structural,
                        help="residual bound for structural identities")
    shared.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank,
                        help="relative singular-value cutoff for rank decisions")
    shared.add_argument("--tol-cluster", type=float, default=DEFAULT_TOL.cluster,
                        help="gap below which eigenvalues are grouped")
    reported = argparse.ArgumentParser(add_help=False, parents=[shared])
    reported.add_argument("--dump-matrices", metavar="DIR", default=None,
                          help="write the pair's matrices to DIR as MatrixFiles")

    parser = argparse.ArgumentParser(
        prog="chiralwalk",
        description="Index theory for chiral-symmetric quantum walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", parents=[reported],
                             help="report on a pair read from matrix files")
    p_index.add_argument("u_file", help="MatrixFile with the evolution")
    p_index.add_argument("gamma_file", help="MatrixFile with the grading involution")
    p_index.set_defaults(func=cmd_index)

    p_model = sub.add_parser("model", help="build a bundled model and report on it")
    model_sub = p_model.add_subparsers(dest="model", required=True)

    p = model_sub.add_parser("grover-search", parents=[reported])
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(func=cmd_model)

    p = model_sub.add_parser("grover-walk", parents=[reported])
    p.add_argument("--graph", required=True, help="GraphFile path")
    p.set_defaults(func=cmd_model)

    p = model_sub.add_parser("split-step", parents=[reported])
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q-re", type=float, required=True)
    p.add_argument("--q-im", type=float, default=0.0)
    p.add_argument("--angles", required=True,
                   help="comma list of per-site angles, or random:<seed>")
    p.set_defaults(func=cmd_model)

    p = model_sub.add_parser("toy2", parents=[reported])
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.set_defaults(func=cmd_model)

    p = model_sub.add_parser("toy4", parents=[reported])
    p.add_argument("--variant", type=int, required=True, choices=range(1, 6))
    p.set_defaults(func=cmd_model)

    p_evolve = sub.add_parser("evolve", parents=[output],
                              help="success-probability table of the search walk")
    p_evolve.add_argument("--qubits", type=int, required=True)
    p_evolve.add_argument("--target", type=int, required=True)
    p_evolve.add_argument("--steps", type=int, required=True)
    p_evolve.add_argument("--measure", type=int, default=None,
                          help="position to measure (defaults to the target)")
    p_evolve.set_defaults(func=cmd_evolve)

    p_self = sub.add_parser("selftest", parents=[shared],
                            help="run the randomized invariant battery")
    p_self.add_argument("--dim-max", type=int, default=8)
    p_self.add_argument("--trials", type=int, default=10)
    p_self.add_argument("--seed", type=int, default=0,
                        help="seed of the random pairs")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a failed check here.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except InconsistencyDetected as exc:
        # raised outside report assembly, by make_pair's derived-coin checks
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 2
    except (ChiralWalkError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
