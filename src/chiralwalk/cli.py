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
order, so identical invocations produce byte-identical output at a
fixed BLAS thread count (a dense report at n >= 64 can move in its last
bits between one and two threads); a report is written field by field in
that order, as the text that ``json.dumps(..., indent=2)`` gives for it.

Exit codes: 0 success, 1 usage, input or validation error, 2 a
report's consistency check failed; ``selftest`` exits 1 when a check of
its battery fails. A pair that validates always gets its report, and
``--dump-matrices`` writes on exit 2 too. Past ``models.MAX_QUBITS``
qubits, the one limit of ``model grover-search`` and ``evolve``, and for
``--dump-matrices`` of a search pair past dimension
``chiral.DENSE_MAX_DIM``, the command exits 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii
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
    # The entry types are checked as sets over all entries and one array
    # is built; the entry-by-entry loop runs only to name the first bad one.
    if ({type(item) for item in data} <= {list, tuple} and {len(item) for item in data} == {2}
            and {type(x) for item in data for x in item} <= {int, float}):
        try:
            entries = np.array(data, dtype=np.float64).view(np.complex128).ravel()
        except OverflowError:
            entries = _entries_one_by_one(path, data)
    else:
        entries = _entries_one_by_one(path, data)
    if not np.all(np.isfinite(entries)):
        raise ValueError(f"{path}: matrix entries must be finite")
    return entries.reshape(dim, dim)


def _entries_one_by_one(path, data: list) -> np.ndarray:
    """The entries of a MatrixFile's ``data``, refusing the first bad one by its index."""
    entries = np.empty(len(data), dtype=np.complex128)
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
    return entries


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
            parts, header = line.split(), vertices is None
            expected = "'vertices <count>'" if header else "'<origin> <terminus>'"
            if len(parts) != 2 or (header and parts[0] != "vertices"):
                raise ValueError(f"{path}:{lineno}: expected {expected}, got {line!r}")
            try:
                numbers = [int(token) for token in (parts[1:] if header else parts)]
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected integers in {expected}, got {line!r}") from None
            if header:
                vertices = numbers[0]
            else:
                edges.append((numbers[0], numbers[1]))
    if vertices is None:
        raise ValueError(f"{path}: missing 'vertices <count>' line")
    return Graph(vertices, tuple(edges))


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(x) -> str:
    """A number as ``json.dumps`` writes it: a float by its repr, NaN and +-inf by name."""
    if isinstance(x, float):
        text = float.__repr__(x)
        return _NONFINITE.get(text, text)
    return int.__repr__(x)


def _items(key: str, items: list[str]) -> str:
    """The top-level list ``key``, its items written at the indent of a list entry."""
    return f'  "{key}": [\n' + ",\n".join(items) + "\n  ]" if items else f'  "{key}": []'


def _spectrum_item(value: str, multiplicity: int) -> str:
    return f'    {{\n      "value": {value},\n      "multiplicity": {multiplicity}\n    }}'


def _check_item(check) -> str:
    detail = (f',\n      "detail": {encode_basestring_ascii(check.detail)}'
              if check.detail else "")
    return (f'    {{\n      "name": {encode_basestring_ascii(check.name)},\n'
            f'      "passed": {"true" if check.passed else "false"},\n'
            f'      "residual": {_number(check.residual)}{detail}\n    }}')


def render_report(report: IndexReport, tol: Tolerance) -> str:
    """The report as JSON: the text ``json.dumps(document, indent=2)`` gives, plus a newline.

    The document has a fixed key order, so it is written field by field:
    floats by ``float.__repr__`` (NaN, Infinity and -Infinity beyond the
    finite), strings escaped to ASCII, and an empty list as ``[]``.
    """
    census = report.census
    return "{\n" + ",\n".join((
        '  "report": "chiral-pair-index"',
        f'  "dim": {_number(report.dim)}',
        f'  "tolerances": {{\n    "structural": {_number(tol.structural)},\n'
        f'    "rank": {_number(tol.rank)},\n    "cluster": {_number(tol.cluster)}\n  }}',
        f'  "flipped": {"true" if report.flipped else "false"}',
        f'  "indices": {{\n    "alpha": {_number(report.index_alpha)},\n'
        f'    "witten": {_number(report.index_witten)},\n'
        f'    "formula": {_number(report.index_formula)},\n'
        f'    "gamma_signature": {_number(report.gamma_signature)}\n  }}',
        f'  "census": {{\n    "m_plus": {_number(census.m_plus)},\n'
        f'    "m_minus": {_number(census.m_minus)},\n'
        f'    "M_plus": {_number(census.M_plus)},\n'
        f'    "M_minus": {_number(census.M_minus)}\n  }}',
        _items("spectrum_u", [_spectrum_item(f"[\n        {_number(float(v.real))},\n"
                                             f"        {_number(float(v.imag))}\n      ]", m)
                              for v, m in report.spectrum_u]),
        _items("spectrum_t", [_spectrum_item(_number(float(v)), m)
                              for v, m in report.spectrum_t]),
        _items("spectrum_h", [_spectrum_item(_number(float(v)), m)
                              for v, m in report.spectrum_h]),
        f'  "mapping_residual": {_number(report.mapping_residual)}',
        f'  "consistent": {"true" if report.consistent else "false"}',
        _items("checks", [_check_item(c) for c in report.checks]),
        _items("warnings", [f"    {encode_basestring_ascii(w)}" for w in report.warnings]),
    )) + "\n}\n"


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _dump_matrices(args, matrices) -> None:
    if args.dump_matrices:
        directory = Path(args.dump_matrices)
        directory.mkdir(parents=True, exist_ok=True)
        save_matrix_file(directory / "u.json", matrices[0])
        save_matrix_file(directory / "gamma.json", matrices[1])


def _tolerance(args) -> Tolerance:
    values = (args.tol_structural, args.tol_rank, args.tol_cluster)
    # The default flags give the default tolerance, which is not built again.
    return DEFAULT_TOL if values == _DEFAULT_VALUES else Tolerance(*values)


_DEFAULT_VALUES = (DEFAULT_TOL.structural, DEFAULT_TOL.rank, DEFAULT_TOL.cluster)


def _report_and_emit(args, pair) -> int:
    # Read first, so a pair that refuses to form them writes nothing.
    matrices = (pair.u, pair.gamma) if args.dump_matrices else None
    report = build_index_report(pair)
    _emit(args, render_report(report, pair.tol))
    _dump_matrices(args, matrices)
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
    """The per-site angles of ``--angles``: listed, or drawn from ``random:<seed>``.

    Only text that cannot be read is refused here. For a cycle length
    below one no angle is drawn, and :func:`split_step_cycle` refuses the
    length by name.
    """
    seed = text.removeprefix("random:")
    try:
        if seed == text:
            return tuple(float(part) for part in text.split(","))
        rng = np.random.default_rng(int(seed))
    except ValueError:
        raise ValueError(f"--angles: expected comma-separated radians or "
                         f"'random:<non-negative integer seed>', got {text!r}") from None
    return tuple(float(a) for a in rng.uniform(0.0, 2.0 * np.pi, max(sites, 0)))


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


# Every negative number that float() reads, exponent, inf, nan and single
# underscores between digits included; argparse's own pattern takes only
# plain decimals such as -5 or -0.25.
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-({_DIGITS}\.?(?:{_DIGITS})?|\.{_DIGITS})(e[-+]?{_DIGITS})?$|^-(inf|infinity|nan)$",
    re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """A parser that reads ``-1e-20``, ``-inf`` and ``-1_0`` as values, as it reads ``-5``.

    No flag of this program looks like a number, so such a token after a
    flag is that flag's value. Subparsers are made of this class too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


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

    parser = _Parser(
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
