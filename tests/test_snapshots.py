"""CLI outputs compared with a stored snapshot of earlier outputs.

Each invocation below runs in-process; its exit code, stdout and stderr
must match the snapshot in ``data/cli_snapshots.json``. Text, JSON keys,
booleans, strings and integers must match exactly, floats to within
``FLOAT_TOL``, and floats on stderr (the residual of a failed check) are
not compared. Input files are written to a temporary directory, named
``{dir}`` in the stored command lines.

Beside them, ``data/report_golden.json`` holds the rendered report of
three seeded random pairs per dimension 2..16, compared byte for byte:
the per-pair code paths of the report (its small-array helpers, phases
and eigensolves) must not move a single digit. ``data/search_golden.json``
holds the rendered report of the search pair on 1..10 qubits at three
targets each (two on one qubit, which has two positions), also compared
byte for byte. ``data/narrow_golden.json`` holds, byte for byte too, the
rendered report of seeded dense pairs of dimension 64..256 that take the
narrow-side routes: a narrow grading with a narrow coin, a balanced
grading with a narrow coin (the walk's invariant subspace L), a narrow
grading with a trivial coin, and a graph walk with 4V <= 2E.

``render_report`` writes the report field by field; :func:`reference_document`
is the document it writes, and ``json.dumps(document, indent=2)`` of it is
the text it must equal on every report here.

Regenerate the snapshots only when a change of output is intended::

    PYTHONPATH=src python tests/test_snapshots.py
"""

import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from chiralwalk.cli import main, render_report, save_matrix_file
from chiralwalk.chiral import make_pair
from chiralwalk.models import grover_search, grover_walk
from chiralwalk import cli
from chiralwalk.linalg import DEFAULT_TOL, Tolerance
from chiralwalk.selfcheck import haar_unitary, random_chiral_pair, random_connected_multigraph
from chiralwalk.spectral import CheckResult, build_index_report

DATA = Path(__file__).resolve().parent / "data" / "cli_snapshots.json"
GOLDEN = DATA.with_name("report_golden.json")
GOLDEN_DIMS, GOLDEN_DRAWS = range(2, 17), 3
SEARCH_GOLDEN = DATA.with_name("search_golden.json")
SEARCH_QUBITS = range(1, 11)
NARROW_GOLDEN = DATA.with_name("narrow_golden.json")
# (n, grading's +1 dimension, coin's narrow side dimension, real, that side
# at -1): k, the grading's smaller side, and c both at most n/4 with c <= k
# and c > k; a balanced grading; and a trivial coin, c = 0.
NARROW_PAIRS = [
    (64, 16, 8, True, False), (64, 56, 12, False, True),
    (128, 20, 12, False, True), (128, 116, 20, True, False),
    (256, 40, 30, True, True), (256, 226, 40, False, False),
    (128, 64, 16, True, False), (192, 96, 40, False, True),
    (96, 20, 0, True, False), (128, 100, 0, False, True),
]
NARROW_GRAPH = (20, 80)
FLOAT_TOL = 1e-12
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")

GRAPHS = {
    "triangle.g": "vertices 3\n0 1\n1 2\n2 0\n",
    "k4.g": "vertices 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
}
INDEX_SEED = 12

INVOCATIONS = [
    *(["model", "grover-search", "--qubits", str(q), "--target", str(t)]
      for q, t in ((1, 0), (3, 5), (5, 7), (6, 9))),
    *(["model", "toy4", "--variant", str(v)] for v in (1, 3, 5)),
    ["model", "toy2", "--beta", "0.3", "--gamma", "1.0"],
    ["model", "toy2", "--beta", "1e-9", "--gamma", "0.3"],
    *(["model", "grover-walk", "--graph", "{dir}/" + name] for name in GRAPHS),
    *(["model", "split-step", "--sites", str(s), "--p", "0.6", "--q-re", "0.8",
       "--angles", "random:7"] for s in (8, 16, 64)),
    ["index", "{dir}/u.json", "{dir}/gamma.json"],
    ["selftest", "--dim-max", "8", "--trials", "2", "--seed", "5"],
    ["evolve", "--qubits", "4", "--target", "5", "--steps", "20"],
    # Flags declared only where they act: elsewhere they are usage errors.
    ["evolve", "--qubits", "4", "--target", "5", "--steps", "20", "--dump-matrices", "m"],
    ["model", "toy2", "--beta", "0.3", "--gamma", "1.0", "--seed", "3"],
]


def write_inputs(directory: Path) -> None:
    for name, text in GRAPHS.items():
        (directory / name).write_text(text, encoding="utf-8")
    pair = random_chiral_pair(np.random.default_rng(INDEX_SEED), 12)
    save_matrix_file(directory / "u.json", pair.u)
    save_matrix_file(directory / "gamma.json", pair.gamma)


def run(argv: list[str], directory: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([arg.replace("{dir}", str(directory)) for arg in argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def split_numbers(text: str) -> tuple[list[str], list[str]]:
    """The text between numbers, and the numbers themselves."""
    return NUMBER.split(text), NUMBER.findall(text)


def is_int(token: str) -> bool:
    return not any(c in token for c in ".eE")


def assert_same_text(got: str, want: str, compare_floats: bool) -> None:
    got_text, got_numbers = split_numbers(got)
    want_text, want_numbers = split_numbers(want)
    assert got_text == want_text
    for g, w in zip(got_numbers, want_numbers):
        assert is_int(g) == is_int(w), (g, w)
        if is_int(w):
            assert g == w
        elif compare_floats:
            assert abs(float(g) - float(w)) <= FLOAT_TOL, (g, w)


@pytest.fixture(scope="module")
def snapshots():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_snapshot_covers_every_invocation(snapshots):
    assert [s["argv"] for s in snapshots] == INVOCATIONS


@pytest.mark.parametrize("index", range(len(INVOCATIONS)), ids=[
    f"{i:02d}-{argv[1] if argv[0] == 'model' else argv[0]}" for i, argv in enumerate(INVOCATIONS)])
def test_output_matches_snapshot(index, snapshots, tmp_path):
    write_inputs(tmp_path)
    got, want = run(INVOCATIONS[index], tmp_path), snapshots[index]
    assert got["exit"] == want["exit"]
    assert_same_text(got["stdout"], want["stdout"], compare_floats=True)
    assert_same_text(got["stderr"], want["stderr"], compare_floats=False)


def golden_reports() -> list[dict]:
    """The rendered report of draw ``k`` at dimension ``n``, seeded by ``(n, k)``."""
    records = []
    for n in GOLDEN_DIMS:
        for k in range(GOLDEN_DRAWS):
            pair = random_chiral_pair(np.random.default_rng([n, k]), n)
            records.append({"dim": n, "draw": k,
                            "report": render_report(build_index_report(pair), pair.tol)})
    return records


def test_random_pair_reports_match_golden_bytes():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for got, stored in zip(golden_reports(), want, strict=True):
        assert got == stored, (stored["dim"], stored["draw"])


def reference_document(report, tol) -> dict:
    """The report as a JSON-ready dict with the key order ``render_report`` writes."""
    return {
        "report": "chiral-pair-index",
        "dim": report.dim,
        "tolerances": {"structural": tol.structural, "rank": tol.rank,
                       "cluster": tol.cluster},
        "flipped": report.flipped,
        "indices": {"alpha": report.index_alpha, "witten": report.index_witten,
                    "formula": report.index_formula,
                    "gamma_signature": report.gamma_signature},
        "census": {"m_plus": report.census.m_plus, "m_minus": report.census.m_minus,
                   "M_plus": report.census.M_plus, "M_minus": report.census.M_minus},
        "spectrum_u": [{"value": [float(v.real), float(v.imag)], "multiplicity": m}
                       for v, m in report.spectrum_u],
        "spectrum_t": [{"value": float(v), "multiplicity": m} for v, m in report.spectrum_t],
        "spectrum_h": [{"value": float(v), "multiplicity": m} for v, m in report.spectrum_h],
        "mapping_residual": report.mapping_residual,
        "consistent": report.consistent,
        "checks": [{"name": c.name, "passed": c.passed, "residual": c.residual}
                   | ({"detail": c.detail} if c.detail else {}) for c in report.checks],
        "warnings": list(report.warnings),
    }


def assert_written_as_reference(report, tol) -> None:
    assert render_report(report, tol) == json.dumps(
        reference_document(report, tol), indent=2) + "\n"


def test_writer_matches_reference_on_golden_pairs():
    for n in GOLDEN_DIMS:
        for k in range(GOLDEN_DRAWS):
            pair = random_chiral_pair(np.random.default_rng([n, k]), n)
            assert_written_as_reference(build_index_report(pair), pair.tol)


def test_writer_matches_reference_on_snapshot_reports(monkeypatch, tmp_path):
    written = []

    def recorded(report, tol, _fn=cli.render_report):
        assert_written_as_reference(report, tol)
        written.append(report)
        return _fn(report, tol)

    monkeypatch.setattr(cli, "render_report", recorded)
    write_inputs(tmp_path)
    reports = [run(argv, tmp_path)["stdout"].startswith("{") for argv in INVOCATIONS]
    assert len(written) == sum(reports) > 0


def test_writer_matches_reference_on_edge_values():
    # Non-finite and signed-zero residuals, a check with a detail, warnings
    # that need escaping, and empty spectra; tolerances at their extremes.
    base = build_index_report(random_chiral_pair(np.random.default_rng(3), 6))
    checks = tuple(CheckResult(f"check_{k}", k % 2 == 0, value, detail)
                   for k, (value, detail) in enumerate((
                       (math.nan, ""), (math.inf, "x"), (-math.inf, ""), (-0.0, "\u00e9 \"q\""),
                       (0.0, "cluster count mismatch"), (1e-300, ""), (5e-324, "\n\t"),
                       (1.7976931348623157e308, ""), (0.1, ""), (3, ""))))
    reports = [
        dataclasses.replace(base, checks=checks, mapping_residual=math.nan,
                            warnings=("a", "b \\ \u03b2", "")),
        dataclasses.replace(base, spectrum_u=(), spectrum_t=(), spectrum_h=(), checks=(),
                            warnings=(), mapping_residual=-0.0, consistent=False),
        dataclasses.replace(base, spectrum_u=((complex(-0.0, math.inf), 2),
                                              (complex(math.nan, -1.0), 1)),
                            spectrum_t=((-0.0, 1), (math.inf, 3)), mapping_residual=math.inf),
    ]
    for report in reports:
        for tol in (DEFAULT_TOL, Tolerance(2.220446049250313e-16, 0.999999, 1e-3)):
            assert_written_as_reference(report, tol)


def search_targets(qubits: int) -> list[int]:
    """The first, a middle and the last position, each once."""
    return sorted({0, 2**qubits // 3, 2**qubits - 1})


def search_reports() -> list[dict]:
    """The rendered report of the search pair on ``qubits`` qubits at ``target``."""
    records = []
    for q in SEARCH_QUBITS:
        for t in search_targets(q):
            pair = grover_search(q, t)
            records.append({"qubits": q, "target": t,
                            "report": render_report(build_index_report(pair), pair.tol)})
    return records


def test_search_reports_match_golden_bytes():
    want = json.loads(SEARCH_GOLDEN.read_text(encoding="utf-8"))
    for got, stored in zip(search_reports(), want, strict=True):
        assert got == stored, (stored["qubits"], stored["target"])


def _reflection(rng: np.random.Generator, n: int, plus_dim: int, real: bool) -> np.ndarray:
    w = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else haar_unitary(rng, n)
    return 2.0 * w[:, :plus_dim] @ w[:, :plus_dim].conj().T - np.eye(n)


def narrow_reports() -> list[dict]:
    """The rendered report of each ``NARROW_PAIRS`` pair, seeded by its row, and of the graph walk."""
    records = []
    for seed, (n, plus_dim, c, real, minus) in enumerate(NARROW_PAIRS):
        rng = np.random.default_rng([n, seed])
        gamma = _reflection(rng, n, plus_dim, real)
        pair = make_pair(gamma @ _reflection(rng, n, n - c if minus else c, real), gamma)
        records.append({"pair": [n, plus_dim, c, real, minus],
                        "report": render_report(build_index_report(pair), pair.tol)})
    vertices, edges = NARROW_GRAPH
    pair = grover_walk(random_connected_multigraph(np.random.default_rng(vertices), vertices, edges))
    records.append({"graph": [vertices, edges],
                    "report": render_report(build_index_report(pair), pair.tol)})
    return records


def narrow_reports_one_thread() -> list[dict]:
    """:func:`narrow_reports` in a child process with one BLAS thread.

    A dense report at n >= 64 moves in its last bits with the BLAS thread
    count, which is fixed when numpy loads, so the narrow golden is written
    and compared at one thread.
    """
    one_thread = {name: "1" for name in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    path = os.pathsep.join([str(Path(__file__).resolve().parent),
                            str(Path(cli.__file__).resolve().parents[1])])
    child = "import json, test_snapshots; print(json.dumps(test_snapshots.narrow_reports()))"
    result = subprocess.run([sys.executable, "-c", child], env=dict(os.environ, **one_thread,
                            PYTHONPATH=path), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_narrow_route_reports_match_golden_bytes():
    want = json.loads(NARROW_GOLDEN.read_text(encoding="utf-8"))
    for got, stored in zip(narrow_reports_one_thread(), want, strict=True):
        assert got == stored, stored.get("pair", stored.get("graph"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        records = [run(argv, Path(tmp)) for argv in INVOCATIONS]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    GOLDEN.write_text(json.dumps(golden_reports(), indent=1) + "\n", encoding="utf-8")
    SEARCH_GOLDEN.write_text(json.dumps(search_reports(), indent=1) + "\n", encoding="utf-8")
    NARROW_GOLDEN.write_text(json.dumps(narrow_reports_one_thread(), indent=1) + "\n",
                             encoding="utf-8")
    print(f"wrote {len(records)} snapshots to {DATA} and {GOLDEN_DRAWS * len(GOLDEN_DIMS)} "
          f"reports to {GOLDEN}", file=sys.stderr)
