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
and eigensolves) must not move a single digit.

Regenerate the snapshots only when a change of output is intended::

    PYTHONPATH=src python tests/test_snapshots.py
"""

import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from chiralwalk.cli import main, render_report, save_matrix_file
from chiralwalk.selfcheck import random_chiral_pair
from chiralwalk.spectral import build_index_report

DATA = Path(__file__).resolve().parent / "data" / "cli_snapshots.json"
GOLDEN = DATA.with_name("report_golden.json")
GOLDEN_DIMS, GOLDEN_DRAWS = range(2, 17), 3
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        records = [run(argv, Path(tmp)) for argv in INVOCATIONS]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    GOLDEN.write_text(json.dumps(golden_reports(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} snapshots to {DATA} and {GOLDEN_DRAWS * len(GOLDEN_DIMS)} "
          f"reports to {GOLDEN}", file=sys.stderr)
