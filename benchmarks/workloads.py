"""Seeded benchmark workloads: input generation and output oracles.

Each workload turns a seed into a fixed pool of operations. An operation
is one ``chiralwalk`` command line plus the facts its oracle needs. The
inputs are drawn with numpy alone, and every oracle derives its
expectation from those drawn facts, never from ``chiralwalk``, so a
change to the program under test cannot move what counts as correct.

Pools are cycled in order: operation ``i`` of a run uses pool entry
``i % len(pool)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

MANIFEST = "manifest.json"


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random unitary from the QR factorization of a Ginibre matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reflection(rng: np.random.Generator, n: int, plus_dim: int) -> np.ndarray:
    """Unitary involution 2P - 1 through a Haar-random ``plus_dim``-dim subspace."""
    basis = haar_unitary(rng, n)[:, :plus_dim]
    return 2.0 * basis @ basis.conj().T - np.eye(n)


def stratified_dims(rng: np.random.Generator, n: int, count: int) -> list[int]:
    """``count`` integers uniform on 0..n, one from each of ``count`` equal strata.

    Stratifying keeps every pool spread over the whole signature range,
    so the cost mix of a pool varies less from seed to seed than with
    independent draws; each value is still uniform on its own.
    """
    order = rng.permutation(count)
    jitter = rng.uniform(0.0, 1.0, count)
    return [min(n, int((order[k] + jitter[k]) * (n + 1) / count)) for k in range(count)]


def write_matrix_file(path: Path, matrix: np.ndarray) -> None:
    """Write a MatrixFile document (``dim`` and row-major ``[re, im]`` data)."""
    doc = {
        "dim": int(matrix.shape[0]),
        "data": [[float(z.real), float(z.imag)] for z in matrix.ravel()],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _report_problems(code: int, out: str) -> tuple[dict | None, list[str]]:
    """Parse a report; exit 0, consistency and every named check must hold."""
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return None, [f"report is not JSON: {exc}"]
    problems = []
    if doc.get("consistent") is not True:
        problems.append("report not consistent")
    failed = [c["name"] for c in doc.get("checks", []) if c.get("passed") is not True]
    if failed:
        problems.append(f"failed checks {failed}")
    return doc, problems


def _index_problems(doc: dict, expected: int) -> list[str]:
    indices = doc.get("indices", {})
    return [
        f"index {route} = {indices.get(route)}, expected {expected}"
        for route in ("alpha", "witten", "formula", "gamma_signature")
        if indices.get(route) != expected
    ]


@dataclass(frozen=True)
class IndexRandom:
    """``index U.json Gamma.json`` on Haar-random pairs with drawn signatures."""

    dim: int = 128
    pool: int = 8

    def generate(self, rng: np.random.Generator, directory: Path) -> list[dict]:
        n = self.dim
        ops = []
        for k, (a, c) in enumerate(zip(stratified_dims(rng, n, self.pool),
                                       stratified_dims(rng, n, self.pool))):
            gamma = reflection(rng, n, a)
            coin = reflection(rng, n, c)
            u_name, g_name = f"u{k}.json", f"gamma{k}.json"
            write_matrix_file(directory / u_name, gamma @ coin)
            write_matrix_file(directory / g_name, gamma)
            ops.append({"argv": ["index", u_name, g_name],
                        "facts": {"n": n, "a": a, "c": c}})
        return ops

    @staticmethod
    def check(facts: dict, code: int, out: str) -> list[str]:
        """Indices 2a - n and the generic census of the drawn signatures."""
        doc, problems = _report_problems(code, out)
        if doc is None:
            return problems
        n, a, c = facts["n"], facts["a"], facts["c"]
        if doc.get("dim") != n:
            problems.append(f"dim {doc.get('dim')}, expected {n}")
        problems += _index_problems(doc, 2 * a - n)
        expected = {
            "m_plus": max(0, a + c - n),
            "m_minus": max(0, c - a),
            "M_plus": max(0, n - a - c),
            "M_minus": max(0, a - c),
        }
        if doc.get("census") != expected:
            problems.append(f"census {doc.get('census')}, expected {expected}")
        return problems


@dataclass(frozen=True)
class ModelSearch:
    """``model grover-search`` with a drawn target."""

    qubits: int = 7
    pool: int = 4

    def generate(self, rng: np.random.Generator, directory: Path) -> list[dict]:
        positions = 2**self.qubits
        return [
            {"argv": ["model", "grover-search", "--qubits", str(self.qubits),
                      "--target", str(int(t))],
             "facts": {"positions": positions}}
            for t in rng.integers(0, positions, self.pool)
        ]

    @staticmethod
    def check(facts: dict, code: int, out: str) -> list[str]:
        """Index 4 - 2N, flipped, and the scalar discriminant 2/N - 1."""
        doc, problems = _report_problems(code, out)
        if doc is None:
            return problems
        big_n = facts["positions"]
        problems += _index_problems(doc, 4 - 2 * big_n)
        if doc.get("flipped") is not True:
            problems.append("search pair not reported as flipped")
        spectrum = doc.get("spectrum_t", [])
        value = 2.0 / big_n - 1.0
        if len(spectrum) != 1 or abs(spectrum[0]["value"] - value) > 1e-10:
            problems.append(f"spectrum_t {spectrum}, expected the single point {value!r}")
        return problems


def search_success_reference(qubits: int, target: int, steps: int) -> list[float]:
    """Success probabilities of the search walk, one step at a time in O(dim).

    The state is an (N, 2) array over positions and the oracle register.
    One step applies the coin, which flips the sign of |target, ->, and
    then the grading (2|u><u| - 1) on positions, with u uniform.
    """
    positions = 2**qubits
    state = np.zeros((positions, 2), dtype=np.complex128)
    state[:, 1] = 1.0 / math.sqrt(positions)
    probs = []
    for step in range(steps + 1):
        probs.append(float(np.sum(np.abs(state[target]) ** 2)))
        if step < steps:
            state[target, 1] = -state[target, 1]
            state = 2.0 * state.mean(axis=0) - state
    return probs


@dataclass(frozen=True)
class EvolveSearch:
    """``evolve`` of the search walk with a drawn target."""

    qubits: int = 9
    steps: int = 100
    pool: int = 4

    def generate(self, rng: np.random.Generator, directory: Path) -> list[dict]:
        return [
            {"argv": ["evolve", "--qubits", str(self.qubits), "--target", str(int(t)),
                      "--steps", str(self.steps)],
             "facts": {"qubits": self.qubits, "target": int(t), "steps": self.steps}}
            for t in rng.integers(0, 2**self.qubits, self.pool)
        ]

    @staticmethod
    def check(facts: dict, code: int, out: str) -> list[str]:
        """steps + 1 rows, unit totals, and the reference success probabilities."""
        if code != 0:
            return [f"exit code {code}"]
        reference = search_success_reference(facts["qubits"], facts["target"], facts["steps"])
        lines = out.splitlines()
        if len(lines) != len(reference):
            return [f"{len(lines)} rows, expected {len(reference)}"]
        problems = []
        for step, (line, expected) in enumerate(zip(lines, reference)):
            try:
                k, prob, total = line.split(", ")
                k, prob, total = int(k), float(prob), float(total)
            except ValueError:
                problems.append(f"row {step} unparsable: {line!r}")
                continue
            if k != step:
                problems.append(f"row {step} numbered {k}")
            if abs(total - 1.0) > 1e-10:
                problems.append(f"row {step} total {total!r}")
            if abs(prob - expected) > 1e-10:
                problems.append(f"row {step} probability {prob!r}, reference {expected!r}")
        return problems


@dataclass(frozen=True)
class Selftest:
    """``selftest`` over dims 2..dim_max with a drawn battery seed."""

    dim_max: int = 16
    trials: int = 2
    pool: int = 8

    def generate(self, rng: np.random.Generator, directory: Path) -> list[dict]:
        return [
            {"argv": ["selftest", "--dim-max", str(self.dim_max), "--trials",
                      str(self.trials), "--seed", str(int(s))],
             "facts": {"pairs": (self.dim_max - 1) * self.trials}}
            for s in rng.integers(0, 2**31, self.pool)
        ]

    @staticmethod
    def check(facts: dict, code: int, out: str) -> list[str]:
        """Exit 0, the expected pair count, no failures, every count full."""
        if code != 0:
            return [f"exit code {code}"]
        lines = out.splitlines()
        problems = []
        if not lines or lines[0] != f"pairs: {facts['pairs']}":
            problems.append(f"first line {lines[:1]}, expected 'pairs: {facts['pairs']}'")
        if "failures: 0" not in lines:
            problems.append("failures reported")
        for line in lines[1:]:
            name, _, counts = line.partition(": ")
            passed, slash, total = counts.partition("/")
            if slash and passed != total:
                problems.append(f"{name} passed {passed} of {total}")
        return problems


# index-random and evolve-search run by name but are not listed in
# BENCHMARK.json: the run time they would take buys the two listed
# workloads, which between them enter all six modules, longer and
# steadier runs.
WORKLOADS = {
    "index-random": IndexRandom(),
    "model-search": ModelSearch(),
    "evolve-search": EvolveSearch(),
    "selftest": Selftest(),
}


def check_output(name: str, facts: dict, code: int, out: str) -> list[str]:
    """Problems the workload's oracle finds; output of the wrong shape is one too."""
    try:
        return WORKLOADS[name].check(facts, code, out)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"output not in the expected form: {exc!r}"]


def generate(name: str, seed: int, directory: Path, workload=None) -> list[dict]:
    """Write the inputs of a workload into ``directory`` and return its pool.

    The pool is also written to ``manifest.json`` in the same directory.
    The same name, seed and workload parameters give the same bytes.
    """
    workload = WORKLOADS[name] if workload is None else workload
    directory.mkdir(parents=True, exist_ok=True)
    ops = workload.generate(np.random.default_rng(seed), directory)
    manifest = {"workload": name, "seed": seed, "params": asdict(workload), "ops": ops}
    (directory / MANIFEST).write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return ops
