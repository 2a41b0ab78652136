"""Generated inputs depend on the seed alone, byte for byte."""

import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

TINY = {
    "index-random": workloads.IndexRandom(dim=6, pool=3),
    "model-search": workloads.ModelSearch(qubits=2, pool=3),
    "evolve-search": workloads.EvolveSearch(qubits=3, steps=4, pool=3),
    "selftest": workloads.Selftest(dim_max=3, trials=1, pool=3),
}


def snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(TINY))
def test_same_seed_same_bytes_other_seed_differs(tmp_path, name):
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.generate(name, seed, tmp_path / label, TINY[name])
    first = snapshot(tmp_path / "a")
    assert first == snapshot(tmp_path / "b")
    assert first != snapshot(tmp_path / "c")
    assert workloads.MANIFEST in first


def test_index_pool_spans_both_coin_regimes():
    import numpy as np

    dims = workloads.stratified_dims(np.random.default_rng(0), 128, 8)
    assert all(0 <= d <= 128 for d in dims)
    assert min(dims) < 64 < max(dims)


def test_tail_keeps_ten_operations_beyond():
    times = [float(k) for k in range(1, 41)]
    value, percentile, beyond = run.tail(times)
    assert (value, percentile, beyond) == (30.0, 75.0, 10)
    assert sum(t > value for t in times) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_fails_without_program_sources(tmp_path):
    """Holding only BENCHMARK.json and the benchmark, it exits non-zero and prints no result."""
    root = Path(run.ROOT)
    (tmp_path / "BENCHMARK.json").write_bytes((root / "BENCHMARK.json").read_bytes())
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in Path(run.HERE).glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "selftest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
