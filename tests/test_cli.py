"""Tests for the command line interface and file formats."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chiralwalk
from chiralwalk import chiral, models, spectral
from chiralwalk.chiral import make_pair
from chiralwalk.cli import (
    load_graph_file,
    load_matrix_file,
    main,
    save_matrix_file,
)
from chiralwalk.linalg import DEFAULT_TOL
from chiralwalk.models import toy_four_dim

SRC = Path(chiralwalk.__file__).resolve().parents[1]
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
ONE_BLAS_THREAD = {name: "1" for name in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, matrix):
    save_matrix_file(path, np.asarray(matrix, dtype=complex))
    return str(path)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        path = tmp_path / "m.json"
        save_matrix_file(path, m)
        back = load_matrix_file(path)
        assert np.array_equal(back, m)

    def test_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "data": [[1.0, 0.0]]}))
        with pytest.raises(ValueError):
            load_matrix_file(path)

    def test_rejects_non_pair_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 1, "data": ["1+0j"]}))
        with pytest.raises(ValueError):
            load_matrix_file(path)


    def test_array_reader_matches_the_entry_loop(self, tmp_path):
        # Integers and floats, near and past 2**53 and 2**63, are read as
        # complex() reads them one entry at a time.
        data = [[1, 0.5], [2**53 + 1, -(2**63) - 1], [10**300, -0.0], [-2.5e-310, 3]]
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2, "data": data}))
        expected = np.array([complex(re, im) for re, im in data])
        assert load_matrix_file(path).tobytes() == expected.reshape(2, 2).tobytes()

    @pytest.mark.parametrize("bad, message", [
        ([1.0], "is not a [re, im] pair"), ("1+0j", "is not a [re, im] pair"),
        ([1.0, True], "is not a [re, im] pair"), ([1.0, None], "is not a [re, im] pair"),
        ({"re": 1.0}, "is not a [re, im] pair"), ([1.0, 2.0, 3.0], "is not a [re, im] pair"),
        ([0, -(10**400)], "lies beyond the float range"),
    ])
    def test_first_bad_entry_is_named(self, tmp_path, bad, message):
        data = [[1.0, 0.0], [0, 1], bad, [1.0], [10**400, 0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3, "data": data + [[0.0, 0.0]] * 4}))
        with pytest.raises(ValueError) as excinfo:
            load_matrix_file(path)
        assert str(excinfo.value) == f"{path}: entry 2 {message}"


class TestGraphFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a triangle\nvertices 3\n0 1\n\n1 2\n# inner comment\n2 0\n")
        g = load_graph_file(path)
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2), (2, 0))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            load_graph_file(path)

    @pytest.mark.parametrize("text, lineno, expected, line", [
        ("vertices three\n0 1\n", 1, "'vertices <count>'", "vertices three"),
        ("# a path\nvertices 3\n0 1\n1 x\n", 4, "'<origin> <terminus>'", "1 x"),
    ], ids=["vertex-count", "edge-endpoint"])
    def test_non_integer_token_names_its_line(self, tmp_path, capsys, text, lineno,
                                              expected, line):
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "model", "grover-walk", "--graph", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}:{lineno}: expected integers in {expected}, got {line!r}\n"


class TestIndexCommand:
    def test_four_dim_first_row(self, tmp_path, capsys):
        pair = toy_four_dim(1)
        u_file = write_matrix(tmp_path / "u.json", pair.u)
        g_file = write_matrix(tmp_path / "gamma.json", pair.gamma)
        code, out, _ = run_cli(capsys, "index", u_file, g_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["indices"] == {
            "alpha": -4, "witten": -4, "formula": -4, "gamma_signature": -4
        }
        assert doc["consistent"] is True

    def test_identity_pair_gives_dimension(self, tmp_path, capsys):
        n = 3
        u_file = write_matrix(tmp_path / "u.json", np.eye(n))
        g_file = write_matrix(tmp_path / "gamma.json", np.eye(n))
        code, out, _ = run_cli(capsys, "index", u_file, g_file)
        assert code == 0
        assert json.loads(out)["indices"]["alpha"] == n

    def test_broken_symmetry_exits_one_with_residual(self, tmp_path, capsys):
        u_file = write_matrix(tmp_path / "u.json",
                              np.diag([np.exp(1j * np.pi / 4)] * 2))
        g_file = write_matrix(tmp_path / "gamma.json", np.diag([1.0, -1.0]))
        code, out, err = run_cli(capsys, "index", u_file, g_file)
        assert code == 1
        assert out == ""
        assert "chiral symmetry violated" in err
        assert "residual" in err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "index", str(tmp_path / "nope.json"),
                               str(tmp_path / "nope2.json"))
        assert code == 1
        assert err

    def test_benchmark_pair_with_one_blas_thread(self, tmp_path):
        # Entry 7 of the benchmark's index-random pool at seed 14, drawn and
        # analysed with one BLAS thread, made zgesdd fail to converge on the
        # 2n x n stacked-projector intersection matrix ("SVD did not
        # converge", exit 1). The draw depends on the thread count, so both
        # steps run in subprocesses with one thread.
        env = dict(os.environ, **ONE_BLAS_THREAD, PYTHONPATH=str(SRC),
                   PYTHONDONTWRITEBYTECODE="1")
        generate = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
                    "import workloads; workloads.generate('index-random', 14, Path(sys.argv[2]))")
        subprocess.run([sys.executable, "-c", generate, str(BENCHMARKS), str(tmp_path)],
                       env=env, check=True, timeout=120)
        op = json.loads((tmp_path / "manifest.json").read_text())["ops"][7]
        assert op["facts"] == {"n": 128, "a": 81, "c": 55}
        result = subprocess.run([sys.executable, "-m", "chiralwalk", *op["argv"]],
                                cwd=tmp_path, env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["consistent"] is True
        assert all(c["passed"] for c in doc["checks"])

    @pytest.mark.parametrize("positions", [16, 64])
    def test_coherent_grading_error_gets_a_report(self, tmp_path, capsys, positions):
        # Gamma = (2 u u^T - 1) x I2 + i delta (1 1^T x I2) with u uniform
        # and the coin 1 - 2 w w^T with w uniform: Gamma is Hermitian to
        # within 2 delta = 4e-11 per entry, but the discriminant d Gamma d*
        # sums the error over the positions, to 2 delta N. Its eigensolve
        # used to refuse that at tol.structural, so a pair that make_pair
        # accepts made the report raise (exit 1).
        n = 2 * positions
        u = np.full(positions, positions ** -0.5)
        gamma = (np.kron(2.0 * np.outer(u, u) - np.eye(positions), np.eye(2))
                 + 2e-11j * np.kron(np.ones((positions, positions)), np.eye(2)))
        coin = np.eye(n) - np.full((n, n), 2.0 / n)
        u_file = write_matrix(tmp_path / "u.json", gamma @ coin)
        g_file = write_matrix(tmp_path / "gamma.json", gamma)
        code, out, err = run_cli(capsys, "index", u_file, g_file)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["consistent"] is True
        check = next(c for c in doc["checks"] if c["name"] == "discriminant_hermitian")
        assert 1e-10 < check["residual"] <= 1e-10 * n
        assert set(doc["indices"].values()) == {4 - n}

    @pytest.mark.parametrize("n", [16, 64])
    def test_grading_error_along_a_shared_direction_gets_a_report(self, tmp_path, capsys, n):
        # Gamma = 2 B B^T - 1 + e v v^T, with v uniform in the ranges of both
        # Gamma's and the coin's +1 projections: Gamma's unitarity residual
        # is about 2e/n = 8e-11, but the discriminant's norm is 1 + e. Its
        # contraction check used to bound that at tol.structural (exit 2).
        rng = np.random.default_rng(5)
        v = np.full(n, n ** -0.5)

        def basis():
            w = np.linalg.qr(np.column_stack([v, rng.standard_normal((n, n - 1))]))[0]
            w[:, 0] = v
            return w

        w_gamma, w_coin = basis(), basis()
        e = 0.4e-10 * n
        gamma = (2.0 * w_gamma[:, :n // 2] @ w_gamma[:, :n // 2].T - np.eye(n)
                 + e * np.outer(v, v))
        coin = 2.0 * w_coin[:, :n // 4 + 1] @ w_coin[:, :n // 4 + 1].T - np.eye(n)
        u_file = write_matrix(tmp_path / "u.json", gamma @ coin)
        g_file = write_matrix(tmp_path / "gamma.json", gamma)
        code, out, err = run_cli(capsys, "index", u_file, g_file)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["consistent"] is True and doc["warnings"] == []
        check = next(c for c in doc["checks"] if c["name"] == "discriminant_contraction")
        assert 1e-10 < check["residual"] <= 1e-10 * n

    def test_discriminant_beyond_one_gets_a_report(self, tmp_path, capsys):
        # Gamma = 2 B B^T - 1 + e v v^T with v uniform and e = 1.02e-8, and a
        # coin whose +1 range holds a direction 3e-8 from v: T has an
        # eigenvalue 1 + 1.02e-8, inside the contraction check's bound
        # tol.structural * n but beyond 1 + tol.cluster. The spectral
        # mapping used to refuse that value a second time and raise (exit 1).
        n = 256
        rng = np.random.default_rng(5)
        v = np.full(n, n ** -0.5)

        def basis(first, width):
            w = np.linalg.qr(np.column_stack([first, rng.standard_normal((n, width - 1))]))[0]
            w[:, 0] = first
            return w

        w_gamma = basis(v, n)
        gamma = (2.0 * w_gamma[:, :n // 2] @ w_gamma[:, :n // 2].T - np.eye(n)
                 + 1.02e-8 * np.outer(v, v))
        y = basis(np.cos(3e-8) * v + np.sin(3e-8) * w_gamma[:, -1], n // 8)
        u = gamma @ (2.0 * y @ y.T - np.eye(n))
        report = spectral.build_index_report(make_pair(u, gamma))
        check = next(c for c in report.checks if c.name == "discriminant_contraction")
        assert check.passed and check.residual > DEFAULT_TOL.cluster
        u_file = write_matrix(tmp_path / "u.json", u)
        g_file = write_matrix(tmp_path / "gamma.json", gamma)
        code, out, err = run_cli(capsys, "index", u_file, g_file)
        assert code == 2
        assert err.startswith("inconsistency: ")
        assert json.loads(out)["consistent"] is False

    def test_expanding_discriminant_fails_its_check(self, tmp_path, capsys, monkeypatch):
        # T's +1 eigenvalue moved past 1 + tol.structural * n stays inside
        # the rank cutoff at +1, so its eigenvectors and every count are as
        # they were; the contraction check alone must fail, with the report
        # printed.
        def expanded(pair, coin_plus, coin_minus, _fn=spectral._coisometry):
            dec = _fn(pair, coin_plus, coin_minus)
            w, x = np.linalg.eigh(dec.discriminant)
            w[w > 0.5] *= 1.0 + 2.0 * pair.tol.structural * pair.dim
            return dataclasses.replace(dec, discriminant=(x * w) @ x.conj().T)

        monkeypatch.setattr(spectral, "_coisometry", expanded)
        graph = tmp_path / "triangle.g"
        graph.write_text("vertices 3\n0 1\n1 2\n2 0\n0 1\n")
        code, out, err = run_cli(capsys, "model", "grover-walk", "--graph", str(graph))
        assert code == 2
        assert "discriminant_contraction" in err
        doc = json.loads(out)
        assert len(doc["spectrum_t"]) == 3
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == [
            "discriminant_contraction"]

    def test_non_hermitian_discriminant_fails_its_check(self, capsys, monkeypatch):
        # An entry of T's strict upper triangle moved past tol.structural * n
        # leaves T's eigensolve, which reads the lower triangle, as it was;
        # the Hermiticity check alone must fail, with the report printed.
        def skewed(pair, coin_plus, coin_minus, _fn=spectral._coisometry):
            dec = _fn(pair, coin_plus, coin_minus)
            t = dec.discriminant.copy()
            t[0, -1] += 2.0 * pair.tol.structural * pair.dim
            return dataclasses.replace(dec, discriminant=t)

        monkeypatch.setattr(spectral, "_coisometry", skewed)
        code, out, err = run_cli(capsys, "model", "split-step", "--sites", "8", "--p", "0.6",
                                 "--q-re", "0.8", "--angles", "random:7")
        assert code == 2
        assert "discriminant_hermitian" in err
        doc = json.loads(out)
        assert len(doc["spectrum_t"]) > 1
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["discriminant_hermitian"]


class TestModelCommand:
    def test_grover_search_report(self, capsys):
        code, out, _ = run_cli(capsys, "model", "grover-search",
                               "--qubits", "2", "--target", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["indices"]["alpha"] == -4
        assert doc["flipped"] is True
        assert doc["spectrum_t"] == [{"value": -0.5, "multiplicity": 1}]

    def test_grover_walk_report(self, tmp_path, capsys):
        graph = tmp_path / "triangle.g"
        graph.write_text("vertices 3\n0 1\n1 2\n2 0\n")
        code, out, _ = run_cli(capsys, "model", "grover-walk", "--graph", str(graph))
        assert code == 0
        assert json.loads(out)["indices"]["alpha"] == 0

    def test_split_step_random_angles_passes_every_check(self, capsys):
        code, out, _ = run_cli(capsys, "model", "split-step", "--sites", "64", "--p", "0.6",
                               "--q-re", "0.8", "--angles", "random:7")
        assert code == 0
        assert all(c["passed"] for c in json.loads(out)["checks"])

    def test_toy4_report(self, capsys):
        code, out, _ = run_cli(capsys, "model", "toy4", "--variant", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["indices"]["alpha"] == 4
        assert doc["census"] == {"m_plus": 3, "m_minus": 0, "M_plus": 0, "M_minus": 1}

    def test_split_step_random_angles(self, capsys):
        code, out, _ = run_cli(capsys, "model", "split-step", "--sites", "4",
                               "--p", "0.6", "--q-re", "0.8", "--angles", "random:7")
        assert code == 0
        assert json.loads(out)["indices"]["alpha"] == 0

    def test_toy2_report(self, capsys):
        code, out, _ = run_cli(capsys, "model", "toy2", "--beta", "0.3",
                               "--gamma", "1.0")
        assert code == 0
        assert json.loads(out)["indices"]["alpha"] == 0

    def test_dump_matrices_round_trip(self, tmp_path, capsys):
        dump = tmp_path / "dump"
        code, _, _ = run_cli(capsys, "model", "toy4", "--variant", "1",
                             "--dump-matrices", str(dump))
        assert code == 0
        pair = toy_four_dim(1)
        assert np.array_equal(load_matrix_file(dump / "u.json"), pair.u)
        assert np.array_equal(load_matrix_file(dump / "gamma.json"), pair.gamma)

    def test_dump_matrices_written_on_exit_two(self, tmp_path, capsys):
        dump = tmp_path / "dump"
        code, out, _ = run_cli(capsys, "model", "grover-search", "--qubits", "6",
                               "--target", "0", "--tol-cluster", "0.6",
                               "--dump-matrices", str(dump))
        assert code == 2
        assert json.loads(out)["consistent"] is False
        pair = models.grover_search(6, 0)
        assert np.array_equal(load_matrix_file(dump / "u.json"), pair.u)
        assert np.array_equal(load_matrix_file(dump / "gamma.json"), pair.gamma)

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run_cli(capsys, "model", "toy4", "--variant", "1")[0] == 0
        parsers = len(built)
        for variant in ("2", "3"):
            assert run_cli(capsys, "model", "toy4", "--variant", variant)[0] == 0
        assert len(built) == parsers

    def test_inconsistency_exits_two_with_report(self, capsys):
        # folding distinct clusters together must be reported, not ignored
        code, out, err = run_cli(capsys, "model", "grover-search",
                                 "--qubits", "6", "--target", "0",
                                 "--tol-cluster", "0.6")
        assert code == 2
        assert "inconsistency" in err
        doc = json.loads(out)
        assert any(not c["passed"] for c in doc["checks"])

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "model", "toy4", "--variant", "3",
                               "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["indices"]["alpha"] == 0

    def test_byte_identical_reruns(self, capsys):
        argv = ("model", "grover-search", "--qubits", "3", "--target", "5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_tolerances_echoed_in_report(self, capsys):
        code, out, _ = run_cli(capsys, "model", "toy4", "--variant", "2",
                               "--tol-rank", "1e-7")
        assert code == 0
        assert json.loads(out)["tolerances"]["rank"] == 1e-7


class TestConsistentFlag:
    def test_consistent_means_every_check_passed(self, capsys):
        # toy2 with an evolution angle epsilon from 0 or pi: near the rank
        # cutoff some checks fail, and a report must then never claim to be
        # consistent; exit 2 happens exactly when it is not.
        outcomes = set()
        for eps in np.logspace(-12, -2, 31):
            for beta in (np.pi - eps, eps):
                code, out, _ = run_cli(capsys, "model", "toy2", "--beta", repr(float(beta)),
                                       "--gamma", "0.3")
                doc = json.loads(out)
                passed = all(c["passed"] for c in doc["checks"])
                assert doc["consistent"] == passed, beta
                assert (code == 2) == (not doc["consistent"]), beta
                outcomes.add(code)
        assert outcomes == {0, 2}


class TestErrorPaths:
    def test_dimension_mismatch_exits_one(self, tmp_path, capsys):
        u_file = write_matrix(tmp_path / "u.json", np.eye(2))
        g_file = write_matrix(tmp_path / "gamma.json", np.eye(3))
        code, _, err = run_cli(capsys, "index", u_file, g_file)
        assert code == 1
        assert "shape" in err

    def test_invalid_tolerance_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "model", "toy4", "--variant", "1",
                               "--tol-rank", "2.0")
        assert code == 1
        assert "tolerance" in err

    def test_tolerance_below_machine_epsilon_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "model", "grover-search", "--qubits", "2",
                               "--target", "1", "--tol-structural", "1e-300")
        assert code == 1
        assert "'structural'" in err

    def test_boolean_matrix_entry_exits_one(self, tmp_path, capsys):
        u_file = tmp_path / "u.json"
        u_file.write_text(json.dumps({"dim": 1, "data": [[True, False]]}))
        g_file = write_matrix(tmp_path / "gamma.json", np.eye(1))
        code, _, err = run_cli(capsys, "index", str(u_file), g_file)
        assert code == 1
        assert "entry 0" in err

    def test_entry_beyond_the_float_range_exits_one(self, tmp_path, capsys):
        # An integer past the float range overflows complex(); it is refused
        # as invalid input, not raised out of main.
        u_file = tmp_path / "u.json"
        u_file.write_text(json.dumps({"dim": 1, "data": [[10**400, 0]]}))
        code, out, err = run_cli(capsys, "index", str(u_file), str(u_file))
        assert code == 1
        assert out == ""
        assert err == f"error: {u_file}: entry 0 lies beyond the float range\n"

    def test_boolean_dim_exits_one(self, tmp_path, capsys):
        # True passes isinstance(dim, int) and matches one data entry.
        u_file = tmp_path / "u.json"
        u_file.write_text(json.dumps({"dim": True, "data": [[1, 0]]}))
        code, out, err = run_cli(capsys, "index", str(u_file), str(u_file))
        assert code == 1
        assert out == ""
        assert err == f"error: {u_file}: 'dim' must be a positive integer\n"

    @pytest.mark.parametrize("argv", [
        ["model", "toy4", "--variant", "6"],
        ["model", "grover-search", "--qubits", "abc", "--target", "0"],
        ["model", "grover-search", "--target", "0"],
        ["index"],
        ["frobnicate"],
        ["evolve", "--qubits", "2", "--target", "3", "--steps", "1", "--dump-matrices", "d"],
        ["selftest", "--dim-max", "2", "--dump-matrices", "d"],
        ["model", "toy2", "--beta", "0.3", "--gamma", "1.0", "--seed", "3"],
        ["index", "u.json", "gamma.json", "--seed", "3"],
        ["evolve", "--qubits", "2", "--target", "3", "--steps", "1", "--seed", "3"],
        *(["evolve", "--qubits", "2", "--target", "3", "--steps", "1", flag, "1e-9"]
          for flag in ("--tol-structural", "--tol-rank", "--tol-cluster")),
    ], ids=["bad-choice", "bad-int", "missing-option", "missing-files", "unknown-command",
            "dump-matrices-on-evolve", "dump-matrices-on-selftest", "seed-on-model",
            "seed-on-index", "seed-on-evolve", "tol-structural-on-evolve",
            "tol-rank-on-evolve", "tol-cluster-on-evolve"])
    def test_usage_error_exits_one(self, argv, capsys):
        # Exit 2 is reserved for a failed consistency check. A flag given
        # to a command it does not act on is a usage error too.
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error: " in err and err.startswith("usage: chiralwalk")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "model", "--help")
        assert code == 0
        assert out.startswith("usage: chiralwalk model")

    def test_coin_beyond_hermitian_bound_exits_one(self, tmp_path, capsys):
        # Chiral to 8.75e-11 but with a coin 7e-10 from Hermitian.
        h = np.ones((1, 1))
        for _ in range(6):
            h = np.block([[h, h], [h, -h]])
        gamma = h / 8.0
        phi = np.arcsin(3.5e-10)
        coin = np.diag(np.concatenate([[np.exp(1j * phi)], np.ones(31), -np.ones(32)]))
        u_file = write_matrix(tmp_path / "u.json", gamma @ coin)
        g_file = write_matrix(tmp_path / "gamma.json", gamma)
        code, out, err = run_cli(capsys, "index", u_file, g_file)
        assert code == 1
        assert out == ""
        assert "coin is not Hermitian: residual 7.000000e-10" in err

    def test_grading_beyond_hermitian_bound_exits_one(self, tmp_path, capsys):
        # Unitary, involutive and chiral to within the bound, but with a
        # grading 1.5e-10 from Hermitian.
        h = np.ones((1, 1))
        for _ in range(6):
            h = np.block([[h, h], [h, -h]])
        gamma = h / 8.0
        gamma[0, 1] += 0.75e-10
        gamma[1, 0] -= 0.75e-10
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((64, 64)))
        coin = 2.0 * q[:, :32] @ q[:, :32].T - np.eye(64)
        u_file = write_matrix(tmp_path / "u.json", gamma @ coin)
        g_file = write_matrix(tmp_path / "gamma.json", gamma)
        code, out, err = run_cli(capsys, "index", u_file, g_file)
        assert code == 1
        assert out == ""
        assert "grading is not Hermitian: residual 1.500000e-10 exceeds 1.000000e-10" in err

    def test_wrong_angle_count_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "model", "split-step", "--sites", "3",
                               "--p", "1.0", "--q-re", "0.0", "--angles", "0.1,0.2")
        assert code == 1
        assert "angles" in err

    @pytest.mark.parametrize("angles", ["random:abc", "random:", "random:-3", "random:1.5",
                                        "1,2,x", "1,,2"])
    def test_unreadable_angles_exit_one_naming_the_flag(self, capsys, angles):
        code, out, err = run_cli(capsys, "model", "split-step", "--sites", "4", "--p", "0.6",
                                 "--q-re", "0.8", "--angles", angles)
        assert (code, out) == (1, "")
        assert err == ("error: --angles: expected comma-separated radians or "
                       f"'random:<non-negative integer seed>', got {angles!r}\n")

    @pytest.mark.parametrize("angles, site, value", [("inf,1,2,3", 0, "inf"),
                                                     ("1,-inf,2,3", 1, "-inf"),
                                                     ("1,2,3,nan", 3, "nan")])
    def test_non_finite_angle_exits_one_naming_its_site(self, capsys, angles, site, value):
        code, out, err = run_cli(capsys, "model", "split-step", "--sites", "4", "--p", "0.6",
                                 "--q-re", "0.8", "--angles", angles)
        assert (code, out) == (1, "")
        assert err == f"error: coin angle of site {site} must be finite, got {value}\n"

    @pytest.mark.parametrize("sites", ["-1", "0"])
    def test_random_angles_for_a_bad_cycle_length_name_the_length(self, capsys, sites):
        # The seed is readable, so --angles is not blamed; the length is.
        code, out, err = run_cli(capsys, "model", "split-step", "--sites", sites, "--p", "0.6",
                                 "--q-re", "0.8", "--angles", "random:1")
        assert (code, out) == (1, "")
        assert err == f"error: cycle length must be positive, got {sites}\n"

    @pytest.mark.parametrize("flag, value", [("--beta", "nan"), ("--beta", "inf"),
                                             ("--gamma", "-inf"), ("--gamma", "nan")])
    def test_non_finite_toy2_angle_exits_one_naming_it(self, capsys, flag, value):
        args = {"--beta": "0.3", "--gamma": "0.3", flag: value}
        code, out, err = run_cli(capsys, "model", "toy2", *(f"{k}={v}" for k, v in args.items()))
        assert (code, out) == (1, "")
        assert err == f"error: {flag[2:]} must be finite, got {value}\n"

    @pytest.mark.parametrize("before, flag, value, after, err", [
        (["model", "toy2", "--beta", "0.3"], "--gamma", "-inf", [],
         "error: gamma must be finite, got -inf\n"),
        (["model", "toy2", "--gamma", "0.3"], "--beta", "-NaN", [],
         "error: beta must be finite, got nan\n"),
        (["model", "split-step", "--sites", "4", "--p", "0.6", "--q-re", "0.8"],
         "--q-im", "-1e-20", ["--angles", "0,0,0,0"], ""),
        (["model", "split-step", "--sites", "4", "--p", "0.6"], "--q-re", "-.8E+0",
         ["--angles", "0,0,0,0"], ""),
        (["model", "toy2", "--beta", "0.3"], "--gamma", "-1_0", [], ""),
        (["model", "split-step", "--sites", "4", "--p", "0.6", "--q-re", "0.8"],
         "--q-im", "-1e1_0", ["--angles", "0,0,0,0"],
         "error: p^2 + |q|^2 deviates from 1 by 1.000000e+20\n"),
    ])
    def test_negative_number_after_a_flag_is_its_value(self, capsys, before, flag, value,
                                                       after, err):
        # -1e-20, -inf and -1_0 are read as values, as -5 is, so both
        # spellings give the same output and argparse never says "expected
        # one argument".
        spaced = run_cli(capsys, *before, flag, value, *after)
        assert spaced == run_cli(capsys, *before, f"{flag}={value}", *after)
        assert spaced[0] == (1 if err else 0) and spaced[2] == err

    def test_nan_split_step_parameter_names_the_normalization(self, capsys):
        code, _, err = run_cli(capsys, "model", "split-step", "--sites", "4", "--p", "nan",
                               "--q-re", "0.8", "--angles", "1,2,3,4")
        assert code == 1
        assert err == "error: p^2 + |q|^2 deviates from 1 by nan\n"

    def test_negative_selftest_seed_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "selftest", "--seed", "-5")
        assert (code, out, err) == (1, "", "error: seed must be non-negative, got -5\n")

    def test_negative_steps_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--qubits", "2", "--target", "0",
                               "--steps", "-1")
        assert code == 1
        assert "step count" in err

    def test_bad_measure_position_exits_one(self, capsys, monkeypatch):
        # evolve steps the walk's two reflections; it neither builds nor
        # validates a dense search pair, at 10 qubits or at a bad position.
        def unbuilt(*args, **kwargs):
            raise AssertionError("a search pair was built")

        monkeypatch.setattr(models, "make_pair", unbuilt)
        monkeypatch.setattr(models, "grover_search", unbuilt)
        code, out, _ = run_cli(capsys, "evolve", "--qubits", "10", "--target", "3",
                               "--steps", "200")
        assert code == 0
        assert len(out.splitlines()) == 201
        code, _, err = run_cli(capsys, "evolve", "--qubits", "2", "--target", "0",
                               "--steps", "1", "--measure", "7")
        assert code == 1
        assert "position" in err

    def test_disconnected_graph_exits_one(self, tmp_path, capsys):
        graph = tmp_path / "bad.g"
        graph.write_text("vertices 4\n0 1\n2 3\n")
        code, _, err = run_cli(capsys, "model", "grover-walk", "--graph", str(graph))
        assert code == 1
        assert "disconnected" in err

    @pytest.mark.parametrize("text, message", [
        ("vertices 3000000\n0 1\n",
         "vertex count 3000000 exceeds twice the edge count 1, so some vertex has degree zero"),
        ("vertices 1000000000000\n0 1\n", "vertex count 1000000000000 exceeds twice the "
         "edge count 1, so some vertex has degree zero"),
        ("vertices 40\n" + "0 1\n" * 20,
         "vertices [2, 3, 4, 5, 6] and 33 more have degree zero"),
    ], ids=["millions", "trillion", "capped-list"])
    def test_graph_with_isolated_vertices_exits_one_on_one_line(self, tmp_path, capsys,
                                                                 text, message):
        # A vertex count the edges cannot reach is refused before anything of
        # its length is allocated, and a long list of isolated vertices is cut.
        graph = tmp_path / "sparse.g"
        graph.write_text(text)
        code, out, err = run_cli(capsys, "model", "grover-walk", "--graph", str(graph))
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestEvolveCommand:
    def test_first_line_is_uniform_probability(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--qubits", "2", "--target", "3",
                               "--steps", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        step, prob, total = lines[0].split(", ")
        assert step == "0"
        assert float(prob) == 0.25
        assert float(total) == 1.0

    def test_norm_conserved(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--qubits", "2", "--target", "1",
                               "--steps", "25")
        assert code == 0
        for line in out.strip().splitlines():
            total = float(line.split(", ")[2])
            assert abs(total - 1.0) <= 1e-12

    def test_measure_flag(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--qubits", "2", "--target", "3",
                               "--steps", "0", "--measure", "0")
        assert code == 0
        assert float(out.strip().splitlines()[0].split(", ")[1]) == 0.25


class TestSizeLimits:
    def test_search_pair_limit(self, capsys):
        limit = models.MAX_QUBITS
        code, out, err = run_cli(capsys, "model", "grover-search",
                                 "--qubits", str(limit + 1), "--target", "0")
        assert code == 1
        assert out == ""
        assert f"qubit count {limit + 1} exceeds the supported maximum {limit}" in err
        code, out, _ = run_cli(capsys, "model", "grover-search",
                               "--qubits", str(limit), "--target", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["consistent"] is True
        assert doc["indices"]["alpha"] == 4 - 2 ** (limit + 1)

    def test_evolve_limit(self, capsys):
        # evolve takes the same limit as model grover-search and refuses one
        # qubit more.
        limit = models.MAX_QUBITS
        code, out, err = run_cli(capsys, "evolve", "--qubits", str(limit + 1),
                                 "--target", "0", "--steps", "0")
        assert code == 1
        assert out == ""
        assert f"qubit count {limit + 1} exceeds the supported maximum {limit}" in err
        code, out, _ = run_cli(capsys, "evolve", "--qubits", str(limit),
                               "--target", "3", "--steps", "0")
        assert code == 0
        step, prob, total = out.strip().split(", ")
        assert step == "0"
        assert float(prob) == pytest.approx(2.0 ** -limit, rel=1e-12)
        assert float(total) == pytest.approx(1.0, abs=1e-12)

    def test_search_at_the_limit_keeps_its_memory_budget(self):
        # The limit is set by a budget of 256 MiB for the command (1 BLAS
        # thread); the child reports its own peak RSS, VmHWM in KiB. Not
        # ru_maxrss: Linux carries it across exec, so it would also hold
        # the peak of this test process.
        limit = models.MAX_QUBITS
        child = ("import sys\n"
                 "from chiralwalk.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "with open('/proc/self/status') as fh:\n"
                 "    peak = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
                 "print(peak, file=sys.stderr)\n"
                 "sys.exit(code)\n")
        env = dict(os.environ, **ONE_BLAS_THREAD, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", child, "model", "grover-search",
                                 "--qubits", str(limit), "--target", "3"],
                                env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["consistent"] is True
        assert doc["indices"]["alpha"] == 4 - 2 ** (limit + 1)
        assert int(result.stderr.split()[-1]) <= 256 * 1024

    def test_dump_matrices_of_a_factored_pair_beyond_the_dense_limit(self, tmp_path, capsys):
        # A search pair is held by its factors; its n x n matrices are
        # formed for --dump-matrices only up to DENSE_MAX_DIM. Beyond it,
        # from the first qubit count past it to the qubit limit, the
        # command exits 1 before it writes the report or any file.
        first_refused = chiral.DENSE_MAX_DIM.bit_length() - 1
        assert 2 ** first_refused == chiral.DENSE_MAX_DIM
        for qubits in (3, first_refused, models.MAX_QUBITS):
            dump, output = tmp_path / f"dump{qubits}", tmp_path / f"report{qubits}.json"
            code, out, err = run_cli(capsys, "model", "grover-search", "--qubits", str(qubits),
                                     "--target", "3", "--output", str(output),
                                     "--dump-matrices", str(dump))
            n = 2 ** (qubits + 1)
            if n <= chiral.DENSE_MAX_DIM:
                assert code == 0 and (dump / "u.json").is_file() and output.is_file()
                continue
            assert code == 1 and out == ""
            assert f"dimension {n}" in err and f"up to dimension {chiral.DENSE_MAX_DIM}" in err
            assert not dump.exists() and not output.exists()

    def test_dump_matrices_into_a_file_writes_nothing(self, tmp_path, capsys):
        # The dump directory is made before the report is written, so a path
        # that cannot be a directory leaves stdout empty and writes no
        # --output file.
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        for extra in ([], ["--output", str(tmp_path / "report.json")]):
            code, out, err = run_cli(capsys, "model", "toy4", "--variant", "1",
                                     "--dump-matrices", str(taken), *extra)
            assert code == 1 and out == "" and err.startswith("error: ")
            assert len(err.splitlines()) == 1
        assert not (tmp_path / "report.json").exists()
        assert taken.read_text() == "kept\n"


class TestSelftestCommand:
    def test_tiny_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--dim-max", "2", "--trials", "1",
                               "--seed", "3")
        assert code == 0
        assert "failures: 0" in out

    def test_moderate_run_counts(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--dim-max", "6", "--trials", "4",
                               "--seed", "11")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "pairs: 20"
        for line in lines[1:-1]:
            name, counts = line.split(": ")
            passed, total = counts.split("/")
            assert passed == total

    def test_deterministic_output(self, capsys):
        argv = ("selftest", "--dim-max", "4", "--trials", "2", "--seed", "5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_tampered_invariant_fails_the_run(self, capsys, monkeypatch):
        # harness sanity: a broken check must surface as a nonzero exit
        import chiralwalk.selfcheck as selfcheck
        from chiralwalk.spectral import CheckResult

        def broken(pair, reference, rng):
            return [CheckResult("index_negated_evolution", False, 1.0)]

        monkeypatch.setattr(selfcheck, "transformation_checks", broken)
        code, out, _ = run_cli(capsys, "selftest", "--dim-max", "2",
                               "--trials", "1", "--seed", "3")
        assert code == 1
        assert "failures: 1" in out
