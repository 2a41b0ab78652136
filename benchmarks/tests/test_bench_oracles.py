"""Each oracle accepts the program's real output and rejects a wrong one."""

import json

import numpy as np
import pytest
from chiralwalk import cli

import workloads
from worker import run_op


def real_output(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    _, code, out, _ = run_op(cli, argv)
    return code, out


@pytest.fixture
def index_case(tmp_path, monkeypatch):
    """A dim-8 pair with signatures a=5, c=2, so all census entries differ from their swaps."""
    rng = np.random.default_rng(3)
    gamma = workloads.reflection(rng, 8, 5)
    coin = workloads.reflection(rng, 8, 2)
    workloads.write_matrix_file(tmp_path / "u.json", gamma @ coin)
    workloads.write_matrix_file(tmp_path / "g.json", gamma)
    code, out = real_output(tmp_path, monkeypatch, ["index", "u.json", "g.json"])
    return {"n": 8, "a": 5, "c": 2}, code, out


def edited(out, edit):
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc)


def test_index_oracle(index_case):
    facts, code, out = index_case
    check = workloads.IndexRandom.check
    assert check(facts, code, out) == []
    assert check(facts, 2, out)

    def off_by_one(doc):
        doc["indices"]["witten"] += 1

    def swap_census(doc):
        census = doc["census"]
        census["m_plus"], census["M_plus"] = census["M_plus"], census["m_plus"]

    def fail_check(doc):
        doc["checks"][0]["passed"] = False

    for edit in (off_by_one, swap_census, fail_check):
        assert check(facts, 0, edited(out, edit)), edit.__name__
    assert check(dict(facts, a=4), code, out)


def test_model_search_oracle(tmp_path, monkeypatch):
    code, out = real_output(tmp_path, monkeypatch,
                            ["model", "grover-search", "--qubits", "2", "--target", "1"])
    facts = {"positions": 4}
    check = workloads.ModelSearch.check
    assert check(facts, code, out) == []

    def off_by_one(doc):
        doc["indices"]["alpha"] -= 1

    def unflipped(doc):
        doc["flipped"] = False

    def moved_discriminant(doc):
        doc["spectrum_t"][0]["value"] += 1e-6

    def extra_point(doc):
        doc["spectrum_t"].append({"value": 0.0, "multiplicity": 1})

    for edit in (off_by_one, unflipped, moved_discriminant, extra_point):
        assert check(facts, 0, edited(out, edit)), edit.__name__


def test_evolve_oracle(tmp_path, monkeypatch):
    code, out = real_output(tmp_path, monkeypatch,
                            ["evolve", "--qubits", "3", "--target", "5", "--steps", "6"])
    facts = {"qubits": 3, "target": 5, "steps": 6}
    check = workloads.EvolveSearch.check
    assert check(facts, code, out) == []
    lines = out.splitlines()

    def with_row(k, prob_delta=0.0, total_delta=0.0):
        step, prob, total = lines[k].split(", ")
        row = f"{step}, {float(prob) + prob_delta!r}, {float(total) + total_delta!r}"
        return "\n".join(lines[:k] + [row] + lines[k + 1:]) + "\n"

    assert check(facts, 0, with_row(3, total_delta=1e-6))
    assert check(facts, 0, with_row(4, prob_delta=1e-9))
    assert check(facts, 0, "\n".join(lines[:-1]) + "\n")
    assert check(dict(facts, qubits=4), code, out)
    assert check(facts, 1, out)


def test_selftest_oracle(tmp_path, monkeypatch):
    code, out = real_output(tmp_path, monkeypatch,
                            ["selftest", "--dim-max", "3", "--trials", "1", "--seed", "9"])
    facts = {"pairs": 2}
    check = workloads.Selftest.check
    assert check(facts, code, out) == []
    assert check(facts, 1, out)
    assert check({"pairs": 3}, code, out)
    assert check(facts, 0, out.replace("failures: 0", "failures: 1"))
    name_line = next(line for line in out.splitlines() if "/" in line)
    name, _, counts = name_line.partition(": ")
    total = counts.split("/")[1]
    short = f"{name}: {int(total) - 1}/{total}"
    assert check(facts, 0, out.replace(name_line, short))


def test_search_reference_matches_dense_evolution():
    from chiralwalk.models import search_probability_table

    rows = search_probability_table(4, 11, 12)
    reference = workloads.search_success_reference(4, 11, 12)
    assert max(abs(p - r) for (_, p, _), r in zip(rows, reference)) < 1e-12


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_output_of_the_wrong_shape_is_a_failure(name):
    facts = {"n": 4, "a": 2, "c": 2, "positions": 4, "qubits": 2, "target": 1, "steps": 2,
             "pairs": 2}
    for out in ("[]", '{"checks": [1]}', "", "0, x\n"):
        assert workloads.check_output(name, facts, 0, out), (name, out)
