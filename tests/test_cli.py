import decimal
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_flow import cli, cycle_decompose, decompose, generator_from_json, generator_to_json
from markov_flow.cli import _csv_text, main
from markov_flow.errors import NoConvergence

from helpers import count_calls, random_birth_death, random_generator


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")


@pytest.fixture
def q3_path(tmp_path):
    path = tmp_path / "q3.json"
    write_json(path, {"n": 3, "rates": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]})
    return path


@pytest.fixture
def q2_path(tmp_path):
    path = tmp_path / "q2.json"
    write_json(path, {"n": 2, "convention": "column", "q": [[-1, 2], [1, -2]]})
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_stationary_solve_and_tree(q2_path, tmp_path, capsys):
    out = tmp_path / "pi.json"
    assert main(["stationary", "--input", str(q2_path), "--output", str(out)]) == 0
    pi = json.loads(out.read_text())["pi"]
    np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-12)

    assert main(["stationary", "--input", str(q2_path), "--method", "tree"]) == 0
    pi_tree = json.loads(capsys.readouterr().out)["pi"]
    np.testing.assert_allclose(pi_tree, [2 / 3, 1 / 3], atol=1e-12)


def test_decompose_emits_circulation(q3_path, tmp_path):
    out = tmp_path / "decomp.json"
    assert main(["decompose", "--input", str(q3_path), "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"pi", "S", "A"}
    a = np.array(obj["A"])
    np.testing.assert_allclose(np.abs(a[a != 0.0]), 1 / 6, atol=1e-12)


def test_compose_roundtrip_via_files(q3_path, tmp_path):
    decomp = tmp_path / "decomp.json"
    assert main(["decompose", "--input", str(q3_path), "--output", str(decomp)]) == 0
    obj = json.loads(decomp.read_text())
    write_json(tmp_path / "pi.json", {"pi": obj["pi"]})
    write_json(tmp_path / "S.json", {"S": obj["S"]})
    write_json(tmp_path / "A.json", {"A": obj["A"]})
    out = tmp_path / "q_back.json"
    assert main([
        "compose",
        "--pi", str(tmp_path / "pi.json"),
        "--S", str(tmp_path / "S.json"),
        "--A", str(tmp_path / "A.json"),
        "--output", str(out),
    ]) == 0
    q_back = np.array(json.loads(out.read_text())["q"])
    expected = np.array([[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    np.testing.assert_allclose(q_back, expected, atol=1e-12)


def test_dual_reverses_cycle(q3_path, capsys):
    assert main(["dual", "--input", str(q3_path)]) == 0
    q_dual = np.array(json.loads(capsys.readouterr().out)["q"])
    expected = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
    np.testing.assert_allclose(q_dual, expected, atol=1e-12)


def test_cycles_subcommand(q3_path, capsys):
    assert main(["cycles", "--input", str(q3_path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["cycles"] == [{"nodes": [0, 1, 2], "weight": pytest.approx(1 / 6)}]


def stdlib_cycles_text(path) -> bytes:
    """The stdlib's indented text of the cycles of the generator at ``path``."""
    gen = generator_from_json(json.loads(path.read_text()))
    obj = {"cycles": [{"nodes": list(nodes), "weight": weight}
                      for nodes, weight in cycle_decompose(decompose(gen).A).cycles]}
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def test_cycles_of_a_reversible_chain_is_an_empty_list(tmp_path):
    path, out = tmp_path / "q2.json", tmp_path / "cycles.json"
    write_json(path, {"n": 2, "q": [[-1, 1], [1, -1]]})
    assert main(["cycles", "--input", str(path), "--output", str(out)]) == 0
    assert out.read_bytes() == b'{\n  "cycles": []\n}\n' == stdlib_cycles_text(path)


def test_cycles_text_of_the_three_cycle(q3_path, tmp_path):
    out = tmp_path / "cycles.json"
    assert main(["cycles", "--input", str(q3_path), "--output", str(out)]) == 0
    weight = json.loads(out.read_text())["cycles"][0]["weight"]
    assert out.read_bytes() == stdlib_cycles_text(q3_path) == (
        '{\n  "cycles": [\n    {\n      "nodes": [\n        0,\n        1,\n'
        '        2\n      ],\n      "weight": %r\n    }\n  ]\n}\n' % weight).encode()


def test_cycles_text_with_multi_digit_labels_is_stable(tmp_path):
    path = tmp_path / "q14.json"
    write_json(path, generator_to_json(random_generator(np.random.default_rng(7), 14)))
    outputs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outputs:
        assert main(["cycles", "--input", str(path), "--output", str(out)]) == 0
    cycles = json.loads(outputs[0].read_text())["cycles"]
    assert max(max(c["nodes"]) for c in cycles) >= 10
    assert outputs[0].read_bytes() == outputs[1].read_bytes() == stdlib_cycles_text(path)


def test_entropy_kinds(q2_path, tmp_path, capsys):
    p0 = tmp_path / "p0.json"
    write_json(p0, {"p": [1.0, 0.0]})
    values = {}
    for kind in ("shannon", "kl", "gini"):
        assert main([
            "entropy", "--input", str(q2_path), "--p0", str(p0), "--kind", kind,
        ]) == 0
        values[kind] = json.loads(capsys.readouterr().out)
    assert values["shannon"] == 0.0
    np.testing.assert_allclose(values["kl"], np.log(3 / 2), atol=1e-12)
    np.testing.assert_allclose(values["gini"], 0.5, atol=1e-12)


def test_evolve_csv(q3_path, tmp_path):
    p0 = tmp_path / "p0.json"
    write_json(p0, [1.0, 0.0, 0.0])
    out = tmp_path / "traj.csv"
    assert main([
        "evolve", "--input", str(q3_path), "--p0", str(p0),
        "--t-max", "5", "--points", "40", "--traces", "shannon,kl,gini",
        "--output", str(out),
    ]) == 0
    header, data = read_csv(out)
    assert header == ["t", "p_1", "p_2", "p_3",
                      "gini_divergence", "gini_production", "kl", "shannon"]
    assert data.shape == (40, 8)
    np.testing.assert_allclose(data[:, 1:4].sum(axis=1), 1.0, atol=1e-12)
    kl = data[:, header.index("kl")]
    assert ((kl[1:] - kl[:-1]) <= 1e-10).all()


def test_evolve_decomposes_once(q3_path, tmp_path, monkeypatch):
    # the default time grid and the traces share one decomposition
    cli = importlib.import_module("markov_flow.cli")
    decompose_module = importlib.import_module("markov_flow.decompose")
    decompose_calls = mock.Mock(wraps=cli.decompose)
    solve_calls = mock.Mock(wraps=decompose_module.stationary_solve)
    monkeypatch.setattr(cli, "decompose", decompose_calls)
    monkeypatch.setattr(decompose_module, "stationary_solve", solve_calls)
    p0 = tmp_path / "p0.json"
    write_json(p0, [1.0, 0.0, 0.0])
    assert main([
        "evolve", "--input", str(q3_path), "--p0", str(p0), "--points", "20",
        "--output", str(tmp_path / "traj.csv"),
    ]) == 0
    assert decompose_calls.call_count == 1
    assert solve_calls.call_count == 1


def test_evolve_with_an_unknown_trace_exits_2(q3_path, tmp_path, capsys):
    p0 = tmp_path / "p0.json"
    write_json(p0, [1.0, 0.0, 0.0])
    assert main(["evolve", "--input", str(q3_path), "--p0", str(p0),
                 "--traces", "kl,foo"]) == 2
    assert "unknown trace tokens ['foo']" in capsys.readouterr().err


def test_evolve_grid_falls_back_to_the_exit_rates(q3_path, tmp_path, monkeypatch):
    # without a spectrum the grid runs to 10 / min|q_ii|, which is 10 here
    def refuse(d):
        raise NoConvergence("LAPACK eigh did not converge")

    monkeypatch.setattr(cli, "spectral_bound", refuse)
    p0 = tmp_path / "p0.json"
    write_json(p0, [1.0, 0.0, 0.0])
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--input", str(q3_path), "--p0", str(p0),
                 "--points", "5", "--output", str(out)]) == 0
    _, data = read_csv(out)
    np.testing.assert_array_equal(data[:, 0], np.geomspace(0.01, 10.0, 5))


def test_bound_csv_two_state(q2_path, tmp_path):
    p0 = tmp_path / "e1.json"
    write_json(p0, [1.0, 0.0])
    out = tmp_path / "bound.csv"
    assert main([
        "bound", "--input", str(q2_path), "--p0", str(p0),
        "--t-max", "3", "--points", "30", "--output", str(out),
    ]) == 0
    header, data = read_csv(out)
    assert header == ["t", "D", "bound_lambda2", "bound_2lambda2", "ratio"]
    t = data[:, 0]
    np.testing.assert_allclose(data[:, 1], 0.5 * np.exp(-6.0 * t), atol=1e-12)
    assert (data[:, 4] <= 1.0 + 1e-8).all()


@pytest.mark.parametrize(
    "command",
    [["evolve"], ["bound"], ["entropy", "--kind", "kl"],
     ["entropy", "--kind", "gini"], ["entropy", "--kind", "shannon"]],
    ids=["evolve", "bound", "entropy-kl", "entropy-gini", "entropy-shannon"],
)
def test_size_mismatch_exits_2(command, q3_path, tmp_path, monkeypatch, capsys):
    # the sizes are checked before any decomposition or spectrum
    decompose_calls = count_calls(monkeypatch, "markov_flow.cli", "decompose")
    p0 = tmp_path / "e1.json"
    write_json(p0, [1.0, 0.0])
    assert main([*command, "--input", str(q3_path), "--p0", str(p0)]) == 2
    err = capsys.readouterr().err
    assert "size invariant violated: p0 has 2 entries, the generator has 3 states" in err
    assert decompose_calls.call_count == 0


COMMANDS = ["stationary", "decompose", "compose", "dual", "cycles", "entropy",
            "evolve", "bound", "continuum", "demo"]


def test_every_command_but_demo_writes_to_output(capsys):
    assert main(["--help"]) == 0
    assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out
    for command in COMMANDS:
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert ("--output OUTPUT" in out) == (command != "demo"), command
        for flag, text in (("--input INPUT", "generator JSON file"),
                           ("--p0 P0", "probability JSON file")):
            if flag in out:
                assert re.search(re.escape(flag) + r"\s+" + text, out), (command, flag)


def solve_calls(monkeypatch):
    """Count the decompositions and spectra the CLI computes."""
    return [count_calls(monkeypatch, "markov_flow.cli", name)
            for name in ("decompose", "spectral_bound")]


@pytest.mark.parametrize("points", ["0", "-3"])
@pytest.mark.parametrize("command", ["evolve", "bound"])
def test_too_few_points_exits_2(command, points, q3_path, tmp_path, monkeypatch, capsys):
    # the grid arguments are checked before any decomposition or spectrum
    calls = solve_calls(monkeypatch)
    p0 = tmp_path / "p0.json"
    write_json(p0, [1.0, 0.0, 0.0])
    assert main([command, "--input", str(q3_path), "--p0", str(p0),
                 "--points", points]) == 2
    err = capsys.readouterr().err
    assert "grid invariant violated: need at least one time point" in err
    assert f"points = {points}" in err
    assert [c.call_count for c in calls] == [0, 0]


@pytest.mark.parametrize("command", ["evolve", "bound"])
def test_too_many_trajectory_cells_exit_2(command, q3_path, tmp_path, monkeypatch, capsys):
    # refused before the grid is allocated: 3e12 cells would not fit in memory
    calls = solve_calls(monkeypatch)
    p0 = tmp_path / "p0.json"
    write_json(p0, [1.0, 0.0, 0.0])
    assert main([command, "--input", str(q3_path), "--p0", str(p0),
                 "--points", str(10 ** 12)]) == 2
    err = capsys.readouterr().err
    assert "size invariant violated: 1000000000000 time points x 3 states" in err
    assert "trajectory cells, capped at" in err
    assert [c.call_count for c in calls] == [0, 0]


@pytest.mark.parametrize("command", ["evolve", "bound"])
@pytest.mark.parametrize("t_max, refusal", [
    ("-1", "t_max must be > 0, got -1.0"), ("0", "t_max must be > 0, got 0.0"),
    ("inf", "finiteness invariant violated: t_max = inf"),
    ("nan", "finiteness invariant violated: t_max = nan"),
], ids=["-1", "0", "inf", "nan"])
def test_bad_t_max_exits_2_before_any_solve(command, t_max, refusal, q3_path, tmp_path,
                                            monkeypatch, capsys):
    calls = solve_calls(monkeypatch)
    p0 = tmp_path / "p0.json"
    write_json(p0, [1.0, 0.0, 0.0])
    assert main([command, "--input", str(q3_path), "--p0", str(p0),
                 "--t-max", t_max]) == 2
    assert refusal in capsys.readouterr().err
    assert [c.call_count for c in calls] == [0, 0]


@pytest.mark.parametrize("command", ["evolve", "bound"])
@pytest.mark.parametrize("t_max", ["1e308", "inf", "nan"])
def test_non_finite_evolution_exits_2(command, t_max, q3_path, tmp_path, capsys):
    # at 1e308 the first step's propagator overflows to nan rows
    p0 = tmp_path / "e1.json"
    write_json(p0, [1.0, 0.0, 0.0])
    out = tmp_path / "out.csv"
    assert main([command, "--input", str(q3_path), "--p0", str(p0),
                 "--t-max", t_max, "--output", str(out)]) == 2
    assert "finiteness invariant violated" in capsys.readouterr().err
    assert not out.exists()


P0_NAN = ([0.5, 0.5, float("nan")],
          "finiteness invariant violated: the probability vector")
P0_NOT_NUMBERS = "the probability vector must be an array of numbers"


@pytest.mark.parametrize("command, p0, refusal", [
    (["entropy", "--kind", "kl"], *P0_NAN),
    (["entropy", "--kind", "shannon"], *P0_NAN),
    (["entropy", "--kind", "gini"], *P0_NAN),
    (["evolve"], *P0_NAN),
    (["bound"], *P0_NAN),
    (["entropy", "--kind", "kl"], [0.5, 0.5, {}], P0_NOT_NUMBERS),
    (["evolve"], [0.5, [0.5, 0.0]], P0_NOT_NUMBERS),
    (["bound"], "abc", P0_NOT_NUMBERS),
    (["entropy", "--kind", "kl"], [True, 0, 0], P0_NOT_NUMBERS),
    (["evolve"], ["0.5", "0.5", "0"], P0_NOT_NUMBERS),
], ids=["command0", "command1", "command2", "command3", "command4",
        "kl-object", "evolve-ragged", "bound-string", "kl-bool", "evolve-strings"])
def test_non_finite_p0_exits_2(command, p0, refusal, q3_path, tmp_path, capsys):
    path = tmp_path / "p0.json"
    write_json(path, p0)
    assert main([*command, "--input", str(q3_path), "--p0", str(path)]) == 2
    assert refusal in capsys.readouterr().err


@pytest.mark.parametrize("generator, refusal", [
    ({"q": [[float("nan"), 1.0], [1.0, -1.0]]}, "finiteness invariant violated"),
    ({"q": [[-float("inf"), 1.0], [float("inf"), -1.0]]}, "finiteness invariant violated"),
    ({"rates": [[0.0, float("inf")], [1.0, 0.0]]}, "finiteness invariant violated"),
    ({"q": [[-1.0, {}], [1.0, -1.0]]}, "the generator q must be a square array of numbers"),
    ({"q": [[-1, 1], [1]]}, "the generator q must be a square array of numbers"),
    ({"q": "abc"}, "the generator q must be a square array of numbers"),
    ({"rates": [[0.0, {}], [1.0, 0.0]]}, "the rates must be a square array of numbers"),
    ({"rates": [[0, 1], [1]]}, "the rates must be a square array of numbers"),
    ({"n": [2], "rates": [[0, 1], [1, 0]]}, "declared n must be an integer, got [2]"),
    ({"n": None, "rates": [[0, 1], [1, 0]]}, "declared n must be an integer, got None"),
    ({"n": 2.9, "rates": [[0, 1], [1, 0]]}, "declared n must be an integer, got 2.9"),
    ({"n": True, "rates": [[0, 1], [1, 0]]}, "declared n must be an integer, got True"),
    ({"rates": [[0, True], [True, 0]]}, "the rates must be a square array of numbers"),
    ({"q": [["-1", "1"], ["1", "-1"]]}, "the generator q must be a square array of numbers"),
    ({"rates": [[0.5, True], [True, 0]]}, "the rates must be a square array of numbers"),
    ({"convention": "diag", "q": [[-1, 1], [1, -1]]}, "unknown convention 'diag'"),
    ({"convention": "diag", "rates": [[0, 1], [1, 0]]}, "unknown convention 'diag'"),
], ids=["q-nan", "q-inf", "rates-inf", "q-object", "q-ragged", "q-string",
        "rates-object", "rates-ragged", "n-list", "n-null", "n-float", "n-bool",
        "rates-bool", "q-numeric-strings", "rates-mixed-bool", "q-convention",
        "rates-convention"])
@pytest.mark.parametrize("command", ["stationary", "decompose"])
def test_non_finite_generator_exits_2(command, generator, refusal, tmp_path, capsys):
    path = tmp_path / "q.json"
    write_json(path, generator)
    assert main([command, "--input", str(path)]) == 2
    assert refusal in capsys.readouterr().err


def test_rates_file_in_row_convention_is_transposed(tmp_path, capsys):
    rates = [[0, 1, 2], [3, 0, 1], [1, 2, 0]]
    row, column = tmp_path / "row.json", tmp_path / "column.json"
    write_json(row, {"convention": "row", "rates": rates})
    write_json(column, {"rates": np.array(rates).T.tolist()})
    outputs = []
    for path in (row, column):
        assert main(["stationary", "--input", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_compose_part_without_its_field_exits_2(tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.json" for name in ("pi", "S", "A")}
    write_json(paths["pi"], [0.5, 0.5])
    write_json(paths["S"], {"A": [[-1.0, 1.0], [1.0, -1.0]]})
    write_json(paths["A"], {"A": [[0.0, 0.0], [0.0, 0.0]]})
    assert main(["compose", *(f"--{k}={v}" for k, v in paths.items())]) == 2
    assert ("JSON object needs one of the fields ('S', 'matrix')"
            in capsys.readouterr().err)


def test_compose_of_non_numbers_exits_2(tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.json" for name in ("pi", "S", "A")}
    write_json(paths["pi"], [0.5, 0.5])
    write_json(paths["S"], {"S": [[-1.0, 1.0], [1.0, -1.0]]})
    write_json(paths["A"], {"matrix": [[0.0, {}], [0.0, 0.0]]})
    assert main(["compose", *(f"--{k}={v}" for k, v in paths.items())]) == 2
    assert "A must be a square array of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("part", ["S", "A"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_compose_of_non_finite_parts_exits_2(part, bad, tmp_path, capsys):
    parts = {"S": [[-1.0, 1.0], [1.0, -1.0]], "A": [[0.0, 0.0], [0.0, 0.0]]}
    parts[part][1][1] = bad
    paths = {name: tmp_path / f"{name}.json" for name in ("pi", "S", "A")}
    write_json(paths["pi"], [0.5, 0.5])
    write_json(paths["S"], {"S": parts["S"]})
    write_json(paths["A"], {"A": parts["A"]})
    assert main(["compose", *(f"--{k}={v}" for k, v in paths.items())]) == 2
    assert (f"finiteness invariant violated: {part} has an entry"
            in capsys.readouterr().err)


BEYOND_DOUBLE = 10 ** 400  # valid JSON, but float() of it overflows
CONTINUUM = ["continuum", "--problem", "fpe", "--grid", "4", "--refine", "1"]


@pytest.mark.parametrize("files, argv, refusal", [
    ({"q": {"q": [[-1, BEYOND_DOUBLE], [1, -1]]}}, ["stationary", "--input", "q"],
     "the generator q must be a square array of numbers"),
    ({"q": {"rates": [[0, BEYOND_DOUBLE], [1, 0]]}}, ["stationary", "--input", "q"],
     "the rates must be a square array of numbers"),
    ({"q": {"rates": [[0, 1], [1, 0]]}, "p0": [0.5, BEYOND_DOUBLE]},
     ["entropy", "--kind", "kl", "--input", "q", "--p0", "p0"],
     "the probability vector must be an array of numbers"),
    ({"pi": [0.5, 0.5], "S": [[-1, BEYOND_DOUBLE], [1, -1]], "A": [[0, 0], [0, 0]]},
     ["compose", "--pi", "pi", "--S", "S", "--A", "A"],
     "S must be a square array of numbers"),
    ({"fpe": {"gamma": BEYOND_DOUBLE}}, CONTINUUM,
     "problem invariant violated: gamma must be numbers"),
    ({"fpe": {"D": [[1, 0], [0, BEYOND_DOUBLE]]}}, CONTINUUM,
     "problem invariant violated: D must be numbers"),
    ({"fpe": {"phi": "custom_samples",
              "phi_samples": [[0] * 4] * 3 + [[0, 0, 0, BEYOND_DOUBLE]]}}, CONTINUUM,
     "problem invariant violated: phi samples must be numbers"),
], ids=["q", "rates", "p0", "compose-S", "gamma", "D", "phi_samples"])
def test_integer_beyond_double_range_exits_2(files, argv, refusal, tmp_path, capsys):
    for name, obj in files.items():
        write_json(tmp_path / f"{name}.json", obj)
    argv = [str(tmp_path / f"{a}.json") if a in files else a for a in argv]
    assert main(argv) == 2
    assert refusal in capsys.readouterr().err


def test_main_builds_one_parser(q3_path, tmp_path, monkeypatch):
    cli._parser.cache_clear()
    build_calls = mock.Mock(wraps=cli.build_parser)
    monkeypatch.setattr(cli, "build_parser", build_calls)
    outputs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outputs:
        assert main(["decompose", "--input", str(q3_path), "--output", str(out)]) == 0
    assert build_calls.call_count == 1
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


SPARSE_PROBE = """
import json, sys
from markov_flow.cli import main

tmp = sys.argv[1]


def sparse_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy.sparse"))


codes = [main([command, "--input", f"{tmp}/q.json", *extra,
               "--output", f"{tmp}/{command}.out"])
         for command, extra in (("decompose", []), ("cycles", []),
                                ("bound", ["--p0", f"{tmp}/p0.json"]),
                                ("evolve", ["--p0", f"{tmp}/p0.json"]))]
dense = sparse_modules()
codes.append(main(["stationary", "--input", f"{tmp}/birth_death.json",
                   "--output", f"{tmp}/pi.json"]))
print(json.dumps({"codes": codes, "dense": dense, "after": sparse_modules()}))
"""


def test_dense_session_never_loads_the_sparse_stack(tmp_path):
    # a fresh interpreter: the test modules import scipy.sparse themselves
    rates = np.random.default_rng(0).uniform(0.2, 2.0, (8, 8))
    np.fill_diagonal(rates, 0.0)
    write_json(tmp_path / "q.json", {"n": 8, "rates": rates.tolist()})
    write_json(tmp_path / "p0.json", [1.0] + [0.0] * 7)
    # 0 <-> 1 <-> 2: a missing edge, so csgraph decides irreducibility
    write_json(tmp_path / "birth_death.json",
               {"n": 3, "rates": [[0, 1, 0], [2, 0, 1], [0, 2, 0]]})
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", SPARSE_PROBE, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["codes"] == [0] * 5
    assert report["dense"] == []
    assert {"scipy.sparse", "scipy.sparse.csgraph",
            "scipy.sparse.linalg"} <= set(report["after"])
    pi = json.loads((tmp_path / "pi.json").read_text())["pi"]
    np.testing.assert_allclose(pi, [1 / 7, 2 / 7, 4 / 7], rtol=1e-12)


def test_csv_text_matches_format_spec():
    values = np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                       np.inf, -np.inf, np.nan, 0.1, -1.0 / 3.0, 123456789.0])
    text = _csv_text(["a", "b"], [values, values[::-1]])
    expected = "a,b\n" + "".join(
        f"{x:.17g},{y:.17g}\n" for x, y in zip(values, values[::-1])
    )
    assert text == expected


def format_spec_csv(header, columns):
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(values=st.lists(st.floats(), min_size=1, max_size=60))
def test_csv_text_matches_format_spec_on_floats(values):
    # st.floats() draws NaN, infinities, subnormals and signed zeros too
    column = np.array(values)
    assert _csv_text(["x"], [column]) == format_spec_csv(["x"], [column])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60))
def test_csv_text_matches_format_spec_on_bit_patterns(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    columns = [values, values[::-1]]
    assert _csv_text(["a", "b"], columns) == format_spec_csv(["a", "b"], columns)


def test_csv_text_matches_format_spec_on_edges():
    # powers of ten with both neighbours, the fixed/scientific switches
    # (1e-5, 1e-4, 1e16, 1e17), signed zeros, the ends of the range the
    # writer scales itself (1e-280, 1e280), and short decimals, whose 17
    # digits end in zeros that reach into the high 9-digit half
    short = [float(f"{m}e{k}") for m in (15, 1234, 12345678, 987654321)
             for k in range(-300, 290, 7)]
    powers = np.array([10.0 ** k for k in range(-300, 301)] + short
                      + [1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280])
    values = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf), [0.0, -0.0]])
    values = np.concatenate([values, -values])
    assert _csv_text(["x"], [values]) == format_spec_csv(["x"], [values])


def test_csv_text_rounds_exact_ties_to_even():
    # m / 2^k is exact in binary and its decimal expansion ends in 5; with 18
    # significant digits it is a tie at 17
    rng = np.random.default_rng(3)
    ties = []
    for k in range(2, 26):
        low, high = 10 ** 17 // 5 ** k + 1, min(10 ** 18 // 5 ** k, 2 ** 53)
        for m in rng.integers(low, high, 40).tolist():
            x = (m | 1) / 2 ** k
            digits = decimal.Decimal(x).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(x)
    values = np.array(ties + [-t for t in ties])
    assert len(ties) > 500
    assert _csv_text(["x"], [values]) == format_spec_csv(["x"], [values])


def test_csv_text_rows_across_chunks():
    # 7 columns do not divide the writer's chunk, so the 5003 rows fill
    # several chunks and the last one only partly
    rng = np.random.default_rng(5)
    table = rng.uniform(-1.0, 1.0, (5003, 7)) * 10.0 ** rng.integers(-30, 30, (5003, 7))
    table[::11, 3] = 0.0
    columns = list(table.T)
    header = [f"c{i}" for i in range(7)]
    assert cli._CSV_CHUNK % 7 and len(table) * 7 > 2 * cli._CSV_CHUNK
    assert _csv_text(header, columns) == format_spec_csv(header, columns)


def test_csv_text_of_one_row():
    columns = [np.array([x]) for x in (0.1, -2.5e-7, 3e21, np.nan)]
    assert _csv_text(["a", "b", "c", "d"], columns) == (
        "a,b,c,d\n0.10000000000000001,-2.4999999999999999e-07,3e+21,nan\n")


JSON_EDGE_CASES = [
    [], {}, [[], {}], {"a": [], "b": {}},
    [True, False, None], [1, True, 2.5],
    [float("inf"), float("-inf"), float("nan"), -0.0], [5e-324, 1e308, 0],
    ["a, b", 1.0], {"x, y": [1, 2], "k": "a, b"},
    {"b": [{"d": [1.5, -2], "c": None}], "a": [[0.1], [1, 2, 3]]},
    # lists of records, dicts with the same string keys
    [{"w": 1.5, "n": [0, 1]}, {"n": [2], "w": -0.0}],
    [{"b": True, "i": 1}, {"b": 1, "i": False}, {"b": None, "i": 2.5}],
    [{"n": [], "s": "], ["}, {"n": [1, float("nan")], "s": "%s, %%"}],
    [{"%s": 1, "k, %": [[1.0]]}, {"%s": float("inf"), "k, %": [[]]}],
    [{"r": [{"a": [1, 2]}, {"a": [3]}]}, {"r": []}],
    [{"a": 1}, {"b": 1}], [{"a": 1}, {"a": 2, "b": 3}], [{}, {}], [{"a": 1}, 2],
]


@pytest.mark.parametrize("obj", JSON_EDGE_CASES, ids=repr)
def test_emit_json_matches_stdlib_on_edge_cases(obj, tmp_path):
    out = tmp_path / "out.json"
    cli._emit_json(obj, str(out))
    assert out.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


NUMBERS = st.one_of(st.integers(), st.floats(),
                    st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                     -0.0, 5e-324]))
TEXTS = st.one_of(st.text(max_size=6),
                  st.sampled_from(["a, b", "], [", "[1, 2]", "%", "%s", "%%(k)s"]))
KEYS = st.one_of(st.sampled_from(["a", "b", "k, v", "], [", "%", "%s"]), TEXTS)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TEXTS)


def record_lists(values):
    """Lists of dicts sharing their keys, one value strategy per key."""
    columns = st.sampled_from([
        NUMBERS, st.booleans(), st.one_of(st.booleans(), NUMBERS), st.none(),
        TEXTS, st.lists(NUMBERS, min_size=1, max_size=4),
        st.lists(NUMBERS, max_size=2), values,
    ])
    shapes = st.dictionaries(KEYS, columns, min_size=1, max_size=4)
    return shapes.flatmap(
        lambda shape: st.lists(st.fixed_dictionaries(shape), min_size=1, max_size=5))


JSON_DOCUMENTS = st.recursive(
    SCALARS,
    lambda values: st.one_of(
        st.lists(values, max_size=4),
        st.dictionaries(KEYS, values, max_size=4),
        record_lists(values),
        st.lists(st.dictionaries(KEYS, values, max_size=3), max_size=4),
    ),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(obj=JSON_DOCUMENTS)
def test_json_text_matches_stdlib_on_generated_documents(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)


FLOATS = st.one_of(st.floats(), st.sampled_from([float("nan"), -0.0, 5e-324, 1e308]))


@st.composite
def mirrored_matrices(draw):
    """Square float matrices whose lower entries are planted against their
    mirrors: equal, negated (NaN included), a +0.0/-0.0 pair or unrelated."""
    n = draw(st.integers(1, 6))
    m = np.array(draw(st.lists(FLOATS, min_size=n * n, max_size=n * n))).reshape(n, n)
    for i in range(n):
        for j in range(i):
            kind = draw(st.sampled_from(["equal", "negated", "signed zeros", "unrelated"]))
            if kind == "equal":
                m[i, j] = m[j, i]
            elif kind == "negated":
                m[i, j] = -m[j, i]
            elif kind == "signed zeros":
                m[i, j], m[j, i] = draw(st.permutations([0.0, -0.0]))
    return m


@settings(derandomize=True, deadline=None, max_examples=300)
@given(m=mirrored_matrices())
def test_square_text_matches_stdlib_on_mirrored_matrices(m):
    obj = {"S": m, "pi": [1.0]}
    expected = json.dumps({"S": m.tolist(), "pi": [1.0]}, indent=2, sort_keys=True)
    assert cli._json_text(obj) == expected
    assert cli._json_text(m) == json.dumps(m.tolist(), indent=2)


# one-way rates and -0.0 rates (the column convention keeps their sign): S
# holds a -0.0 pair (0 <-> 2), A a +0.0/-0.0 pair (1 <-> 3)
SIGNED_ZEROS = {"n": 4, "convention": "column",
                "q": [[-1.0, -0.0, -0.0, 2.0], [1.0, -1.0, -0.0, -0.0],
                      [-0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 1.0, -2.0]]}


@pytest.mark.parametrize("generator", [
    SIGNED_ZEROS,
    generator_to_json(random_birth_death(np.random.default_rng(7), 9)),
], ids=["signed-zeros", "birth-death"])
def test_decompose_writes_the_stdlib_text(generator, tmp_path):
    path, out = tmp_path / "q.json", tmp_path / "decomposition.json"
    write_json(path, generator)
    assert main(["decompose", "--input", str(path), "--output", str(out)]) == 0
    d = decompose(generator_from_json(generator))
    S, A = np.asarray(d.S), np.asarray(d.A)
    expected = json.dumps({"pi": d.pi.p.tolist(), "S": S.tolist(), "A": A.tolist()},
                          indent=2, sort_keys=True)
    assert out.read_text() == expected + "\n"
    if generator is SIGNED_ZEROS:
        assert str(S[0, 2]) == str(S[2, 0]) == "-0.0"
        assert (str(A[1, 3]), str(A[3, 1])) == ("-0.0", "0.0")


def test_emit_json_matches_stdlib_on_cli_outputs(monkeypatch, tmp_path):
    """The bytes decompose, cycles and continuum write are the stdlib's
    indented text of what they report, with no NaN or Infinity; the
    continuum reports include one of a problem with ``D = 2^600 I``.
    decompose reports ``S`` and ``A`` as arrays, written as their lists."""
    gen_path, problem = tmp_path / "q120.json", tmp_path / "fpe.json"
    scaled = tmp_path / "fpe_scaled.json"
    write_json(gen_path, generator_to_json(random_generator(np.random.default_rng(61), 120)))
    write_json(problem, {"domain": [[-2, 2], [-2, 2]], "gamma": 0.5})
    write_json(scaled, {"D": [[2.0 ** 600, 0.0], [0.0, 2.0 ** 600]], "gamma": 0.5 * 2.0 ** 600})
    emit, expected = cli._emit_json, {}

    def spy(obj, output):
        text = json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)
        expected[output] = (text + "\n").encode()
        emit(obj, output)

    monkeypatch.setattr(cli, "_emit_json", spy)
    runs = {
        "decompose": ["decompose", "--input", str(gen_path)],
        "cycles": ["cycles", "--input", str(gen_path)],
        "continuum": ["continuum", "--problem", str(problem), "--grid", "8", "--refine", "2"],
        "continuum_scaled": ["continuum", "--problem", str(scaled), "--grid", "16",
                             "--refine", "2"],
    }
    outputs = {name: str(tmp_path / f"{name}.json") for name in runs}
    for name, argv in runs.items():
        assert main([*argv, "--output", outputs[name]]) == 0
    assert set(expected) == {outputs[name] for name in runs if name != "cycles"}
    expected[outputs["cycles"]] = stdlib_cycles_text(gen_path)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    for output, text in expected.items():
        assert Path(output).read_bytes() == text, output
        json.loads(text, parse_constant=refuse)


def test_continuum_report(tmp_path):
    problem = tmp_path / "fpe.json"
    write_json(problem, {
        "domain": [[-2, 2], [-2, 2]],
        "D": "identity",
        "gamma": 0.5,
        "phi": "quadratic",
    })
    out = tmp_path / "report.json"
    assert main([
        "continuum", "--problem", str(problem), "--grid", "8", "--refine", "2",
        "--output", str(out),
    ]) == 0
    report = json.loads(out.read_text())
    assert report["grids"] == [8, 16]
    assert len(report["levels"]) == 2
    assert report["l1_ratios"][0] >= 3.0
    for level in report["levels"]:
        assert level["sym_residual"] <= 1e-12


def test_continuum_report_is_byte_identical(tmp_path):
    problem = tmp_path / "fpe.json"
    write_json(problem, {"domain": [[-2, 2], [-2, 2]], "gamma": 0.5})
    outputs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outputs:
        assert main(["continuum", "--problem", str(problem), "--grid", "8",
                     "--refine", "3", "--output", str(out)]) == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


@pytest.mark.parametrize("refine", ["0", "-2"])
def test_refinement_without_levels_exits_2(refine, tmp_path, capsys):
    problem = tmp_path / "fpe.json"
    write_json(problem, {"gamma": 0.5})
    out = tmp_path / "report.json"
    assert main(["continuum", "--problem", str(problem), "--refine", refine,
                 "--output", str(out)]) == 2
    assert "refinement invariant violated" in capsys.readouterr().err
    assert not out.exists()


PHI_NOT_A_TAG = 'problem invariant violated: phi must be a catalog tag or "custom_samples"'


@pytest.mark.parametrize("problem, invariant", [
    ([1, 2], "problem invariant violated"),
    ("quadratic", "problem invariant violated"),
    ({"domain": 5}, "domain invariant violated"),
    ({"domain": [[-3, 3]]}, "domain invariant violated"),
    ({"domain": [[-3, 3], [-3, 3, 1]]}, "domain invariant violated"),
    ({"domain": [["-3", "3"], [-3, 3]]}, "domain invariant violated"),
    ({"domain": [[None, 3], [-3, 3]]}, "domain invariant violated"),
    ({"domain": [[False, True], [-3, 3]]}, "domain invariant violated"),
    ({"domain": [[-3, 3], [3, -3]]}, "domain invariant violated"),
    ({"domain": [[-3, 3], [1, 1]]}, "domain invariant violated"),
    ({"domain": [[float("-inf"), 3], [-3, 3]]}, "domain invariant violated"),
    ({"domain": [[-3, float("nan")], [-3, 3]]}, "domain invariant violated"),
    ({"domain": [[-1e308, 1e308], [-3, 3]]}, "domain invariant violated"),
    ({"domain": [[-3, 10 ** 400], [-3, 3]]}, "domain invariant violated"),
    ({"phi": "custom_samples"},
     'problem invariant violated: phi "custom_samples" needs a phi_samples array'),
    ({"phi": "custom_samples", "phi_samples": {"a": 1}},
     "problem invariant violated: phi samples must be numbers"),
    ({"gamma": {"a": 1}}, "problem invariant violated: gamma must be numbers"),
    ({"gamma": "abc"}, "problem invariant violated: gamma must be numbers"),
    ({"D": {"x": 1}}, "problem invariant violated: D must be numbers"),
    ({"D": [[1, "x"], [0, 1]]}, "problem invariant violated: D must be numbers"),
    ({"phi": [[0.0] * 4] * 4}, PHI_NOT_A_TAG),
    ({"phi": 5}, PHI_NOT_A_TAG),
    ({"phi": [1, 2]}, PHI_NOT_A_TAG),
    ({"gamma": "0.5"}, "problem invariant violated: gamma must be numbers"),
    ({"D": [["1", "0"], ["0", "1"]]}, "problem invariant violated: D must be numbers"),
    ({"phi": "custom_samples", "phi_samples": [[0.0] * 4] * 3 + [[0.0, 0.0, 0.0, "1"]]},
     "problem invariant violated: phi samples must be numbers"),
])
def test_malformed_problem_exits_2(problem, invariant, tmp_path, capsys):
    path = tmp_path / "fpe.json"
    write_json(path, problem)
    assert main(["continuum", "--problem", str(path), "--grid", "4",
                 "--refine", "1"]) == 2
    assert invariant in capsys.readouterr().err


@pytest.mark.parametrize("problem, invariant", [
    ({"gamma": None}, "problem invariant violated: gamma must be numbers"),
    ({"gamma": True}, "problem invariant violated: gamma must be numbers"),
    ({"gamma": [[0.5] * 3 + [False]] * 4},
     "problem invariant violated: gamma must be numbers"),
    ({"gamma": float("inf")}, "finiteness invariant violated: gamma has an entry"),
    ({"gamma": [[0.5] * 3 + [float("nan")]] * 4},
     "finiteness invariant violated: gamma has an entry"),
    ({"gamma": [1, 2]},
     "problem invariant violated: gamma must be a scalar or (4, 4), got shape (2,)"),
    ({"D": None}, "problem invariant violated: D must be numbers"),
    ({"D": [[1, 0], [0, True]]}, "problem invariant violated: D must be numbers"),
    ({"D": [[1, 0], [0, float("-inf")]]}, "finiteness invariant violated: D has an entry"),
    ({"D": [1, 0, 0, 1]}, "problem invariant violated: D must be 2x2"),
], ids=["gamma-null", "gamma-true", "gamma-false-sample", "gamma-inf", "gamma-nan-sample",
        "gamma-shape", "D-null", "D-true", "D-inf", "D-shape"])
def test_field_that_is_not_finite_numbers_exits_2(problem, invariant, tmp_path, capsys):
    # JSON reads 1e400 as inf; numpy would read true as 1.0 and null as NaN
    path = tmp_path / "fpe.json"
    path.write_text(json.dumps(problem).replace("Infinity", "1e400"))
    assert main(["continuum", "--problem", str(path), "--grid", "4",
                 "--refine", "1"]) == 2
    assert invariant in capsys.readouterr().err


def test_sampled_gamma_cannot_be_refined(tmp_path, capsys):
    path = tmp_path / "fpe.json"
    write_json(path, {"gamma": [[0.5] * 4] * 4})
    assert main(["continuum", "--problem", str(path), "--grid", "4",
                 "--refine", "2"]) == 2
    assert "sampled gamma cannot be resampled" in capsys.readouterr().err


def test_over_cap_refinement_exits_before_any_level(tmp_path, capsys):
    # grids 64, 128, 256 and 512: the last is past the cell cap, and the
    # study refuses it before it assembles the first level
    problem = tmp_path / "fpe.json"
    write_json(problem, {"gamma": 0.5})
    with mock.patch("markov_flow.continuum.discretize_fpe_detailed") as assemble:
        code = main(["continuum", "--problem", str(problem), "--grid", "64",
                     "--refine", "4"])
    assert code == 2
    assert assemble.call_count == 0
    assert "512x512 grid has 262144 cells" in capsys.readouterr().err


def test_demo_reproduces_the_committed_files(tmp_path):
    committed = Path(__file__).resolve().parent.parent / "demo"
    assert main(["demo", "--output-dir", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in committed.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


def test_demo_outputs_are_deterministic(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert main(["demo", "--output-dir", str(dir_a)]) == 0
    assert main(["demo", "--output-dir", str(dir_b)]) == 0
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == [
        "bound_3cycle.csv",
        "decomposition_2state.json",
        "decomposition_3cycle.json",
        "entropy_traces.csv",
    ]
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_validation_failures_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    write_json(bad, {"n": 2, "q": [[-1.0, 0.0], [1.0, 0.0]]})
    assert main(["stationary", "--input", str(bad)]) == 2
    assert "communicating classes" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert main(["stationary", "--input", str(missing)]) == 2


@pytest.mark.parametrize("command, q, refusal", [
    # GTH's pi underflows to [1, 0]: dual would divide by the zero
    (["dual"], [[-1e-300, 1e300], [1e-300, -1e300]],
     "positivity invariant violated: pi[1] = 0 <= 0"),
    (["stationary", "--method", "tree"],
     [[-1e300, 0, 1e-300], [1e300, -1e-300, 0], [0, 1e-300, -1e-300]],
     "the spanning-tree weight of state 1 overflows double precision"),
], ids=["dual", "tree"])
def test_weights_beyond_double_range_exit_2(command, q, refusal, tmp_path, capsys):
    # a typed refusal and no numpy warning, which the suite turns into an error
    path = tmp_path / "q.json"
    write_json(path, {"n": len(q), "q": q})
    assert main([*command, "--input", str(path)]) == 2
    assert refusal in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    assert main(["stationary", "--frobnicate"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_tree_method_has_no_size_cap(tmp_path, capsys):
    rng = np.random.default_rng(3)
    rates = rng.uniform(0.5, 1.5, (10, 10))
    big = tmp_path / "big.json"
    write_json(big, {"n": 10, "rates": rates.tolist()})
    pi = {}
    for method in ("solve", "tree"):
        assert main(["stationary", "--input", str(big), "--method", method]) == 0
        pi[method] = json.loads(capsys.readouterr().out)["pi"]
    np.testing.assert_allclose(pi["tree"], pi["solve"], rtol=1e-10, atol=0.0)
