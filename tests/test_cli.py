import importlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from markov_flow.cli import _csv_text, main


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
def test_size_mismatch_exits_2(command, q3_path, tmp_path, capsys):
    p0 = tmp_path / "e1.json"
    write_json(p0, [1.0, 0.0])
    assert main([*command, "--input", str(q3_path), "--p0", str(p0)]) == 2
    err = capsys.readouterr().err
    assert "size invariant violated: p0 has 2 entries, the generator has 3 states" in err


@pytest.mark.parametrize("points", ["0", "-3"])
@pytest.mark.parametrize("command", ["evolve", "bound"])
def test_too_few_points_exits_2(command, points, q3_path, tmp_path, capsys):
    p0 = tmp_path / "p0.json"
    write_json(p0, [1.0, 0.0, 0.0])
    assert main([command, "--input", str(q3_path), "--p0", str(p0),
                 "--points", points]) == 2
    err = capsys.readouterr().err
    assert "grid invariant violated: need at least one time point" in err
    assert f"points = {points}" in err


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


@pytest.mark.parametrize("command", [
    ["entropy", "--kind", "kl"],
    ["entropy", "--kind", "shannon"],
    ["entropy", "--kind", "gini"],
    ["evolve"],
    ["bound"],
])
def test_non_finite_p0_exits_2(command, q3_path, tmp_path, capsys):
    p0 = tmp_path / "nan.json"
    write_json(p0, [0.5, 0.5, float("nan")])
    assert main([*command, "--input", str(q3_path), "--p0", str(p0)]) == 2
    assert "finiteness invariant violated: the probability vector" in capsys.readouterr().err


@pytest.mark.parametrize("generator", [
    {"q": [[float("nan"), 1.0], [1.0, -1.0]]},
    {"q": [[-float("inf"), 1.0], [float("inf"), -1.0]]},
    {"rates": [[0.0, float("inf")], [1.0, 0.0]]},
], ids=["q-nan", "q-inf", "rates-inf"])
@pytest.mark.parametrize("command", ["stationary", "decompose"])
def test_non_finite_generator_exits_2(command, generator, tmp_path, capsys):
    path = tmp_path / "q.json"
    write_json(path, generator)
    assert main([command, "--input", str(path)]) == 2
    assert "finiteness invariant violated" in capsys.readouterr().err


def test_csv_text_matches_format_spec():
    values = np.array([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                       np.inf, -np.inf, np.nan, 0.1, -1.0 / 3.0, 123456789.0])
    text = _csv_text(["a", "b"], [values, values[::-1]])
    expected = "a,b\n" + "".join(
        f"{x:.17g},{y:.17g}\n" for x, y in zip(values, values[::-1])
    )
    assert text == expected


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
