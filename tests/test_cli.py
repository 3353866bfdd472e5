"""End-to-end command line checks, run in process through main()."""
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hopfphase
import hopfphase.cli as cli
import hopfphase.cluster as cluster
import hopfphase.integrator as integrator
import hopfphase.phase_model as phase_model
from hopfphase.cli import main
from hopfphase.cluster import (ClusterConfig, ab_coefficients, alpha_polynomials,
                               find_roots_batch, g_raw, polynomial_alpha_roots_batch,
                               sync_stability)
from hopfphase.config import ConfigError, InitialSpec, parse_config
from hopfphase.integrator import _TEXT_ELEMENTS
from hopfphase.normal_form import SystemParams
from hopfphase.reduction import build_coupling, with_delta

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
RICH_COEFFS = {"a1": [-1.0, 0.3], "a_minus1": [0.1, 0.05], "a2": [0.2, -0.1]}


def write_config(tmp_path, name="run.json", **over):
    doc = {"lambda": 0.1, "omega": 1.0, "epsilon": 0.5, "n_osc": 3,
           "coefficients": {"a1": [-1.0, 0.0], "a2": [0.3, 0.0]}}
    doc.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


def test_derive_report(tmp_path):
    cfg = write_config(tmp_path, seed=9)
    out = tmp_path / "report.json"
    assert run(["derive", "--config", cfg, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 9
    consts = doc["constants"]
    assert consts["r_star_sq"] == pytest.approx(0.1, abs=1e-15)
    assert consts["omega_cap"] == 1.0
    assert consts["a0"] == -2.0 and consts["b0"] == 0.0 and consts["c0"] == 0.0
    assert doc["sync_frequency"] == pytest.approx(1.0, abs=1e-15)
    assert len(doc["canonical_terms"]) == 1
    term = doc["canonical_terms"][0]
    assert term["component"] == "g2" and term["order"] == 1
    assert term["xi"] == pytest.approx(0.03, abs=1e-15)
    assert term["chi"] == pytest.approx(math.pi / 2, abs=1e-15)
    assert all(entry["lambda_power"] in (0, 1) for entry in doc["lambda_split"])


def test_derive_zero_coupling_has_no_terms(tmp_path):
    cfg = write_config(tmp_path, coefficients={"a1": [-1.0, 0.0]})
    out = tmp_path / "report.json"
    assert run(["derive", "--config", cfg, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["canonical_terms"] == []
    assert doc["lambda_split"] == []


def test_config_errors_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path, **{"lambda": -0.1})
    assert run(["derive", "--config", bad, "--out", tmp_path / "x"]) == 2
    assert "lambda" in capsys.readouterr().err

    assert run(["derive", "--config", tmp_path / "absent.json",
                "--out", tmp_path / "x"]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_simulate_writes_both_models(tmp_path):
    cfg = write_config(tmp_path, seed=3, dt=0.05, t_end=2.0)
    full_out = tmp_path / "full.txt"
    phase_out = tmp_path / "phase.txt"
    assert run(["simulate", "--model", "full", "--config", cfg,
                "--out", full_out]) == 0
    assert run(["simulate", "--model", "phase", "--config", cfg,
                "--out", phase_out]) == 0

    full_lines = full_out.read_text().splitlines()
    assert full_lines[0] == "# seed=3"
    assert full_lines[1] == "# model=full"
    assert full_lines[2] == f"# dt={0.05:.17g}"
    assert full_lines[3].startswith("t, re(z_1), im(z_1)")
    data = np.loadtxt(full_out, delimiter=",", skiprows=4)
    assert data.shape == (41, 7)

    phase_lines = phase_out.read_text().splitlines()
    assert phase_lines[1] == "# model=phase"
    assert "rcos(phi_1)" in phase_lines[3]
    data = np.loadtxt(phase_out, delimiter=",", skiprows=4)
    assert data.shape == (41, 7)
    # the appended columns are the phase columns mapped through r*cos
    assert np.allclose(data[:, 4:], math.sqrt(0.1) * np.cos(data[:, 1:4]),
                       atol=1e-15)


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, seed=3, dt=0.05, t_end=1.0)
    out_a, out_b, out_c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    assert run(["simulate", "--model", "phase", "--config", cfg, "--out", out_a]) == 0
    assert run(["simulate", "--model", "phase", "--config", cfg, "--out", out_b]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert run(["simulate", "--model", "phase", "--config", cfg,
                "--out", out_c, "--seed", "4"]) == 0
    assert out_a.read_bytes() != out_c.read_bytes()


def test_simulate_without_horizon_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["simulate", "--model", "full", "--config", cfg,
                "--out", tmp_path / "x"]) == 2
    assert "t_end" in capsys.readouterr().err


VERBS = [["compare"], ["simulate", "--model", "full"],
         ["simulate", "--model", "phase"]]


@pytest.mark.parametrize("horizon, flags", [
    ({"dt": 10.0, "t_end": 1.0}, []),
    ({"dt": 0.05, "t_end": 2.0}, ["--dt", "10", "--t-end", "1"]),
], ids=["config", "flags"])
@pytest.mark.parametrize("verb", VERBS)
def test_step_longer_than_horizon_exits_2(tmp_path, capsys, verb, horizon, flags):
    cfg = write_config(tmp_path, **horizon)
    assert run([*verb, "--config", cfg, *flags, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'dt' = 10.0" in err and "'t_end' = 1.0" in err
    assert not (tmp_path / "x").exists()


def test_phase_step_beyond_half_a_turn_exits_2(tmp_path, capsys, monkeypatch):
    # B = 1.015 bounds the phase speed of this config, so dt = 50 could turn
    # a phase about eight times in one step; both verbs that integrate the
    # phase model refuse it before either right-hand side is called
    calls = []

    def counted(rhs):
        def wrapped(*args):
            calls.append(args)
            return rhs(*args)
        return wrapped

    monkeypatch.setattr(cli, "phase_rhs_fast", counted(phase_model.phase_rhs_fast))
    monkeypatch.setattr(cli, "full_rhs_array", counted(cli.full_rhs_array))
    cfg = write_config(tmp_path, t_end=500.0)
    out = tmp_path / "x"
    for verb in (["simulate", "--model", "phase"], ["compare"]):
        assert run([*verb, "--config", cfg, "--dt", "50", "--out", out]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'dt' = 50.0" in err
        assert "half a turn" in err and "B = 1.015" in err
        assert not out.exists() and calls == []
    # a step just inside the bound runs
    assert run(["simulate", "--model", "phase", "--config", cfg,
                "--dt", str(0.99 * math.pi / 1.015), "--out", out]) == 0
    assert out.exists() and calls


def test_output_path_is_checked_before_the_step(tmp_path, capsys):
    # both integrating verbs check the output file first, then the step
    # rules in one order: the horizon, the step count and memory, half a turn
    cfg = write_config(tmp_path, t_end=2.0)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    for verb in VERBS:
        assert run([*verb, "--config", cfg, "--dt", "5",
                    "--out", blocker / "x"]) == 2
        err = capsys.readouterr().err
        assert "cannot write output file" in err and "exceeds" not in err


@pytest.mark.parametrize("epsilon", [0.0, 1e-320])
def test_compare_without_t_end_needs_a_finite_default_horizon(tmp_path, capsys, epsilon):
    cfg = write_config(tmp_path, epsilon=epsilon)
    assert run(["compare", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'t_end' is required" in err
    assert f"'epsilon' = {epsilon!r}" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["--dt", "--t-end"])
def test_non_finite_step_or_horizon_override_exits_2(tmp_path, capsys, flag):
    cfg = write_config(tmp_path, dt=0.05, t_end=2.0)
    assert run(["compare", "--config", cfg, flag, "inf",
                "--out", tmp_path / "x"]) == 2
    assert "must be positive and finite" in capsys.readouterr().err


BAD_FIELDS = [("dt", 0.0, "field 'dt' must be positive and finite"),
              ("dt", -1.0, "field 'dt' must be positive and finite"),
              ("t_end", 0.0, "field 't_end' must be positive and finite"),
              ("t_end", -1.0, "field 't_end' must be positive and finite"),
              ("seed", -1, "field 'seed' must be nonnegative"),
              ("alpha_grid", 63, "cluster-scan grids must be at least 64, got "
                                 "field 'cluster.alpha_grid' = 63"),
              ("psi_grid", 63, "cluster-scan grids must be at least 64, got "
                               "field 'cluster.psi_grid' = 63")]


def override(key, value):
    """The verb and flag that override field key with value."""
    verb = "cluster-scan" if key.endswith("_grid") else "compare"
    return [verb, f"--{key.replace('_', '-')}", repr(value)]


def replaced(cfg, key, value):
    """cfg with field key set to value by dataclasses.replace."""
    if key.endswith("_grid"):
        return replace(cfg, cluster=replace(cfg.cluster, **{key: value}))
    return replace(cfg, **{key: value})


@pytest.mark.parametrize("key, value, message", BAD_FIELDS)
def test_one_rule_per_field_on_every_route(tmp_path, capsys, key, value, message):
    # the config file, the command-line flag and dataclasses.replace all run
    # the check in the dataclass that holds the field
    good = write_config(tmp_path, "good.json", dt=0.05, t_end=2.0)
    doc = {"cluster": {key: value}} if key.endswith("_grid") else {key: value}
    bad = write_config(tmp_path, "bad.json", **doc)
    out = tmp_path / "x"
    # a bad grid in the file fails to parse for every verb
    assert run(["derive", "--config", bad, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"config error: {message}"
    assert run([*override(key, value), "--config", good, "--out", out]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"config error: {message}"
    with pytest.raises(ConfigError) as info:
        replaced(parse_config(good.read_text()), key, value)
    assert str(info.value) == message
    assert not out.exists()


@pytest.mark.parametrize("key", ["dt", "t_end"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_step_or_horizon_on_every_route(tmp_path, capsys, key, value):
    good = write_config(tmp_path, "good.json", dt=0.05, t_end=2.0)
    message = f"field '{key}' must be positive and finite"
    assert run([*override(key, value), "--config", good,
                "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"config error: {message}"
    with pytest.raises(ConfigError) as info:
        replaced(parse_config(good.read_text()), key, value)
    assert str(info.value) == message
    # JSON's Infinity and NaN fail the file's type check first
    with pytest.raises(ConfigError) as info:
        parse_config(write_config(tmp_path, **{key: value}).read_text())
    assert str(info.value) == f"field '{key}' must be finite"


@pytest.mark.parametrize("initial, message", [
    ({"kind": "explicit", "phases": [0.0, 1.0, 2.0]},
     "field 'initial' lists 3 oscillators but n_osc is 4"),
    ({"kind": "explicit", "z": [[1.0, 0.0]] * 3},
     "field 'initial' lists 3 oscillators but n_osc is 4"),
    ({"kind": "two-cluster", "q_size": 2, "p_size": 1},
     "fields 'initial.q_size' + 'initial.p_size' must sum to n_osc (4), got 3"),
])
def test_replaced_n_osc_must_fit_the_initial_state(tmp_path, initial, message):
    cfg = parse_config(write_config(tmp_path, initial=initial).read_text())
    with pytest.raises(ConfigError) as info:
        replace(cfg, n_osc=4)
    assert str(info.value) == message


def test_replaced_initial_state_is_checked():
    with pytest.raises(ConfigError, match="'initial.amplitude' must be nonnegative"):
        InitialSpec(kind="perturbed-sync", amplitude=-0.1)
    with pytest.raises(ConfigError, match="must be positive"):
        replace(InitialSpec(kind="two-cluster", q_size=2, p_size=1), p_size=0)


@pytest.mark.parametrize("verb", [["compare"], ["simulate", "--model", "full"],
                                  ["simulate", "--model", "phase"]])
@pytest.mark.parametrize("route", ["flag", "file"])
def test_uncountable_step_count_exits_2(tmp_path, capsys, verb, route):
    # t_end/dt overflows to inf; the run is refused before any work
    if route == "flag":
        cfg = write_config(tmp_path)
        extra = ["--dt", "5e-324", "--t-end", "1"]
    else:
        cfg = write_config(tmp_path, dt=1e-320, t_end=1.0)
        extra = []
    out = tmp_path / "x"
    assert run([*verb, "--config", cfg, *extra, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("config error: the step count t_end/dt of ")
    assert "'t_end' = 1.0" in err and err.endswith("shorten t_end or enlarge dt")
    assert not out.exists()


def test_unstable_step_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, t_end=500.0)
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["simulate", "--model", "full", "--config", cfg,
                    "--dt", "50", "--out", tmp_path / "x"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["compare"], ["simulate", "--model", "full"],
                                  ["simulate", "--model", "phase"]])
def test_oversized_trajectory_exits_2(tmp_path, capsys, verb):
    n = 100_000
    cfg = write_config(tmp_path, n_osc=n, dt=0.5, t_end=1e13)
    tracemalloc.start()
    try:
        code = run([*verb, "--config", cfg, "--out", tmp_path / "x"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{2 * 10 ** 13} steps" in err
    assert f"N={n}" in err and " bytes" in err
    # only the initial state was built, never a trajectory
    assert peak < 64 * 16 * n
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("model, itemsize", [("full", 16), ("phase", 8)])
def test_simulate_budgets_the_trajectory_before_the_initial_state(
        tmp_path, capsys, monkeypatch, model, itemsize):
    n, steps = 1000, 100
    cfg = write_config(tmp_path, n_osc=n, dt=0.1, t_end=steps * 0.1)
    calls = []
    for name in ("initial_full_state", "initial_phases"):
        build = getattr(cli, name)

        def counted(*args, build=build):
            calls.append(build)
            return build(*args)

        monkeypatch.setattr(cli, name, counted)
    need = (steps + 1) * n * itemsize
    monkeypatch.setattr(integrator, "_physical_memory_bytes", lambda: need - 1)
    out = tmp_path / "traj.txt"
    assert run(["simulate", "--model", model, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"a trajectory of {steps} steps" in err
    assert f"N={n} needs {need} bytes" in err
    assert calls == [] and not out.exists()

    monkeypatch.setattr(integrator, "_physical_memory_bytes", lambda: need)
    assert run(["simulate", "--model", model, "--config", cfg, "--out", out]) == 0
    assert len(calls) == 1 and out.exists()


def test_compare_budgets_both_trajectories_before_integrating(
        tmp_path, capsys, monkeypatch):
    n, steps = 1000, 100
    cfg = write_config(tmp_path, n_osc=n, dt=0.1, t_end=steps * 0.1)
    full_bytes = (steps + 1) * n * 16
    both_bytes = (steps + 1) * n * (16 + 8)
    calls = []
    for name in ("full_rhs_array", "phase_rhs_fast"):
        rhs = getattr(cli, name)

        def counted(*args, rhs=rhs):
            calls.append(rhs)
            return rhs(*args)

        monkeypatch.setattr(cli, name, counted)
    # each trajectory fits on its own, the two together do not
    monkeypatch.setattr(integrator, "_physical_memory_bytes",
                        lambda: (full_bytes + both_bytes) // 2)
    out = tmp_path / "cmp.json"
    assert run(["compare", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{steps} steps" in err
    assert f"N={n}" in err and f"{both_bytes} bytes" in err
    assert calls == [] and not out.exists()

    monkeypatch.setattr(integrator, "_physical_memory_bytes", lambda: both_bytes)
    assert run(["compare", "--config", cfg, "--out", out]) == 0
    assert calls and out.exists()


def test_cluster_scan_builds_the_alpha_polynomials_once(tmp_path, monkeypatch):
    calls = []
    build = cluster.alpha_polynomials

    def counted(coupling):
        calls.append(coupling)
        return build(coupling)

    monkeypatch.setattr(cluster, "alpha_polynomials", counted)
    monkeypatch.setattr(cli, "alpha_polynomials", counted)
    cfg = write_config(tmp_path, seed=1, coefficients=RICH_COEFFS)
    assert run(["cluster-scan", "--config", cfg,
                "--out", tmp_path / "scan.txt"]) == 0
    assert len(calls) == 1


def test_cluster_scan_budgets_its_grids_before_any_work(
        tmp_path, capsys, monkeypatch):
    calls = []
    scan = cli.root_scans

    def counted(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "root_scans", counted)
    points = 4096 + 4096
    need = points * cli._SCAN_POINT_BYTES
    monkeypatch.setattr(integrator, "_physical_memory_bytes", lambda: need - 1)
    cfg = write_config(tmp_path, seed=1, coefficients=RICH_COEFFS)
    out = tmp_path / "scan.txt"
    args = ["cluster-scan", "--config", cfg, "--alpha-grid", 4096,
            "--psi-grid", 4096, "--out", out]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"{points} alpha and psi grid points" in err
    assert f"needs {need} bytes" in err
    assert calls == [] and not out.exists()

    monkeypatch.setattr(integrator, "_physical_memory_bytes", lambda: need)
    assert run(args) == 0
    assert calls and out.exists()


def test_cluster_scan_scans_before_it_opens_its_file(tmp_path, monkeypatch):
    def failing(*args):
        raise RuntimeError("psi scan failed")

    monkeypatch.setattr(cli, "root_scans", failing)
    cfg = write_config(tmp_path, seed=1, coefficients=RICH_COEFFS)
    with pytest.raises(RuntimeError, match="psi scan failed"):
        run(["cluster-scan", "--config", cfg, "--out", tmp_path / "new" / "scan.txt"])
    assert not (tmp_path / "new").exists()


def test_cluster_scan_text_is_the_same_in_any_block_size(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, seed=1, coefficients=RICH_COEFFS)
    texts = []
    for block in (cli._LINE_BLOCK, 7, 1):
        monkeypatch.setattr(cli, "_LINE_BLOCK", block)
        out = tmp_path / f"scan_{block}.txt"
        assert run(["cluster-scan", "--config", cfg, "--out", out]) == 0
        texts.append(out.read_bytes())
    assert texts[1] == texts[0] and texts[2] == texts[0]
    assert texts[0].count(b"\n") > 7 * 7


def test_cluster_scan_makes_one_root_kernel_pass(tmp_path, monkeypatch):
    calls = []
    kernel = cluster._cubic_roots

    def counted(q, *args):
        calls.append(q.shape[0])
        return kernel(q, *args)

    monkeypatch.setattr(cluster, "_cubic_roots", counted)
    cfg = write_config(tmp_path, seed=1, coefficients=RICH_COEFFS)
    assert run(["cluster-scan", "--config", cfg, "--alpha-grid", 128,
                "--psi-grid", 96, "--out", tmp_path / "scan.txt"]) == 0
    # both charts of the 127 alphas' rows, and the 95 separations' rows
    assert calls == [2 * 127 + 95]


def test_table_lines_by_code(monkeypatch):
    # a root line per root, tangential or not, and one nan line for a point
    # with none or whose function vanishes, across blocks of three lines
    monkeypatch.setattr(cli, "_LINE_BLOCK", 3)
    points = np.array([-0.5, 0.0, 1e-5, 2.5, -1e300])
    scan = (np.array([0, 0, 3]), np.array([0.1, 0.2, -3e-7]),
            np.array([False, True, False]), np.array([False, True, False, False, False]))
    text = "".join(cli._table_texts("# head\n", points, scan,
                                    lambda own, code: cli._ALPHA_FLAGS[code]))
    lines = [("%.17g" % -0.5, "%.17g" % 0.1, "0"), ("%.17g" % -0.5, "%.17g" % 0.2, "1"),
             ("0", "nan", "identically-zero"), ("%.17g" % 1e-5, "nan", "none"),
             ("2.5", "%.17g" % -3e-7, "0"), ("%.17g" % -1e300, "nan", "none")]
    assert text == "# head\n" + "".join(", ".join(line) + "\n" for line in lines)


def scan_file_oracle(cfg) -> str:
    """The cluster-scan file of cfg built from the two public scans, one
    alpha at a time, with every number written by "%.17g" %."""
    coupling = build_coupling(cfg.system_params(), cfg.delta)
    alphas = np.linspace(-1.0, 1.0, cfg.cluster.alpha_grid + 1)[1:-1].tolist()
    psis = np.linspace(0.0, 2.0 * math.pi, cfg.cluster.psi_grid,
                       endpoint=False)[1:].tolist()
    ccs = [ab_coefficients(ClusterConfig.from_alpha(a), coupling) for a in alphas]
    lines = [f"# seed={cfg.seed}", "# model=cluster-scan", "# section=alpha-scan",
             "# columns: alpha, psi_root, stability_of_sync, tangential_flag"]
    for alpha, cc, scan in zip(alphas, ccs, find_roots_batch(ccs)):
        cells = ([("%.17g" % r.psi, "%d" % r.tangential) for r in scan.roots]
                 or [("nan", "identically-zero" if scan.identically_zero else "none")])
        lines += [f"{'%.17g' % alpha}, {root}, {sync_stability(cc)}, {flag}"
                  for root, flag in cells]
    lines += ["# section=psi-scan", "# columns: psi, alpha_root, flag"]
    polys = cfg.cluster.synthetic_ab or alpha_polynomials(coupling)
    for psi, scan in zip(psis, polynomial_alpha_roots_batch(psis, *polys)):
        cells = ([("%.17g" % root, "root") for root in scan.roots]
                 or [("nan", "identically-zero" if scan.identically_zero else "none")])
        lines += [f"{'%.17g' % psi}, {root}, {flag}" for root, flag in cells]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", [64, 700])
@pytest.mark.parametrize("source", ["two_cluster", "synthetic_ab", "example", "rich"])
def test_cluster_scan_file_equals_the_public_scans_tables(tmp_path, source, grid):
    # the file comes from one joint root-kernel pass and the %.17g text
    # kernel; the oracle runs each public scan on its own and formats
    # every number with "%.17g" %
    cfg = (write_config(tmp_path, seed=1, coefficients=RICH_COEFFS) if source == "rich"
           else CONFIGS / f"{source}.json")
    out = tmp_path / "scan.txt"
    assert run(["cluster-scan", "--config", cfg, "--alpha-grid", grid,
                "--psi-grid", grid, "--out", out]) == 0
    doc = parse_config(Path(cfg).read_text(encoding="utf-8"))
    doc = replace(doc, cluster=replace(doc.cluster, alpha_grid=grid, psi_grid=grid))
    assert out.read_text(encoding="utf-8") == scan_file_oracle(doc)


def test_compare_report(tmp_path):
    cfg = write_config(tmp_path, seed=2, t_end=5.0)
    out = tmp_path / "cmp.json"
    assert run(["compare", "--config", cfg, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"seed", "dt", "horizon", "max_phase_dev",
                        "freq_full", "freq_phase"}
    assert doc["horizon"] == pytest.approx(5.0)
    assert 0 <= doc["max_phase_dev"] < 1.0


def test_compare_default_horizon_is_coupling_scale(tmp_path):
    cfg = write_config(tmp_path, seed=2)
    out = tmp_path / "cmp.json"
    assert run(["compare", "--config", cfg, "--out", out]) == 0
    doc = json.loads(out.read_text())
    # 1 / (epsilon * lambda) with epsilon=0.5, lambda=0.1
    assert doc["horizon"] == pytest.approx(20.0)


def test_compare_default_horizon_of_a_repulsive_coupling(tmp_path):
    # 1 / (|epsilon| * lambda): a repulsive coupling has the same time scale
    cfg = write_config(tmp_path, seed=2, epsilon=-0.5)
    out = tmp_path / "cmp.json"
    assert run(["compare", "--config", cfg, "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["horizon"] - 20.0) <= doc["dt"]


def test_cluster_scan_sections(tmp_path):
    cfg = write_config(tmp_path, seed=1, coefficients=RICH_COEFFS)
    out = tmp_path / "scan.txt"
    assert run(["cluster-scan", "--config", cfg, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=1"
    assert lines[1] == "# model=cluster-scan"
    assert "# section=alpha-scan" in lines
    assert "# section=psi-scan" in lines

    alpha_start = lines.index("# section=alpha-scan")
    psi_start = lines.index("# section=psi-scan")
    assert lines[alpha_start + 1].startswith("# columns: alpha, psi_root,")
    assert lines[psi_start + 1].startswith("# columns: psi, alpha_root,")

    alpha_rows = [l.split(", ") for l in lines[alpha_start + 2:psi_start]]
    # 64 intervals give 63 interior alpha values, one or more rows each
    assert len({row[0] for row in alpha_rows}) == 63
    assert all(row[2] in ("stable", "unstable", "degenerate")
               for row in alpha_rows)

    psi_rows = [l.split(", ") for l in lines[psi_start + 2:]]
    assert len({row[0] for row in psi_rows}) == 63
    flags = {row[2] for row in psi_rows}
    assert flags <= {"root", "none", "identically-zero"}
    # pairwise coupling: the imbalance equation is linear, one root at most
    per_psi = {}
    for row in psi_rows:
        per_psi[row[0]] = per_psi.get(row[0], 0) + (row[2] == "root")
    assert max(per_psi.values()) <= 1
    assert any(v == 1 for v in per_psi.values())


def test_cluster_scan_zero_coupling_flags(tmp_path):
    cfg = write_config(tmp_path, coefficients={"a1": [-1.0, 0.0]})
    out = tmp_path / "scan.txt"
    assert run(["cluster-scan", "--config", cfg, "--out", out]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows and all(row.endswith("identically-zero") for row in rows)


def test_cluster_scan_ignores_the_coupling_magnitude(tmp_path):
    # the roots of G scale out of every coupling coefficient: at 2^520 the
    # file is the unscaled one byte for byte, with no overflow, and at 2^-50
    # no bracket is taken to vanish identically
    doc = json.loads((CONFIGS / "two_cluster.json").read_text(encoding="utf-8"))
    assert run(["cluster-scan", "--config", CONFIGS / "two_cluster.json",
                "--out", tmp_path / "base.txt"]) == 0
    base = (tmp_path / "base.txt").read_text(encoding="utf-8")
    for k in (520, -50):
        coeffs = {key: value if key == "a1" else [math.ldexp(x, k) for x in value]
                  for key, value in doc["coefficients"].items()}
        cfg = write_config(tmp_path, f"{k}.json", **{**doc, "coefficients": coeffs})
        out = tmp_path / f"{k}.txt"
        assert run(["cluster-scan", "--config", cfg, "--out", out]) == 0
        text = out.read_text(encoding="utf-8")
        if k > 0:
            assert text == base
        else:
            assert "identically-zero" not in text
            psi_table = text[text.index("# section=psi-scan"):]
            assert psi_table == base[base.index("# section=psi-scan"):]


def test_cluster_scan_synthetic_coefficients(tmp_path):
    cfg = write_config(
        tmp_path,
        cluster={"synthetic_ab": {"a1": [0.125, 0.0, 1.0], "b1": [0.0, -0.75],
                                  "a2": [0.0], "b2": [0.0]}})
    out = tmp_path / "scan.txt"
    assert run(["cluster-scan", "--config", cfg, "--out", out]) == 0
    alphas = []
    for line in out.read_text().splitlines():
        if line.startswith("#"):
            continue
        parts = line.split(", ")
        if len(parts) == 3 and abs(float(parts[0]) - math.pi / 2) < 1e-12:
            assert parts[2] == "root"
            alphas.append(float(parts[1]))
    assert len(alphas) == 2
    assert abs(alphas[0] - 0.25) < 1e-9 and abs(alphas[1] - 0.5) < 1e-9


def test_cluster_scan_rejects_small_grids(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert run(["cluster-scan", "--config", cfg, "--alpha-grid", "32",
                "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "at least 64" in err and "'cluster.alpha_grid' = 32" in err
    cfg = write_config(tmp_path, cluster={"alpha_grid": 64, "psi_grid": 63})
    assert run(["cluster-scan", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "'cluster.psi_grid' = 63" in capsys.readouterr().err


ELEVEN_COEFFS = {"a1": [-1.0, 0.3], "a_minus1": [0.1, 0.05], "a2": [0.2, -0.1],
                 "a3": [-0.12, 0.07], "a4": [0.05, 0.15], "a5": [-0.1, -0.04],
                 "a6": [0.08, -0.16], "a7": [0.15, 0.1], "a8": [-0.06, 0.11],
                 "a9": [0.13, -0.05], "a10": [0.04, 0.09], "a11": [-0.14, 0.12]}


@pytest.mark.parametrize("source", ["two_cluster", "eleven"])
def test_cluster_scan_roots_zero_the_raw_difference(tmp_path, source):
    # g_raw shares no code with the scan; the tolerances are the benchmark
    # oracle's: bisection stops at 1e-10 in Psi, grazing roots are accepted
    # below 1e-8, and alpha roots are bisected to 1e-12
    if source == "two_cluster":
        cfg = Path(__file__).resolve().parents[1] / "configs" / "two_cluster.json"
    else:
        cfg = write_config(tmp_path, n_osc=8, delta=0.3, coefficients=ELEVEN_COEFFS)
    out = tmp_path / "scan.txt"
    assert run(["cluster-scan", "--config", cfg, "--alpha-grid", 512,
                "--psi-grid", 512, "--out", out]) == 0
    loaded = parse_config(Path(cfg).read_text(encoding="utf-8"))
    coupling = hopfphase.build_coupling(loaded.system_params(), loaded.delta)
    lines = out.read_text().splitlines()
    split = lines.index("# section=psi-scan")
    alpha_rows = [l.split(", ") for l in lines[:split] if not l.startswith("#")]
    psi_rows = [l.split(", ") for l in lines[split:] if not l.startswith("#")]
    assert len({row[0] for row in alpha_rows}) == 511
    assert len({row[0] for row in psi_rows}) == 511
    psi_roots = [(float(a), float(x)) for a, x, _, _ in alpha_rows if x != "nan"]
    alpha_roots = [(float(x), float(a)) for x, a, _ in psi_rows if a != "nan"]
    assert psi_roots and alpha_roots
    for alpha, psi in psi_roots:
        assert abs(g_raw(psi, ClusterConfig.from_alpha(alpha), coupling)) <= 2e-8
    for psi, alpha in alpha_roots:
        bracket = (g_raw(psi, ClusterConfig.from_alpha(alpha), coupling)
                   / (2.0 * math.sin(0.5 * psi)))
        assert abs(bracket) <= 1e-9


def test_out_falls_back_to_config_output(tmp_path):
    target = tmp_path / "from_config.json"
    cfg = write_config(tmp_path, output=str(target))
    assert run(["derive", "--config", cfg]) == 0
    assert target.exists()


def test_output_defaults_to_the_verbs_file_in_the_working_directory(
        tmp_path, monkeypatch):
    cfg = write_config(tmp_path, dt=0.05, t_end=2.0)
    monkeypatch.chdir(tmp_path)
    for verb, name in ((["derive"], "derive.json"), (["compare"], "compare.json"),
                       (["cluster-scan"], "cluster_scan.txt"),
                       (["simulate", "--model", "full"], "trajectory_full.txt"),
                       (["simulate", "--model", "phase"], "trajectory_phase.txt")):
        assert run([*verb, "--config", cfg]) == 0
        assert (tmp_path / name).stat().st_size > 0, name


@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("out", ["", ".", "/"])
def test_output_path_with_no_parent_exits_2(tmp_path, capsys, monkeypatch, out, route):
    # these paths have no parents to search for an existing ancestor
    cfg = write_config(tmp_path, **({"output": out} if route == "config" else {}))
    monkeypatch.chdir(tmp_path)
    flags = ["--out", out] if route == "flag" else []
    assert run(["derive", "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"config error: cannot write output file '{Path(out)}': "
                        "it is a directory\n")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("content, message", [
    # not UTF-8: named, as a file that cannot be opened is
    (b"\xff\xfe{}", "cannot read config file '{cfg}': not UTF-8 ('utf-8' codec "),
    (b"[" * 100_000, "configuration is not valid JSON: "),  # past the recursion limit
], ids=["not-utf8", "nested-too-deep"])
def test_unparsable_config_file_exits_2(tmp_path, capsys, content, message):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    assert run(["derive", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message.format(cfg=cfg))
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_help_and_usage_errors(tmp_path, capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path, t_end=1.0)
    # argparse reports a usage error for the missing --model choice
    assert run(["simulate", "--config", cfg]) == 2


def test_public_names_resolve():
    # the benchmark harness imports or patches these by name, so a missing
    # one would otherwise show only in a traced benchmark run
    assert len(hopfphase.__all__) == len(set(hopfphase.__all__))
    for name in hopfphase.__all__:
        assert hasattr(hopfphase, name), name
    for module, name in ((phase_model, "moments"), (cluster, "g_factored"),
                         (cli, "integrate"), (cli, "main"),
                         (hopfphase, "parse_config")):
        assert callable(getattr(module, name, None)), name


def count_rhs_calls(monkeypatch):
    """Wrap both right-hand sides the cli module calls; returns the call log."""
    calls = []
    for name in ("full_rhs_array", "phase_rhs_fast"):
        rhs = getattr(cli, name)

        def counted(*args, rhs=rhs):
            calls.append(rhs)
            return rhs(*args)

        monkeypatch.setattr(cli, name, counted)
    return calls


ALL_VERBS = [["derive"], ["cluster-scan"], *VERBS]


@pytest.mark.parametrize("case", ["directory", "under-a-file", "deep-under-a-file"])
@pytest.mark.parametrize("verb", ALL_VERBS)
def test_unwritable_output_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, verb, case):
    cfg = write_config(tmp_path, dt=0.05, t_end=2.0)
    blocker = tmp_path / "blocker"
    if case == "directory":
        blocker.mkdir()
        out = blocker
    else:
        blocker.write_text("keep", encoding="utf-8")
        out = blocker / "out.txt" if case == "under-a-file" else blocker / "a" / "out.txt"
    calls = count_rhs_calls(monkeypatch)
    assert run([*verb, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write output file '{out}': " in err
    assert "Traceback" not in err
    assert calls == []
    assert blocker.is_dir() or blocker.read_text(encoding="utf-8") == "keep"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("verb", ALL_VERBS)
def test_full_disk_exits_2(tmp_path, capsys, verb):
    # /dev/full opens, but every write to it fails with ENOSPC: the failure
    # comes from a write or the close, after the run has done its work
    cfg = write_config(tmp_path, dt=0.05, t_end=2.0)
    assert run([*verb, "--config", cfg, "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot write output file '/dev/full': " in err
    assert "Traceback" not in err


def test_a_warning_is_one_stderr_line(tmp_path, capsys):
    # pyproject's filterwarnings hides this warning in the suite; a command
    # line run has Python's default filters
    example = CONFIGS / "example.json"
    line = ("warning: n_osc < 4: the thirteen symmetry-adapted basis fields "
            "satisfy one linear relation, so the coefficients are not uniquely "
            "identifiable (config field 'n_osc' = 3)")
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        # the override builds a second RunConfig, which warns again
        for flags in ([], ["--t-end", "5"]):
            assert run(["derive", "--config", example, *flags,
                        "--out", tmp_path / "derive.json"]) == 0
            assert capsys.readouterr().err.splitlines() == [line]
        # the warning comes before the error line, which stays the last
        assert run(["cluster-scan", "--config", example, "--alpha-grid", "63",
                    "--out", tmp_path / "scan.txt"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            line, "config error: cluster-scan grids must be at least 64, got "
                  "field 'cluster.alpha_grid' = 63"]
        # numpy's overflow warnings on huge synthetic polynomials
        huge = write_config(tmp_path, n_osc=4, cluster={"synthetic_ab": {
            key: [1e308] * 4 for key in ("a1", "b1", "a2", "b2")}})
        assert run(["cluster-scan", "--config", huge, "--out", tmp_path / "huge.txt"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err and len(set(err)) == len(err)
        assert all(l.startswith("warning: overflow") and ".py:" not in l for l in err)


@pytest.mark.parametrize("verb", ALL_VERBS)
def test_one_system_params_per_run_config(monkeypatch, tmp_path, verb):
    built = []
    post_init = SystemParams.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SystemParams, "__post_init__", counted)
    config = CONFIGS / "two_cluster.json"
    assert run([*verb, "--config", config, "--t-end", "2",
                "--out", tmp_path / "out"]) == 0
    # the file's RunConfig and the one the --t-end override makes
    assert len(built) == 2 and built[0].n_osc == built[1].n_osc == 8


def test_perturbation_too_wide_to_draw_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, n_osc=4, t_end=1.0,
                       initial={"kind": "perturbed-sync", "amplitude": 1e308})
    out = tmp_path / "x.txt"
    assert run(["simulate", "--model", "phase", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: field 'initial.amplitude' must be at most")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("verb", ALL_VERBS)
def test_overlong_output_name_exits_2(tmp_path, capsys, verb):
    cfg = write_config(tmp_path, dt=0.05, t_end=2.0)
    out = tmp_path / ("x" * 300)
    assert run([*verb, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write output file '{out}': " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", VERBS[:2])
def test_failed_run_leaves_no_output_file(tmp_path, capsys, verb):
    # dt = 3 is inside compare's phase-step bound pi/B = 3.095, but its
    # dt*omega = 3 is outside RK4's stable range on the full model's rotation
    cfg = write_config(tmp_path, t_end=500.0)
    out = tmp_path / "new" / "x.txt"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run([*verb, "--config", cfg, "--dt", "3", "--out", out])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    # the output directory is made only when there is something to write
    assert not (tmp_path / "new").exists()


def simulated(tmp_path, monkeypatch, model, n, rows):
    """Run simulate with `rows` output rows; return the file's bytes, the
    trajectory it integrated and its r_star (None for the full model)."""
    cfg = write_config(tmp_path, n_osc=n, seed=5, dt=0.25, t_end=0.25 * (rows - 1),
                       coefficients=RICH_COEFFS)
    trajs = []
    integrate = cli.integrate

    def capture(*args):
        trajs.append(integrate(*args))
        return trajs[-1]

    monkeypatch.setattr(cli, "integrate", capture)
    out = tmp_path / f"{model}.txt"
    assert run(["simulate", "--model", model, "--config", cfg, "--out", out]) == 0
    monkeypatch.setattr(cli, "integrate", integrate)
    run_cfg = hopfphase.parse_config(cfg.read_text(encoding="utf-8"))
    r_star = None
    if model == "phase":
        r_star = math.sqrt(hopfphase.build_coupling(run_cfg.system_params()).r_star_sq)
    traj, = trajs
    assert traj.times.size == rows
    return out.read_bytes(), traj, r_star


@pytest.mark.parametrize("n", [2, 64, 4096, 4097])
@pytest.mark.parametrize("model", ["full", "phase"])
def test_streamed_simulate_file_equals_the_whole_text(tmp_path, monkeypatch, model, n):
    block = max(1, _TEXT_ELEMENTS // n)
    for rows in sorted({block - 1, block, block + 1, 3 * block + 5} - {0, 1}):
        data, traj, r_star = simulated(tmp_path, monkeypatch, model, n, rows)
        whole = integrator.trajectory_text(traj, seed=5, r_star=r_star,
                                           extra_header={"dt": "0.25"})
        assert data == whole.encode("utf-8")


def test_simulate_text_goes_through_trajectory_text_in_blocks(tmp_path, monkeypatch):
    # the benchmark tracer times and sizes simulate's text by wrapping
    # cli.trajectory_text; each block must pass through it as one str
    texts = []
    render = cli.trajectory_text

    def counted(*args, **kwargs):
        texts.append(render(*args, **kwargs))
        return texts[-1]

    monkeypatch.setattr(cli, "trajectory_text", counted)
    n = 64
    for model in ("full", "phase"):
        texts.clear()
        data, _, _ = simulated(tmp_path, monkeypatch, model, n,
                               rows=3 * (_TEXT_ELEMENTS // n) + 5)
        assert len(texts) == 4
        assert all(isinstance(text, str) for text in texts)
        assert "".join(texts).encode("utf-8") == data


def test_compare_and_simulate_never_import_numpy_random(tmp_path):
    # a fresh interpreter, since the tests themselves draw from numpy.random;
    # numpy 1.x imports numpy.random with numpy itself, so there it proves nothing
    cfg = write_config(tmp_path, seed=2 ** 64, initial={"kind": "random-phases"})
    out = tmp_path / "out"
    code = (
        "import sys, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from hopfphase.cli import main\n"
        "for verb in (['compare'], ['simulate', '--model', 'phase']):\n"
        f"    assert main([*verb, '--config', {str(cfg)!r}, '--t-end', '2',\n"
        f"                 '--out', {str(out)!r}]) == 0\n"
        "print(eager, 'numpy.random' in sys.modules)\n")
    src = str(Path(hopfphase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    eager, loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.random with numpy")
    assert loaded == "False"


def test_both_models_run_the_folded_delta(tmp_path, monkeypatch):
    # compare folds delta into a3 once: the full model runs with_delta's
    # coefficients, and the phase model the coupling that
    # build_coupling(cfg.system_params(), cfg.delta) gives, bit for bit
    seen = {}
    for name in ("full_rhs_array", "phase_rhs_fast"):
        def record(state, given, rhs=getattr(cli, name), name=name):
            seen[name] = given
            return rhs(state, given)
        monkeypatch.setattr(cli, name, record)
    cfg = write_config(tmp_path, n_osc=5, delta=-0.7, coefficients=ELEVEN_COEFFS,
                       t_end=1.0)
    assert run(["compare", "--config", cfg, "--out", tmp_path / "c.json"]) == 0
    loaded = parse_config(cfg.read_text(encoding="utf-8"))
    folded = with_delta(loaded.system_params(), loaded.delta)
    assert folded.coeffs.a3 != loaded.coeffs.a3
    assert seen["full_rhs_array"] == folded
    assert seen["phase_rhs_fast"] == build_coupling(loaded.system_params(), loaded.delta)


def test_compare_deviation_at_nonzero_delta_is_of_the_reduction_order(tmp_path):
    # with the term in both models, delta = +-0.5 deviates about as much as
    # delta = 0 (0.87x and 1.12x; 5.2x and 3.0x when only the phase model
    # ran it) and halving eps cuts the deviation to 0.33x
    doc = json.loads((CONFIGS / "two_cluster.json").read_text(encoding="utf-8"))

    def deviation(delta, epsilon):
        cfg = write_config(tmp_path, **{**doc, "delta": delta, "epsilon": epsilon})
        out = tmp_path / "compare.json"
        assert run(["compare", "--config", cfg, "--t-end", 200, "--out", out]) == 0
        return json.loads(out.read_text())["max_phase_dev"]

    plain = deviation(0.0, 0.05)
    for delta in (0.5, -0.5):
        assert deviation(delta, 0.05) <= 1.5 * plain
    assert deviation(0.5, 0.025) <= 0.5 * deviation(0.5, 0.05)


@pytest.mark.parametrize("verb", ALL_VERBS)
def test_delta_that_overflows_a3_exits_2(tmp_path, capsys, verb):
    # delta*a_minus1*(-re a1) overflows before with_delta's division
    cfg = write_config(tmp_path, delta=1e308, t_end=1.0, coefficients={
        "a1": [-10.0, 0.0], "a_minus1": [10.0, 0.0]})
    out = tmp_path / "x"
    assert run([*verb, "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == "config error: delta = 1e+308 folds into a non-finite a3\n"
    assert not out.exists()
