"""End-to-end checks of the command line front end and its file formats."""

import configparser
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import movingdom
from movingdom import cli
from movingdom.cli import (SCHEMA_VERSION, ConfigError, fixture_path,
                           load_config, main, read_table, write_table)

BALL_SHRINK_A11_AT_T1 = 1.8710941655794973  # (exp(-1) + 1)^2


def run_cli(args):
    return main([str(a) for a in args])


def hypothesis_checks_must_not_run(rc):
    raise AssertionError("the hypothesis checks ran before the config was checked")


def read_rows(path):
    name, version, header, rows = read_table(path)
    assert version == 1
    return name, header, rows


# ---------------------------------------------------------------------------
# config parsing


def test_fixture_path_unknown_name():
    with pytest.raises(ConfigError, match="ball_shrink"):
        fixture_path("no_such_fixture")


def test_load_config_reads_problem_and_numerics():
    rc = load_config(fixture_path("ball_shrink"))
    assert rc.dim == 3
    assert rc.domain_kind == "ball"
    assert len(rc.forward) == 3
    assert rc.beta == 1.0
    assert rc.scheme == "crank-nicolson"
    assert rc.dt == 0.01
    assert rc.grid_ladder == (32, 64, 128, 256)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_requires_problem_section(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[numerics]\ngrid = 8\n")
    with pytest.raises(ConfigError, match="problem"):
        load_config(p)


def test_load_config_requires_quoted_expressions(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[problem]\ndim = 1\nextents = 1.0\n"
                 "forward = y1\ninverse = \"x1\"\nbeta = 1.0\n")
    with pytest.raises(ConfigError, match="quoted"):
        load_config(p)


def test_load_config_wrong_component_count(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text('[problem]\ndim = 2\nextents = 1.0, 1.0\n'
                 'forward = "y1"\ninverse = "x1", "x2"\nbeta = 1.0\n')
    with pytest.raises(ConfigError, match="2 forward"):
        load_config(p)


# ---------------------------------------------------------------------------
# table format


def test_table_round_trip_is_byte_identical(tmp_path):
    rows = [(0, 0.1, "free text"), (1, 1.0 / 3.0, "x")]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table(a, "demo", ("i", "v", "note"), rows)
    name, header, parsed = read_rows(a)
    assert name == "demo"
    assert header == ["i", "v", "note"]
    # floats are re-read exactly through repr
    assert float(parsed[1][1]) == 1.0 / 3.0
    write_table(b, "demo", header, [(int(i), float(v), s) for i, v, s in parsed])
    assert a.read_bytes() == b.read_bytes()


def test_streamed_table_matches_the_joined_form(tmp_path):
    header = ("i", "v", "note")
    rows = [(0, np.float64(0.1), "free text"), (7, 1.0 / 3.0, "x"),
            (np.int64(-2), np.float64(-2.5e-300), "")]
    p = tmp_path / "t.csv"
    write_table(p, "demo", header, (row for row in rows))
    lines = [f"schema,demo,{SCHEMA_VERSION}", ",".join(header)]
    lines.extend(",".join(repr(float(c)) if isinstance(c, float) else str(c)
                          for c in row) for row in rows)
    assert p.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_table_columns_match_the_rows_form(tmp_path):
    # columns (as `solve` writes its moving-frame tables) give the bytes that
    # the same values give as rows through _cell
    rng = np.random.default_rng(4)
    x = np.repeat(rng.normal(size=5), 179)   # 895 rows: a full block and a partial one
    u = np.concatenate([rng.normal(size=890), [0.0, -0.0, 5e-324, -1e300, 1e-300]])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_table(a, "demo", ("t", "x", "u"), columns=["0.5", x, u])
    write_table(b, "demo", ("t", "x", "u"), [(0.5, float(xi), float(ui)) for xi, ui in zip(x, u)])
    # line by line: pytest's diff of two whole files would take minutes
    assert a.read_text().splitlines() == b.read_text().splitlines()


def test_cli_loads_no_scipy(tmp_path):
    # importing scipy.sparse alone adds about a quarter second and tens of
    # MiB of resident memory to every command
    code = ("import sys, movingdom.cli as cli; "
            "code = cli.main(['check', '--config', str(cli.fixture_path('sin_t')), "
            f"'--out', {str(tmp_path)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(movingdom.__file__).parents[1]))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "0 []"


def test_read_table_rejects_untagged_file(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError, match="schema"):
        read_table(p)


def test_numpy_scalars_do_not_leak_into_tables(tmp_path):
    p = tmp_path / "n.csv"
    write_table(p, "demo", ("v",), [(np.float64(0.5),)])
    assert "np.float64" not in p.read_text()
    assert p.read_text().splitlines()[2] == "0.5"


# ---------------------------------------------------------------------------
# check: exit codes and report content


def test_check_passes_on_moving_ball(tmp_path):
    assert run_cli(["check", "--config", fixture_path("ball_shrink"),
                    "--out", tmp_path]) == 0
    _, header, rows = read_rows(tmp_path / "hypothesis_report.csv")
    assert header == ["check", "status", "value", "detail"]
    by_name = {r[0]: r[1] for r in rows}
    assert by_name["inverse"] == "pass"
    assert by_name["H1"] == "pass"
    # the sampled-horizon consistency probe flags this geometry, which is
    # reported without failing the run
    assert by_name["H4"] == "advisory"
    assert "fail" not in {r[1] for r in rows}


def test_check_identity_is_fully_consistent(tmp_path):
    assert run_cli(["check", "--config", fixture_path("identity"),
                    "--out", tmp_path]) == 0
    by_name = {r[0]: r[1] for r in read_rows(tmp_path / "hypothesis_report.csv")[2]}
    assert by_name["H4"] == "pass"


def test_check_rejects_rotation_with_witness(tmp_path):
    assert run_cli(["check", "--config", fixture_path("rotation"),
                    "--out", tmp_path]) == 1
    _, _, rows = read_rows(tmp_path / "hypothesis_report.csv")
    by_name = {r[0]: r for r in rows}
    assert by_name["H1"][1] == "fail"
    # the witness row pins the sample where separability breaks
    assert "H1_witness" in by_name
    assert "t=" in by_name["H1_witness"][3]


def test_check_rejects_cubic_for_sign_condition(tmp_path):
    assert run_cli(["check", "--config", fixture_path("cubic"),
                    "--out", tmp_path]) == 1
    by_name = {r[0]: r[1] for r in read_rows(tmp_path / "hypothesis_report.csv")[2]}
    assert by_name["H2"] == "pass"
    assert by_name["H3"] == "fail"


def test_check_rejects_quintic_for_growth(tmp_path):
    assert run_cli(["check", "--config", fixture_path("quintic"),
                    "--out", tmp_path]) == 1
    by_name = {r[0]: r[1] for r in read_rows(tmp_path / "hypothesis_report.csv")[2]}
    assert by_name["H2"] == "fail"


def test_check_accepts_bounded_nonlinearity(tmp_path):
    assert run_cli(["check", "--config", fixture_path("sin_u"),
                    "--out", tmp_path]) == 0


@pytest.mark.parametrize("command, change, message", [
    ("check", {"forward": '"y1 + "'}, "offset"),
    # validate_inverse samples negative t, where sqrt leaves its domain
    ("check", {"forward": '"y1 * sqrt(t)"'}, "sqrt"),
    ("check", {"forward": '"y1 + u"'}, "forward component uses ['u']"),
    ("check", {"extents": "-1.0"}, "box extents must be positive"),
    ("solve", {"grid": "2"}, "at least 3 cells per axis"),
], ids=["syntax", "eval_domain", "foreign_variable", "negative_extent",
        "two_cells"])
def test_malformed_expression_exits_2(tmp_path, capsys, command, change, message):
    cfg = {"extents": "1.0", "forward": '"y1"', "grid": "8"} | change
    p = tmp_path / "bad.cfg"
    p.write_text(f'[problem]\ndim = 1\nextents = {cfg["extents"]}\n'
                 f'forward = {cfg["forward"]}\ninverse = "x1"\nbeta = 1.0\n'
                 f'initial = "1 + y1"\n[numerics]\ngrid = {cfg["grid"]}\n'
                 f'dt = 0.01\n[experiment]\ntau = 0.0\nt = 0.02\n')
    assert run_cli([command, "--config", p, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("movingdom: config error: ") and message in last


@pytest.mark.parametrize("command, change, message", [
    ("pullback", {"k_max": "abc"}, "k_max = 'abc'"),
    ("pullback", {"radii": ""}, "radii = ''"),
    ("pullback", {"t_star": "x"}, "t_star = 'x'"),
    ("solve", {"t": "abc"}, "t = 'abc'"),
    ("pullback", {"k_max": "0"}, "k_max must be at least 1, got 0"),
    ("pullback", {"seeds": "0"}, "seeds must be at least 1, got 0"),
    ("pullback", {"drift_gaps": ""}, "drift_gaps = ''"),
    ("pullback", {"t_star": "inf"}, "t_star = 'inf' is not finite"),
    ("pullback", {"horizon": "nan"}, "horizon = 'nan' is not finite"),
    ("solve", {"tau": "2", "t": "1"}, "needs tau <= t, got tau = 2.0, t = 1.0"),
    ("pullback", {"radii": "-1.0, 100.0"}, "radii entries must be positive, got -1.0"),
    ("pullback", {"drift_gaps": "-1.0"}, "drift_gaps entries must be positive, got -1.0"),
    ("pullback", {"radius_k": "-3"}, "radius_k must be at least 0, got -3"),
    ("pullback", {"max_total_steps": "-1"}, "max_total_steps must be at least 1, got -1"),
    ("pullback", {"horizon": "5.0"}, "horizon 5.0 too short for the decay fit"),
], ids=["k_max_text", "radii_empty", "t_star_text", "solve_t_text", "k_max_zero",
        "seeds_zero", "drift_gaps_empty", "t_star_inf", "horizon_nan", "solve_tau_after_t",
        "radii_negative", "drift_gaps_negative", "radius_k_negative",
        "max_total_steps_negative", "horizon_short"])
def test_bad_experiment_value_exits_2(tmp_path, capsys, monkeypatch, command, change,
                                      message):
    # the config is read and range-checked before any hypothesis check runs
    monkeypatch.setattr(cli, "_hypothesis_rows", hypothesis_checks_must_not_run)
    experiment = {"horizon": "10.0", "seeds": "1"} | change
    p = tmp_path / "bad.cfg"
    p.write_text('[problem]\ndim = 1\nextents = 1.0\nforward = "y1"\ninverse = "x1"\n'
                 'beta = 1.0\ninitial = "1 + y1"\n[numerics]\ngrid = 8\ndt = 0.05\n'
                 '[experiment]\n' + "".join(f"{k} = {v}\n" for k, v in experiment.items()))
    assert run_cli([command, "--config", p, "--out", tmp_path]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("movingdom: config error: ") and message in lines[0]


@pytest.mark.parametrize("command, change, message", [
    ("solve", {"dt": "nan"}, "dt must be positive, got nan"),
    ("solve", {"dt": "-1"}, "dt must be positive, got -1.0"),
    ("solve", {"cg_tol": "0"}, "cg_tol must be positive, got 0.0"),
    ("solve", {"scheme": "leapfrog"}, "unknown scheme 'leapfrog'"),
    ("solve", {"snapshot_every": "-2"}, "snapshot_every must be >= 0, got -2"),
    ("pullback", {"dt": "-1"}, "dt must be positive, got -1.0"),
    ("mms", {"scheme": "leapfrog"}, "unknown scheme 'leapfrog'"),
    ("mms", {"dts": "0.02, -0.01"}, "dt must be positive, got -0.01"),
    # "domain" goes to [problem]: a radial grid has one axis
    ("solve", {"domain": "ball", "grid": "8, 8"},
     "grid needs one cell count per axis (1 here), got (8, 8)"),
], ids=["solve_dt_nan", "solve_dt_negative", "solve_cg_tol_zero", "solve_scheme",
        "solve_snapshot_every_negative", "pullback_dt_negative", "mms_scheme",
        "mms_dts_negative", "solve_ball_grid_two_counts"])
def test_bad_numerics_value_exits_2(tmp_path, capsys, monkeypatch, command, change, message):
    monkeypatch.setattr(cli, "_hypothesis_rows", hypothesis_checks_must_not_run)
    numerics = {"grid": "8", "dt": "0.05", "dts": "0.02, 0.01"} | change
    domain = numerics.pop("domain", "box")
    p = tmp_path / "bad.cfg"
    p.write_text(f'[problem]\ndim = 1\ndomain = {domain}\nextents = 1.0\n'
                 'forward = "y1"\ninverse = "x1"\nbeta = 1.0\ninitial = "1 + y1"\n'
                 'exact = "exp(0 - t) * cos(3.141592653589793 * y1)"\n[numerics]\n'
                 + "".join(f"{k} = {v}\n" for k, v in numerics.items())
                 + '[experiment]\ntau = 0.0\nt = 0.1\nhorizon = 10.0\nseeds = 1\n')
    assert run_cli([command, "--config", p, "--out", tmp_path]) == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("movingdom: config error: bad [numerics] value: ")
    assert message in last


@pytest.mark.parametrize("case", ["superscript_in_f", "config_not_utf8", "out_is_a_file",
                                  "deep_parentheses_in_f", "long_sum_in_f"])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, case):
    cfg, out = tmp_path / "bad.cfg", tmp_path / "out"
    text = ('[problem]\ndim = 1\nextents = 1.0\nforward = "y1"\ninverse = "x1"\n'
            'beta = 1.0\n')
    if case == "superscript_in_f":
        cfg.write_text(text + 'f = "2 + \u00b3 * u"\n', encoding="utf-8")
    elif case == "deep_parentheses_in_f":   # overflowed the parser's recursion
        cfg.write_text(text + 'f = "' + "(" * 300 + "0 - u" + ")" * 300 + '"\n')
    elif case == "long_sum_in_f":   # parsed, then overflowed diff under check_H2
        cfg.write_text(text + 'f = "0 - ' + " - ".join(["u"] * 1500) + '"\n')
    elif case == "config_not_utf8":
        cfg.write_bytes(b"\xff\xfe" + text.encode())
    else:
        cfg.write_text(text)
        out.write_text("a file, not a directory\n")
    assert run_cli(["check", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("movingdom: config error: "), lines


def test_missing_config_exits_2(tmp_path):
    assert run_cli(["check", "--config", tmp_path / "nope.cfg",
                    "--out", tmp_path]) == 2


def test_degenerate_map_exits_1(tmp_path):
    p = tmp_path / "flat.cfg"
    # collapsing the inverse makes the metric singular
    p.write_text('[problem]\ndim = 1\nextents = 1.0\n'
                 'forward = "y1"\ninverse = "x1 * 0"\nbeta = 1.0\n')
    assert run_cli(["check", "--config", p, "--out", tmp_path]) == 1


# ---------------------------------------------------------------------------
# transform


def test_subcommands_skip_the_hoelder_probe(tmp_path, monkeypatch):
    # the probe is report-only: check writes its row, a pullback does not run it
    def must_not_run(*a, **k):
        raise AssertionError("hoelder_probe ran outside check")

    monkeypatch.setattr(cli, "hoelder_probe", must_not_run)
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(fixture_path("sin_t"))
    cp["numerics"]["dt"] = "0.05"
    cp["experiment"].update({"k_max": "2", "seeds": "1", "radii": "1.0",
                             "radius_k": "1", "drift_gaps": "1.0"})
    cfg = tmp_path / "short.cfg"
    with open(cfg, "w") as fh:
        cp.write(fh)
    assert run_cli(["pullback", "--config", cfg, "--out", tmp_path / "out"]) == 0
    with pytest.raises(AssertionError, match="outside check"):
        run_cli(["check", "--config", cfg, "--out", tmp_path / "check"])


def test_transform_identity_symbolic(tmp_path):
    assert run_cli(["transform", "--config", fixture_path("identity"),
                    "--out", tmp_path]) == 0
    _, _, rows = read_rows(tmp_path / "transform_symbolic.csv")
    by_entry = dict((r[0], r[1]) for r in rows)
    assert float(by_entry["a_11"]) == 1.0
    assert float(by_entry["b_1"]) == 0.0
    ks = [v for k, v in by_entry.items() if k.startswith("K[")]
    assert ks and all(float(v) == 1.0 for v in ks)


def test_transform_moving_ball_samples(tmp_path):
    assert run_cli(["transform", "--config", fixture_path("ball_shrink"),
                    "--out", tmp_path]) == 0
    _, header, rows = read_rows(tmp_path / "transform_samples.csv")
    i_t = header.index("t")
    i_a11 = header.index("a_11")
    i_a12 = header.index("a_12")
    i_b1 = header.index("b_1")
    at_t1 = [r for r in rows if float(r[i_t]) == 1.0]
    assert at_t1
    for r in at_t1:
        assert float(r[i_a11]) == pytest.approx(BALL_SHRINK_A11_AT_T1, abs=1e-12)
        assert float(r[i_a12]) == 0.0
    # drift scales linearly in the radial coordinate
    i_y1 = header.index("y1")
    slopes = {float(r[i_b1]) / float(r[i_y1]) for r in at_t1 if float(r[i_y1]) > 0.1}
    assert max(slopes) - min(slopes) < 1e-12

    _, bh, brows = read_rows(tmp_path / "transform_boundary.csv")
    i_K = bh.index("K")
    k1 = [float(r[i_K]) for r in brows if float(r[bh.index("t")]) == 1.0]
    h1 = np.exp(-1.0) + 1.0
    assert k1 and all(abs(v - 1.0 / h1) < 1e-12 for v in k1)


def test_transform_refuses_failing_config(tmp_path):
    assert run_cli(["transform", "--config", fixture_path("rotation"),
                    "--out", tmp_path]) == 1
    assert not (tmp_path / "transform_symbolic.csv").exists()


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_metrics_and_snapshots(tmp_path):
    assert run_cli(["solve", "--config", fixture_path("identity"),
                    "--out", tmp_path]) == 0
    _, header, rows = read_rows(tmp_path / "metrics.csv")
    assert header == ["step", "t", "L2", "H1", "mass",
                      "boundary_residual", "cg_iters"]
    assert len(rows) == 101  # 100 steps plus the initial row
    assert float(rows[0][1]) == 0.0
    assert float(rows[-1][1]) == 1.0
    # cos(pi y) is a homogeneous eigenmode: L2 norm decays like
    # exp(-(pi^2 + beta) t)
    rate = np.log(float(rows[0][2]) / float(rows[-1][2]))
    assert rate == pytest.approx(np.pi**2 + 1.0, rel=1e-3)

    snaps = sorted(tmp_path.glob("fixed_*.snap"))
    movings = sorted(tmp_path.glob("moving_*.csv"))
    assert len(snaps) == len(movings) == 6  # every 20 of 100 steps, plus final


def test_solve_moving_frame_uses_forward_map(tmp_path):
    assert run_cli(["solve", "--config", fixture_path("ball_shrink"),
                    "--out", tmp_path]) == 0
    _, header, rows = read_rows(sorted(tmp_path.glob("moving_*.csv"))[-1])
    assert header == ["t", "x1", "x2", "x3", "u"]
    t = float(rows[0][0])
    assert t == 1.0
    # the physical radial coordinate is y / (exp(-t^2) + 1)
    h = np.exp(-1.0) + 1.0
    xs = np.array([float(r[1]) for r in rows])
    assert xs.max() < 1.0 / h + 1e-9
    assert np.all(np.array([float(r[2]) for r in rows]) == 0.0)


def test_solve_needs_initial_data(tmp_path):
    assert run_cli(["solve", "--config", fixture_path("sin_t"),
                    "--out", tmp_path]) == 2


def test_solver_blowup_exits_3(tmp_path):
    p = tmp_path / "blow.cfg"
    p.write_text('[problem]\ndim = 1\nextents = 1.0\n'
                 'forward = "y1"\ninverse = "x1"\nbeta = 1.0\n'
                 'f = "sin(u) * 1e12"\ninitial = "1 + y1"\n'
                 '[numerics]\ngrid = 16\ndt = 0.5\n'
                 '[experiment]\ntau = 0.0\nt = 2.0\n')
    assert run_cli(["solve", "--config", p, "--out", tmp_path]) == 3


# ---------------------------------------------------------------------------
# mms


def test_mms_orders_table(tmp_path):
    assert run_cli(["mms", "--config", fixture_path("identity"),
                    "--out", tmp_path]) == 0
    _, _, rows = read_rows(tmp_path / "orders.csv")
    spatial = [float(r[2]) for r in rows if r[0] == "spatial_order"]
    temporal = [float(r[2]) for r in rows if r[0] == "temporal_order"]
    assert spatial and all(abs(o - 2.0) < 0.3 for o in spatial)
    assert temporal and all(abs(o - 2.0) < 0.3 for o in temporal)


def test_mms_needs_exact_solution(tmp_path):
    assert run_cli(["mms", "--config", fixture_path("sin_u"),
                    "--out", tmp_path]) == 2


# ---------------------------------------------------------------------------
# pullback


@pytest.fixture(scope="module")
def identity_pullback(tmp_path_factory):
    out = tmp_path_factory.mktemp("pb")
    code = run_cli(["pullback", "--config", fixture_path("identity"),
                    "--out", out])
    return code, out


def test_pullback_report_sections(identity_pullback):
    code, out = identity_pullback
    assert code == 0
    _, header, rows = read_rows(out / "pullback_report.csv")
    assert header == ["section", "name", "value", "detail"]
    sections = {r[0] for r in rows}
    assert sections == {"decay", "drift", "gaps", "radius", "cocycle",
                        "factorization"}
    by = {(r[0], r[1]): float(r[2]) for r in rows}
    assert by[("decay", "b")] >= 0.9
    assert by[("cocycle", "residual")] == 0.0
    # static geometry: no drift, and the homogeneous factorization is exact
    assert by[("drift", "gap=1.0")] == 0.0
    assert by[("factorization", "H1")] == 0.0
    assert by[("gaps", "cauchy")] == 1.0
    assert by[("gaps", "truncated")] == 0.0
    gaps = [float(r[2]) for r in rows if r[0] == "gaps" and r[1].startswith("k=")]
    assert len(gaps) == 5
    assert all(b < a for a, b in zip(gaps[1:4], gaps[2:5]))


def test_pullback_plot_files(identity_pullback):
    _, out = identity_pullback
    _, _, grows = read_rows(out / "gaps_plot.csv")
    assert [int(r[0]) for r in grows] == [0, 1, 2, 3, 4]
    _, _, drows = read_rows(out / "drift_plot.csv")
    assert [float(r[0]) for r in drows] == [1.0, 2.0, 4.0, 8.0]


def test_pullback_is_deterministic(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        '[problem]\ndim = 1\nextents = 1.0\n'
        'forward = "y1"\ninverse = "x1"\nbeta = 1.0\n'
        'f = "sin(t)"\n'
        '[numerics]\ngrid = 32\nscheme = crank-nicolson\ndt = 0.02\n'
        'cg_tol = 1e-12\n'
        '[experiment]\nt_star = 0.0\nk_max = 4\nhorizon = 10.0\nseeds = 2\n'
        'radii = 1.0, 10.0\nradius_k = 3\n')
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["pullback", "--config", cfg, "--out", a]) == 0
    assert run_cli(["pullback", "--config", cfg, "--out", b]) == 0
    for fn in ("pullback_report.csv", "gaps_plot.csv", "drift_plot.csv"):
        assert (a / fn).read_bytes() == (b / fn).read_bytes()


def test_pullback_jobs_deterministic(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        '[problem]\ndim = 1\nextents = 1.0\n'
        'forward = "y1"\ninverse = "x1"\nbeta = 1.0\n'
        '[numerics]\ngrid = 32\nscheme = crank-nicolson\ndt = 0.02\n'
        'cg_tol = 1e-12\n'
        '[experiment]\nt_star = 0.0\nk_max = 4\nhorizon = 10.0\nseeds = 2\n'
        'radii = 1.0, 10.0\nradius_k = 3\n')
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["pullback", "--config", cfg, "--out", a]) == 0
    assert run_cli(["pullback", "--config", cfg, "--out", b]) == 0
    assert ((a / "pullback_report.csv").read_bytes()
            == (b / "pullback_report.csv").read_bytes())


def test_jobs_flag_is_a_usage_error(tmp_path, capsys):
    # the option was removed: argparse rejects it before any work is done
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["check", "--config", fixture_path("identity"), "--out", tmp_path,
                 "--jobs", 2])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "hypothesis_report.csv").exists()


def test_pullback_seed_changes_draws(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        '[problem]\ndim = 1\nextents = 1.0\n'
        'forward = "y1"\ninverse = "x1"\nbeta = 1.0\n'
        '[numerics]\ngrid = 32\ndt = 0.02\n'
        '[experiment]\nt_star = 0.0\nk_max = 4\nhorizon = 10.0\nseeds = 2\n'
        'radii = 1.0, 10.0\nradius_k = 3\n')
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["pullback", "--config", cfg, "--out", a, "--seed", 0]) == 0
    assert run_cli(["pullback", "--config", cfg, "--out", b, "--seed", 1]) == 0
    ra = read_rows(a / "pullback_report.csv")[2]
    rb = read_rows(b / "pullback_report.csv")[2]
    ka = [r for r in ra if r[1] == "K"][0][2]
    kb = [r for r in rb if r[1] == "K"][0][2]
    assert ka != kb


def test_pullback_step_cap_exits_4(tmp_path, capsys):
    cfg = tmp_path / "capped.cfg"
    cfg.write_text(
        '[problem]\ndim = 1\nextents = 1.0\n'
        'forward = "y1"\ninverse = "x1"\nbeta = 1.0\n'
        '[numerics]\ngrid = 16\ndt = 0.01\n'
        '[experiment]\nt_star = 0.0\nk_max = 6\nhorizon = 10.0\nseeds = 1\n'
        'radii = 1.0\nradius_k = 1\nmax_total_steps = 1000\n')
    # the ladder plans 12,700 steps and is cut to k <= 2 (700); the decay
    # fit (1,000) and the absorbing radius (200) fit under the cap
    code = run_cli(["pullback", "--config", cfg, "--out", tmp_path])
    assert code == 4
    # the shortened report is still written before the resource exit
    _, _, rows = read_rows(tmp_path / "pullback_report.csv")
    by = {(r[0], r[1]): r[2] for r in rows}
    assert float(by[("gaps", "truncated")]) == 1.0


def test_pullback_ladder_beyond_float_range_is_truncated(tmp_path):
    # 2.0 ** k overflows for k >= 1024: the ladder is cut to the cap like any other
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(
        '[problem]\ndim = 1\nextents = 1.0\n'
        'forward = "y1"\ninverse = "x1"\nbeta = 1.0\n'
        '[numerics]\ngrid = 16\ndt = 0.01\n'
        '[experiment]\nt_star = 0.0\nk_max = 1100\nhorizon = 10.0\nseeds = 1\n'
        'radii = 1.0\nradius_k = 1\nmax_total_steps = 1000\n')
    assert run_cli(["pullback", "--config", cfg, "--out", tmp_path]) == 4
    _, _, rows = read_rows(tmp_path / "pullback_report.csv")
    by = {(r[0], r[1]): r[2] for r in rows}
    assert float(by[("gaps", "truncated")]) == 1.0
    assert ("gaps", "k=1") in by and ("gaps", "k=2") not in by   # rungs k <= 2


@pytest.mark.parametrize("key, value, phase", [
    ("radius_k", "40", "absorbing radius"),
    ("radius_k", "1100", "absorbing radius"),
    ("horizon", "1e12", "decay fit"),
])
def test_pullback_overlong_run_exits_4_before_marching(tmp_path, key, value, phase):
    # each of these marches runs for hours (2.0 ** 1100 overflows a float);
    # the cap must stop it up front
    text = fixture_path("sin_t").read_text()
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in text.splitlines()]
    cfg = tmp_path / "long.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    # MOVINGDOM_LOG=error hides sin_t's H4 advisory, which `check` also prints
    env = dict(os.environ, PYTHONPATH=str(Path(movingdom.__file__).parents[1]),
               MOVINGDOM_LOG="error")
    r = subprocess.run([sys.executable, "-m", "movingdom", "pullback", "--config", str(cfg),
                        "--out", str(tmp_path / "out")],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 4, r.stderr
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"movingdom: the {phase} plans "), lines
    assert "above max_total_steps = 5000000" in lines[0]
    assert not (tmp_path / "out" / "pullback_report.csv").exists()


@pytest.mark.parametrize("command, extra, code, message", [
    ("solve", "[numerics]\ndt = -1\n", 2, "config error: bad [numerics] value: dt must"),
    ("mms", "", 2, "config error: mms needs `exact`"),
    ("pullback", "[experiment]\nmax_total_steps = 1\n", 4,
     "the decay fit plans 5000 steps, above max_total_steps = 1"),
], ids=["solve_bad_dt", "mms_without_exact", "pullback_over_cap"])
def test_config_errors_come_before_failing_hypotheses(tmp_path, capsys, command, extra, code,
                                                      message):
    # rotation fails H1 (exit 1 from every command); a config that also has a
    # bad or missing value reports that value instead, before any check runs
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(fixture_path("rotation"))
    cp.read_string(extra)
    cfg = tmp_path / "rotation.cfg"
    with open(cfg, "w") as fh:
        cp.write(fh)
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "out"]) == code
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and message in lines[0], lines


def test_non_finite_pullback_entry_exits_4_without_a_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "drift_norm", lambda p, g, times: float("nan"))
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        '[problem]\ndim = 1\nextents = 1.0\n'
        'forward = "y1"\ninverse = "x1"\nbeta = 1.0\n'
        '[numerics]\ngrid = 16\ndt = 0.05\n'
        '[experiment]\nt_star = 0.0\nk_max = 2\nhorizon = 10.0\nseeds = 1\n'
        'radii = 1.0\nradius_k = 1\n')
    assert run_cli(["pullback", "--config", cfg, "--out", tmp_path]) == 4
    assert capsys.readouterr().err.strip().splitlines()[-1] == \
        "movingdom: non-finite entry in pullback report"
    assert not (tmp_path / "pullback_report.csv").exists()


def test_pullback_short_horizon_is_config_error(tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(
        '[problem]\ndim = 1\nextents = 1.0\n'
        'forward = "y1"\ninverse = "x1"\nbeta = 1.0\n'
        '[numerics]\ngrid = 16\ndt = 0.01\n'
        '[experiment]\nt_star = 0.0\nk_max = 3\nhorizon = 2.0\nseeds = 1\n')
    assert run_cli(["pullback", "--config", cfg, "--out", tmp_path]) == 2


# ---------------------------------------------------------------------------
# environment plumbing


def test_every_export_resolves():
    for name in movingdom.__all__:
        getattr(movingdom, name)
    # the wrapper types and their helpers were deleted; none may come back
    for module, gone in ((movingdom.grid, "GridField"), (movingdom.grid, "as_field"),
                         (movingdom.grid, "boundary_residual"),
                         (movingdom.pullback, "PullbackReport")):
        assert gone not in movingdom.__all__ and not hasattr(movingdom, gone), gone
        assert not hasattr(module, gone), gone


def test_log_level_env_is_validated(tmp_path, monkeypatch):
    monkeypatch.setenv("MOVINGDOM_LOG", "loud")
    assert run_cli(["check", "--config", fixture_path("identity"),
                    "--out", tmp_path]) == 2


def test_console_entry_point_runs():
    r = subprocess.run([sys.executable, "-m", "movingdom", "check",
                        "--config", str(fixture_path("identity")),
                        "--out", "/tmp/movingdom-entry-test"],
                       capture_output=True, text=True)
    assert r.returncode == 0
