"""Tests of the benchmark itself: metric names, output gates, work formulas
and the tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import io
import json
import re
from pathlib import Path

import pytest

import tracer
from run import E2E_UNITS, differing_files
from workloads import DEFAULT_SEED, WORKLOADS, parse_config

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _config(name, seed=DEFAULT_SEED, **overrides):
    """The workload's config text with {section: {key: value}} overrides."""
    cp = parse_config(WORKLOADS[name].config(ROOT, seed))
    for section, values in overrides.items():
        cp[section].update(values)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _edit_cell(path, row_key, column, fn):
    """Apply fn to one cell of a table, picking the row by its first cells."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    for i, line in enumerate(lines[2:], start=2):
        cells = line.split(",")
        if tuple(cells[:len(row_key)]) == row_key:
            col = header.index(column)
            cells[col] = fn(cells[col])
            lines[i] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
            return
    raise KeyError(row_key)


def _reference_outputs(name, out):
    ref = json.loads(WORKLOADS[name].reference_path().read_text())
    for f, text in ref["tables"].items():
        (out / f).write_text(text)
    return ref


# ---------------------------------------------------------------------------
# names


def test_metric_and_workload_names_are_well_formed_and_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_exactly_what_the_runner_reports():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == E2E_UNITS
    per_layer = {k: unit for k, (unit, _) in tracer.METRICS.items()}
    per_layer["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == per_layer
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


# ---------------------------------------------------------------------------
# gates


def test_pullback_gate_rejects_perturbed_outputs(tmp_path):
    cp = parse_config(_config("pullback_ball"))
    wl = WORKLOADS["pullback_ball"]
    ref = _reference_outputs("pullback_ball", tmp_path)
    assert wl.problems(tmp_path, cp, DEFAULT_SEED, ref) == []

    report = tmp_path / "pullback_report.csv"
    _edit_cell(report, ("gaps", "k=1"), "value", lambda v: repr(float(v) * 1.01))
    # gap rows do not depend on the seed, so they are pinned at every seed
    assert any("reference" in p for p in wl.problems(tmp_path, cp, 7, ref))

    _reference_outputs("pullback_ball", tmp_path)
    _edit_cell(report, ("cocycle", "residual"), "value", lambda v: "1e-17")
    assert any("cocycle" in p for p in wl.problems(tmp_path, cp, DEFAULT_SEED, ref))

    _reference_outputs("pullback_ball", tmp_path)
    _edit_cell(report, ("gaps", "cauchy"), "value", lambda v: "0.0")
    assert any("Cauchy" in p for p in wl.problems(tmp_path, cp, DEFAULT_SEED, ref))


def test_pullback_gate_pins_seeded_rows_only_at_the_default_seed(tmp_path):
    cp = parse_config(_config("pullback_ball"))
    wl = WORKLOADS["pullback_ball"]
    ref = _reference_outputs("pullback_ball", tmp_path)
    _edit_cell(tmp_path / "pullback_report.csv", ("decay", "K"), "value",
               lambda v: repr(float(v) * 1.01))
    assert wl.problems(tmp_path, cp, DEFAULT_SEED, ref)
    assert wl.problems(tmp_path, cp, DEFAULT_SEED + 1, ref) == []


def test_solve_gate_checks_rows_finiteness_and_snapshots(tmp_path):
    cp = parse_config(_config("solve_box3d", seed=5))
    wl = WORKLOADS["solve_box3d"]
    ref = _reference_outputs("solve_box3d", tmp_path)
    for i in range(wl.snapshot_count(cp)):
        (tmp_path / f"fixed_{i:03d}.snap").write_text("")
        (tmp_path / f"moving_{i:03d}.csv").write_text("")
    # seeded outputs are pinned to the reference only at the default seed
    assert wl.problems(tmp_path, cp, 5, ref) == []

    metrics = tmp_path / "metrics.csv"
    _edit_cell(metrics, ("1",), "H1", lambda v: "nan")
    assert any("non-finite" in p for p in wl.problems(tmp_path, cp, 5, ref))

    _reference_outputs("solve_box3d", tmp_path)
    metrics.write_text("\n".join(metrics.read_text().splitlines()[:-1]) + "\n")
    assert any("rows" in p for p in wl.problems(tmp_path, cp, 5, ref))

    _reference_outputs("solve_box3d", tmp_path)
    (tmp_path / "fixed_001.snap").unlink()
    assert any("fixed_001.snap" in p for p in wl.problems(tmp_path, cp, 5, ref))


def test_solve_gate_pins_snapshot_summaries_at_the_default_seed(tmp_path):
    cp = parse_config(_config("solve_box3d"))
    wl = WORKLOADS["solve_box3d"]
    ref = _reference_outputs("solve_box3d", tmp_path)
    head = "movingdom-snapshot 1\nkind box\ndim 3\ncounts 1 1 2\nextents 1.0 1.0 1.0\ntime 0.0\n"
    for i in range(wl.snapshot_count(cp)):
        (tmp_path / f"fixed_{i:03d}.snap").write_text(head + "0.5\n0.75\n")
        (tmp_path / f"moving_{i:03d}.csv").write_text("")
    ref["summaries"] = wl.summaries(tmp_path, cp)
    assert wl.problems(tmp_path, cp, DEFAULT_SEED, ref) == []
    (tmp_path / "fixed_001.snap").write_text(head + "0.5\n0.76\n")
    assert any("fixed_001.snap" in p for p in wl.problems(tmp_path, cp, DEFAULT_SEED, ref))


def test_determinism_check_sees_a_changed_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "t.csv").write_text("schema,t,1\nx\n1.0\n")
    assert differing_files(a, b) == []
    (b / "t.csv").write_text("schema,t,1\nx\n1.5\n")
    assert differing_files(a, b) == ["t.csv"]


# ---------------------------------------------------------------------------
# work formulas and the tracer


def test_pullback_formula_counts_the_documented_config():
    # dt=0.01, k_max=4, seeds=2, radii=1,100, radius_k=3 takes 9,100 steps
    cp = parse_config(_config("pullback_ball", numerics={"dt": "0.01"}, experiment={
        "k_max": "4", "seeds": "2", "radii": "1.0, 100.0", "radius_k": "3"}))
    assert WORKLOADS["pullback_ball"].cell_steps(cp) == 64 * 9100


SMALL = {
    "pullback_ball": {"numerics": {"grid": "16", "dt": "0.05"},
                      "experiment": {"k_max": "2", "radius_k": "1"}},
    "solve_box3d": {"numerics": {"grid": "6, 6, 6", "snapshot_every": "2"},
                    "experiment": {"t": "0.03"}},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_formula_matches_traced_steps_and_tracing_keeps_outputs(name, tmp_path):
    pytest.importorskip("movingdom")
    import movingdom.solver

    wl = WORKLOADS[name]
    text = _config(name, **SMALL[name])
    cfg = tmp_path / "w.cfg"
    cfg.write_text(text)
    original_run = movingdom.solver.run
    code, metrics, gone, absent, _ = tracer.traced_main(
        wl.argv(cfg, tmp_path / "out", DEFAULT_SEED), tmp_path / "spans.json")
    assert code == 0
    assert gone == [] and absent == []
    assert movingdom.solver.run is original_run       # wrappers removed
    assert metrics["solver.cell_steps"] == wl.cell_steps(parse_config(text))
    assert metrics["solver.solves_per_step"] > 0
    from movingdom.cli import main
    assert main(wl.argv(cfg, tmp_path / "plain", DEFAULT_SEED)) == 0
    assert differing_files(tmp_path / "plain", tmp_path / "out") == []
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len(spans["spans"]) > metrics["solver.state_steps"]


def test_tracer_reports_a_missing_target_as_absent():
    t = tracer.Tracer().install(
        functions=(("solver.explicit_rhs", "solver", "renamed_rhs"),),
        properties=(), factories=())
    t.uninstall()
    assert t.absent == ["solver.explicit_rhs"]
    values, gone = tracer.layer_metrics([], t.absent)
    assert "solver.rhs_us_per_step" in gone
    assert values["solver.rhs_us_per_step"] == 0.0
