"""The benchmark tracer (perfbench/tracer.py) still finds what it traces.

The tracer wraps movingdom functions by module and attribute name and
reports a name it cannot resolve as absent instead of failing, so a
refactor that renames or drops a traced function (`solver.assemble_A`,
`solver._advance`, ...) would only show as a missing per-layer metric in a
traced benchmark run.  The first test makes that a test failure; the others
run one command under the tracer and check what it counts per step and that
the outputs stay byte for byte as they were.
"""

import configparser
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

from movingdom.cli import fixture_path, main  # noqa: E402

# targets the program no longer has: the norms and diagnostics the stepper
# replaced with one metrics kernel, and the CG matrix the stencils replaced
KNOWN_ABSENT = {"grid.norm_H1", "grid.mass", "grid.boundary_residual", "solver.spd_build"}


def test_tracer_resolves_every_traced_function():
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert set(t.absent) <= KNOWN_ABSENT, sorted(set(t.absent) - KNOWN_ABSENT)


def test_traced_solve_sees_evaluations_and_keeps_outputs(tmp_path):
    # the tracer wraps every evaluator `expr.compiled` returns; a run under it
    # must still see them per step (sin(u) is evaluated over the grid) and must
    # write the files an untraced run does.  The drift comes from its basis,
    # built before the march, so the march evaluates no b.
    cfg = str(fixture_path("sin_u"))
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert main(["solve", "--config", cfg, "--out", str(plain)]) == 0
    code, metrics, _, absent, _ = tracer.traced_main(
        ["solve", "--config", cfg, "--out", str(traced)])
    assert code == 0
    assert metrics["expr.eval_calls_per_step"] > 0
    assert metrics["diffeo.eval_b_calls_per_step"] == 0
    assert set(absent) <= KNOWN_ABSENT, sorted(set(absent) - KNOWN_ABSENT)
    names = sorted(f.name for f in plain.iterdir())
    assert names == sorted(f.name for f in traced.iterdir()) and names
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name


def test_traced_pullback_evaluates_per_chunk_not_per_step(tmp_path):
    # sin_t cut as the benchmark's pullback_ball workload cuts it: 13 runs,
    # 1,140 steps.  h2, the drift coefficients and f = sin(t) are evaluated
    # over each run's chunks of step times, every evaluation through an
    # evaluator the tracer wraps, so the march makes a few calls per run
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(fixture_path("sin_t"))
    cp["numerics"]["dt"] = "0.05"
    cp["experiment"].update({"k_max": "4", "seeds": "1", "radii": "1.0, 100.0",
                             "radius_k": "2", "drift_gaps": "1.0, 4.0"})
    cfg = tmp_path / "short.cfg"
    with open(cfg, "w") as fh:
        cp.write(fh)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert main(["pullback", "--config", str(cfg), "--out", str(plain)]) == 0
    code, metrics, _, absent, _ = tracer.traced_main(
        ["pullback", "--config", str(cfg), "--out", str(traced)])
    assert code == 0
    assert metrics["solver.state_steps"] == 1140
    assert metrics["expr.eval_calls_per_step"] <= 0.05
    assert set(absent) <= KNOWN_ABSENT, sorted(set(absent) - KNOWN_ABSENT)
    names = sorted(f.name for f in plain.iterdir())
    assert names == sorted(f.name for f in traced.iterdir()) and names
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
