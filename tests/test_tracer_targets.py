"""The benchmark tracer (perfbench/tracer.py) still finds what it traces.

The tracer wraps movingdom functions by module and attribute name and
reports a name it cannot resolve as absent instead of failing, so a
refactor that renames or drops a traced function (`solver.assemble_A`,
`solver._advance`, ...) would only show as a missing per-layer metric in a
traced benchmark run.  This test makes that a test failure.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

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
