"""The benchmark's workloads: configs made from a seed, the work each command
does, and the gates its outputs must pass.

Each workload is one `movingdom` CLI command on one config.  The work count
(cell-steps: the grid's cell count summed over every time step the command
takes, homogeneous runs included) is computed here from the config with the
benchmark's own formula, so a change that restructures the march gets
credit for the same work.

Numeric outputs are compared with a stored reference at a tolerance tied to
the config's `cg_tol` instead of byte equality, because a different linear
solver may legitimately move results at rounding level.  The `cg_iters`
column is left out: its meaning belongs to the solver.
"""

from __future__ import annotations

import configparser
import io
import math
import random
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

# |value - reference| may reach REF_RTOL_PER_CG_TOL * cg_tol times the
# largest magnitude in the same column: differences of nearly equal states
# (small pullback gaps, boundary fluxes) carry the state's rounding, not
# their own.
REF_RTOL_PER_CG_TOL = 1e5


class GateError(Exception):
    """An output file is missing or malformed."""


# ---------------------------------------------------------------------------
# shared helpers


def steps(tau, T, dt):
    """Steps `movingdom.solver.run` takes from tau to T; the last may be short."""
    return max(0, math.ceil((float(T) - float(tau)) / float(dt) - 1e-9))


def _floats(raw):
    return [float(x) for x in raw.split(",")]


def _num(cell):
    """Float of a numeric cell, None for text and empty cells."""
    try:
        return float(cell)
    except ValueError:
        return None


def parse_table(text, name):
    """(header, rows) of a schema-tagged CSV table's text."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("schema,"):
        raise GateError(f"{name} is not a schema-tagged table")
    return lines[1].split(","), [ln.split(",") for ln in lines[2:]]


def read_table(path):
    path = Path(path)
    try:
        return parse_table(path.read_text(), path.name)
    except OSError as e:
        raise GateError(f"cannot read {path.name}: {e.strerror}") from None


def parse_config(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    return cp


def _render(cp):
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _fixture(root, name):
    path = Path(root) / "src" / "movingdom" / "fixtures" / f"{name}.cfg"
    return parse_config(path.read_text())


def snapshot_summary(path):
    """[count, sum, sum of squares, min, max] of a snapshot file's values."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        raise GateError(f"cannot read {path.name}: {e.strerror}") from None
    if not lines or lines[0] != "movingdom-snapshot 1":
        raise GateError(f"{path.name} is not a snapshot file")
    vals = [float(s) for s in lines[6:] if s]
    if not vals or not all(math.isfinite(v) for v in vals):
        return [float(len(vals)), math.nan, math.nan, math.nan, math.nan]
    return [float(len(vals)), math.fsum(vals), math.fsum(v * v for v in vals),
            min(vals), max(vals)]


def nonfinite_cells(path):
    header, rows = read_table(path)
    return [f"{Path(path).name}: non-finite value at row {i} {col}"
            for i, r in enumerate(rows) for col, cell in zip(header, r)
            if (v := _num(cell)) is not None and not math.isfinite(v)]


def compare_rows(name, header, rows, ref_header, ref_rows, rtol, skip_columns=()):
    """Problems comparing rows with reference rows.

    Text cells must match exactly; numeric cells within rtol times the
    largest reference magnitude of their column among the compared rows.
    """
    if header != ref_header or len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows of {header} where the reference has "
                f"{len(ref_rows)} rows of {ref_header}"]
    tol = [rtol * max((abs(v) for r in ref_rows
                       if (v := _num(r[j])) is not None and math.isfinite(v)),
                      default=1.0)
           for j in range(len(header))]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for j, (col, cell, want) in enumerate(zip(header, row, ref)):
            if col in skip_columns:
                continue
            a, b = _num(cell), _num(want)
            if a is None or b is None:
                if cell != want:
                    problems.append(f"{name} row {i} {col}: {cell!r} != {want!r}")
            elif not abs(a - b) <= tol[j]:
                problems.append(f"{name} row {i} {col}: {a!r} vs reference "
                                f"{b!r} (tolerance {tol[j]:.3g})")
    return problems


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One CLI command on one generated config."""
    name = ""
    command = ""
    why = ""
    passes_seed = False      # the command gets --seed
    reference_files = ()     # tables stored whole with the reference
    skip_columns = ("cg_iters",)

    def config(self, root, seed) -> str:
        raise NotImplementedError

    def argv(self, cfg, out, seed):
        """Arguments of `movingdom` that run this workload's command."""
        argv = [self.command, "--config", str(cfg), "--out", str(out)]
        return argv + (["--seed", str(seed)] if self.passes_seed else [])

    def cell_steps(self, cp) -> int:
        raise NotImplementedError

    def structural_problems(self, out, cp) -> list:
        """Checks that hold at every seed, with no reference."""
        raise NotImplementedError

    def seeded_row(self, row) -> bool:
        """Whether a reference-table row depends on the workload seed."""
        return True

    def summaries(self, out, cp) -> dict:
        """Derived values of large outputs, pinned at the default seed."""
        return {}

    def reference_path(self):
        return REFERENCE_DIR / f"{self.name}.json"

    def make_reference(self, out, cp):
        out = Path(out)
        return {"cg_tol": float(cp["numerics"]["cg_tol"]),
                "tables": {f: (out / f).read_text() for f in self.reference_files},
                "summaries": self.summaries(out, cp)}

    def problems(self, out, cp, seed, reference=None):
        """Every reason the outputs in `out` fail the gate; [] when they pass.

        Reference rows that depend on the seed are compared only at
        DEFAULT_SEED; the rest at every seed.
        """
        out = Path(out)
        try:
            found = self.structural_problems(out, cp)
            if reference is None:
                return found
            rtol = REF_RTOL_PER_CG_TOL * reference["cg_tol"]
            keep = (lambda r: True) if seed == DEFAULT_SEED \
                else (lambda r: not self.seeded_row(r))
            for f, text in reference["tables"].items():
                ref_header, ref_rows = parse_table(text, f)
                header, rows = read_table(out / f)
                found += compare_rows(f, header, [r for r in rows if keep(r)],
                                      ref_header, [r for r in ref_rows if keep(r)],
                                      rtol, self.skip_columns)
            if seed == DEFAULT_SEED and reference["summaries"]:
                got = self.summaries(out, cp)
                for key, want in reference["summaries"].items():
                    if len(got[key]) != len(want) or not all(
                            abs(x - w) <= rtol * max(abs(w), 1.0)
                            for x, w in zip(got[key], want)):
                        found.append(f"{key}: summary {got[key]} vs reference "
                                     f"{want} (relative tolerance {rtol:.3g})")
            return found
        except GateError as e:
            return [str(e)]


class PullbackBall(Workload):
    name = "pullback_ball"
    command = "pullback"
    why = ("many short radial trajectories share one problem and 64-cell grid, "
           "so the fixed per-step cost (assembly, small CG, eval_b, metrics) dominates")
    passes_seed = True
    reference_files = ("pullback_report.csv", "gaps_plot.csv", "drift_plot.csv")
    # The [problem] section of sin_t is kept; dt and the experiment sizes are
    # cut so that one command fits several times into a run.
    overrides = {
        "numerics": {"dt": "0.05"},
        "experiment": {"k_max": "4", "seeds": "1", "radii": "1.0, 100.0",
                       "radius_k": "2", "drift_gaps": "1.0, 4.0"},
    }

    def config(self, root, seed):
        cp = _fixture(root, "sin_t")
        for section, values in self.overrides.items():
            cp[section].update(values)
        return _render(cp)

    def cell_steps(self, cp):
        num, exp = cp["numerics"], cp["experiment"]
        dt = float(num["dt"])
        t_star = float(exp.get("t_star", "0.0"))
        seeds = int(exp.get("seeds", "5"))
        radii = len(_floats(exp.get("radii", "1.0, 10.0, 100.0")))
        decay = seeds * steps(t_star, t_star + float(exp.get("horizon", "10.0")), dt)
        ladder = sum(steps(t_star - 2.0 ** k, t_star, dt)
                     for k in range(int(exp.get("k_max", "6")) + 1))
        radius = seeds * radii * steps(
            t_star - 2.0 ** int(exp.get("radius_k", "4")), t_star, dt)
        # cocycle: two one-unit legs and the two-unit whole; factorization:
        # forced and homogeneous runs over two units
        cocycle = 2 * steps(t_star - 1.0, t_star, dt) + steps(t_star - 2.0, t_star, dt)
        factorization = 2 * steps(t_star - 2.0, t_star, dt)
        return int(num["grid"]) * (decay + ladder + radius + cocycle + factorization)

    def structural_problems(self, out, cp):
        found = []
        for f in self.reference_files:
            found += nonfinite_cells(out / f)
        _, rows = read_table(out / "pullback_report.csv")
        value = {(r[0], r[1]): _num(r[2]) for r in rows if len(r) >= 3}
        coc = value.get(("cocycle", "residual"))
        if coc != 0.0:
            found.append(f"cocycle residual is {coc!r}, not exactly 0.0")
        if value.get(("gaps", "cauchy")) != 1.0:
            found.append("pullback gaps are not Cauchy (gaps,cauchy != 1)")
        if value.get(("gaps", "truncated")) != 0.0:
            found.append("pullback ladder was truncated (gaps,truncated != 0)")
        return found

    def seeded_row(self, row):
        # the ladder, drift, cocycle and factorization start from u0 = 0; the
        # decay fit and absorbing radius start from the seeded random states
        return row[0] in ("decay", "radius")


class SolveBox3d(Workload):
    name = "solve_box3d"
    command = "solve"
    why = ("a 32^3 box whose stretch has non-constant P~, with f = sin(u): the "
           "sparse CG kernel, vectorised eval_b and snapshot writing dominate")
    reference_files = ("metrics.csv",)
    counts = (32, 32, 32)
    dt = 0.01
    T = 0.16
    snapshot_every = 8
    forward = '"(y{i} + 0.25 * y{i}^2) / (exp(0 - t^2) + 1)"'
    inverse = '"2 * (sqrt(1 + x{i} * (exp(0 - t^2) + 1)) - 1)"'

    def initial(self, seed):
        rng = random.Random(seed)
        c = [rng.uniform(0.5, 1.0) for _ in range(3)]
        pi = repr(math.pi)
        return (f"{c[0]!r} + {c[1]!r} * cos({pi} * y1) * cos({pi} * y2) "
                f"+ {c[2]!r} * cos(2 * {pi} * y3)")

    def config(self, root, seed):
        axes = range(1, 4)
        return "\n".join([
            "[problem]",
            "dim = 3",
            "domain = box",
            "extents = 1.0, 1.0, 1.0",
            "forward = " + ", ".join(self.forward.format(i=i) for i in axes),
            "inverse = " + ", ".join(self.inverse.format(i=i) for i in axes),
            "beta = 1.0",
            'f = "sin(u)"',
            f'initial = "{self.initial(seed)}"',
            "",
            "[numerics]",
            "grid = " + ", ".join(map(str, self.counts)),
            "scheme = crank-nicolson",
            f"dt = {self.dt!r}",
            "cg_tol = 1e-10",
            f"snapshot_every = {self.snapshot_every}",
            "",
            "[experiment]",
            "tau = 0.0",
            f"t = {self.T!r}",
            "",
        ])

    def _steps(self, cp):
        exp = cp["experiment"]
        return steps(float(exp["tau"]), float(exp["t"]), float(cp["numerics"]["dt"]))

    def snapshot_count(self, cp):
        n = self._steps(cp)
        every = int(cp["numerics"]["snapshot_every"])
        return 1 + n // every + (1 if n % every else 0)

    def cell_steps(self, cp):
        cells = math.prod(int(c) for c in cp["numerics"]["grid"].split(","))
        return cells * self._steps(cp)

    def structural_problems(self, out, cp):
        found = nonfinite_cells(out / "metrics.csv")
        _, rows = read_table(out / "metrics.csv")
        want = self._steps(cp) + 1
        if len(rows) != want:
            found.append(f"metrics.csv has {len(rows)} rows, expected {want}")
        for i in range(self.snapshot_count(cp)):
            for f in (f"fixed_{i:03d}.snap", f"moving_{i:03d}.csv"):
                if not (out / f).is_file():
                    found.append(f"snapshot file {f} is missing")
        return found

    def summaries(self, out, cp):
        return {f"fixed_{i:03d}.snap": snapshot_summary(out / f"fixed_{i:03d}.snap")
                for i in range(self.snapshot_count(cp))}


WORKLOADS = {w.name: w for w in (PullbackBall(), SolveBox3d())}
