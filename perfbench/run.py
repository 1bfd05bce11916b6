"""Benchmark of the movingdom CLI, one workload per invocation.

    python3 perfbench/run.py --workload pullback_ball --seed 0 --seconds 60 --trace 0

Each repetition runs, in fresh processes, `movingdom check` (set-up: import,
config parsing, metric derivation and every hypothesis check) and then the
workload's command on the same config, until --seconds are used (at least
two repetitions).  Every command's outputs go through the workload's gate,
and every repetition must write byte-identical files to the first one.

--trace 0 prints the end-to-end metrics (medians over repetitions):
  wall_s            command wall time, process start to exit
  setup_s           wall time of `movingdom check` on the same config
  cell_steps_per_s  cell-steps of the command (computed from the config)
                    per second of wall_s - setup_s of the same repetition
  peak_rss_mib      peak RSS of the command process, from its own wait4
--trace 1 pairs an untraced command with a traced in-process run
(perfbench/tracer.py) and prints the per-layer metrics, medians over pairs,
plus trace.overhead_s, the traced minus the untraced wall time.

Children get the repository's src/ on PYTHONPATH and one BLAS/OpenMP
thread: OpenBLAS with two threads changes the last digits of some outputs,
so byte identity holds per thread count.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import METRICS as LAYER_METRICS
from workloads import WORKLOADS, parse_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 2     # the determinism check needs two
# every child is killed this long after the benchmark started
HARD_LIMIT_S = 170.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cell_steps_per_s": "1/s",
             "peak_rss_mib": "MiB"}
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass
class Child:
    code: int
    wall: float
    rss_mib: float


def child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("MOVINGDOM_LOG", None)
    return env


def spawn(argv, log_path, env, deadline):
    """Run argv to completion; wall time from start to exit and its own peak RSS."""
    t0 = time.perf_counter()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def environment(env):
    """Versions, cores, commit and thread settings the children run with."""
    probe = (
        "import json, platform, numpy, scipy\n"
        "try:\n"
        "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "    blas = f\"{blas.get('name')} {blas.get('version')}\"\n"
        "except Exception as e:\n"
        "    blas = f'unknown ({e!r})'\n"
        "print(json.dumps({'python': platform.python_version(),\n"
        "    'numpy': numpy.__version__, 'scipy': scipy.__version__, 'blas': blas}))\n")
    info = {"error": "version probe failed"}
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    if out.returncode == 0:
        info = json.loads(out.stdout)
    commit = "unavailable"
    try:
        # the ceiling keeps git from searching above the checkout
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             env={**env, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    except OSError:
        pass
    info.update(
        commit=commit,
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        threads={k: env[k] for k in PINNED_ENV})
    return info


def differing_files(a, b):
    """Relative paths whose bytes differ between two output trees."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = sorted(str(n) for n in names_a ^ names_b)
    diff += sorted(str(n) for n in names_a & names_b
                   if not filecmp.cmp(a / n, b / n, shallow=False))
    return diff


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, args):
        self.wl = WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.work = OUT_DIR / f"{self.wl.name}-seed{self.seed}-trace{args.trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cfg = self.work / "workload.cfg"
        text = self.wl.config(ROOT, self.seed)
        self.cfg.write_text(text)
        self.cp = parse_config(text)
        self.cells = self.wl.cell_steps(self.cp)
        ref = self.wl.reference_path()
        self.reference = json.loads(ref.read_text()) if ref.is_file() else None
        self.env = child_env()
        self.t0 = time.perf_counter()
        self.hard_deadline = self.t0 + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def movingdom(self, argv, log):
        return spawn([sys.executable, "-m", "movingdom"] + argv,
                     log, self.env, self.hard_deadline)

    def gate(self, label, child, out, first=None, found=()):
        """Count one command run and record why it fails, if it does.

        `found` holds problems already known for the run; `first` is an
        earlier output tree that this one must equal byte for byte.
        """
        self.attempted += 1
        found = list(found)
        if child.code != 0:
            found.append(f"exit code {child.code}")
        else:
            found += self.wl.problems(out, self.cp, self.seed, self.reference)
            if first is not None and first != out:
                found += [f"{f} differs from {first.parent.name}"
                          for f in differing_files(first, out)]
        self.problems += [f"{label}: {p}" for p in found]
        self.failed += bool(found)

    def more(self, rep_times, min_reps):
        """Whether another repetition fits into --seconds (and the hard limit)."""
        now = time.perf_counter()
        est = max(rep_times)
        if now + est > self.hard_deadline - 5.0:
            return False
        return len(rep_times) < min_reps or now - self.t0 + est <= self.seconds

    def warm_up(self):
        # byte-compile the package once, as an install would, so no
        # repetition pays for it
        spawn([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "movingdom")],
              self.work / "compileall.log", self.env, self.hard_deadline)
        self.t0 = time.perf_counter()

    def end_to_end(self):
        rows = []      # (check wall, command wall, command rss, command exited 0)
        rep_times = []
        first = None
        while True:
            rep = self.work / f"rep{len(rows)}"
            t = time.perf_counter()
            check = self.movingdom(["check", "--config", str(self.cfg), "--out",
                                    str(rep / "check")], self.work / "check.log")
            cmd = self.movingdom(self.wl.argv(self.cfg, rep / "out", self.seed),
                                 self.work / f"{rep.name}.log")
            rep_times.append(time.perf_counter() - t)
            self.gate(rep.name, cmd, rep / "out", first,
                      [f"check exit code {check.code}"] if check.code else [])
            if first is None:
                first = rep / "out"
            else:
                shutil.rmtree(rep)
            rows.append((check.wall, cmd.wall, cmd.rss_mib, cmd.code == 0))
            if not self.more(rep_times, MIN_REPS):
                break
        good = [r for r in rows if r[3]] or rows
        values = {
            "wall_s": median([r[1] for r in good]),
            "setup_s": median([r[0] for r in good]),
            "cell_steps_per_s": median([self.cells / (r[1] - r[0]) for r in good
                                        if r[1] > r[0]]),
            "peak_rss_mib": median([r[2] for r in good]),
        }
        spread = {k: (min(v), max(v)) for k, v in (
            ("wall_s", [r[1] for r in good]), ("setup_s", [r[0] for r in good]),
            ("peak_rss_mib", [r[2] for r in good]))}
        return values, E2E_UNITS, spread, len(rows)

    def traced(self):
        samples = []
        rep_times = []
        first = None
        absent = set()
        while True:
            rep = self.work / f"pair{len(samples)}"
            rep.mkdir()
            t = time.perf_counter()
            plain = self.movingdom(self.wl.argv(self.cfg, rep / "plain", self.seed),
                                   rep / "plain.log")
            traced = spawn([sys.executable, str(HERE / "tracer.py"),
                            "--metrics", str(rep / "layers.json"),
                            "--spans", str(rep / "spans.json"), "--"]
                           + self.wl.argv(self.cfg, rep / "traced", self.seed),
                           rep / "traced.log", self.env, self.hard_deadline)
            rep_times.append(time.perf_counter() - t)
            found = []
            layers = rep / "layers.json"
            if traced.code == 0 and layers.is_file():
                got = json.loads(layers.read_text())
                m = got["metrics"]
                absent.update(got["absent_metrics"])
                m["trace.overhead_s"] = traced.wall - got["post_s"] - plain.wall
                if "solver.cell_steps" not in got["absent_metrics"] \
                        and m["solver.cell_steps"] != self.cells:
                    found.append(f"traced cell-steps {m['solver.cell_steps']:.0f} "
                                 f"!= formula {self.cells}")
                samples.append(m)
            self.gate(f"{rep.name}/plain", plain, rep / "plain", first)
            self.gate(f"{rep.name}/traced", traced, rep / "traced", rep / "plain", found)
            shutil.rmtree(rep / "traced", ignore_errors=True)
            if first is None:
                first = rep / "plain"
            else:
                shutil.rmtree(rep / "plain", ignore_errors=True)
            if not self.more(rep_times, 1):
                break
        units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        values = {k: median([s[k] for s in samples]) for k in units}
        if absent:
            print("# absent (target not found in the program; reported as 0): "
                  + ", ".join(sorted(absent)))
        return values, units, {}, len(rep_times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "movingdom" / "cli.py").is_file():
        print(f"perfbench: no movingdom sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    bench = Bench(args)
    env_info = environment(bench.env)
    (bench.work / "environment.json").write_text(json.dumps(env_info, indent=1))
    print("# environment " + json.dumps(env_info, sort_keys=True))
    bench.warm_up()
    values, units, spread, reps = bench.traced() if args.trace else bench.end_to_end()
    for out in [*bench.work.glob("*/out"), *bench.work.glob("*/plain"),
                *bench.work.glob("*/traced"), *bench.work.glob("*/check")]:
        shutil.rmtree(out)

    wl = bench.wl
    print(f"# workload {wl.name}: movingdom {wl.command}, seed {args.seed}, "
          f"{reps} repetitions, {bench.cells} cell-steps per command")
    for k, v in values.items():
        lo_hi = f"  (min {spread[k][0]:.4g}, max {spread[k][1]:.4g})" if k in spread else ""
        print(f"{k:32s} {v:14.6g} {units[k]}{lo_hi}")
    print(f"{'fail_frac':32s} {bench.failed / max(1, bench.attempted):14.6g} "
          f"({bench.failed} of {bench.attempted} runs)")
    for p in bench.problems:
        print(f"# FAIL {p}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
