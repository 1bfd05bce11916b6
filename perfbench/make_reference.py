"""Regenerate the stored reference outputs that the workload gates compare.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's command once at the default seed, with the same
pinned environment as the benchmark, checks the outputs against the
workload's structural gate, and writes perfbench/reference/<workload>.json.
Regenerate only when a change is meant to alter the outputs.
"""

import json
import shutil
import sys
import time

from run import OUT_DIR, ROOT, child_env, spawn
from workloads import DEFAULT_SEED, WORKLOADS, parse_config


def main(names):
    env = child_env()
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        work = OUT_DIR / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        text = wl.config(ROOT, DEFAULT_SEED)
        cfg = work / "workload.cfg"
        cfg.write_text(text)
        child = spawn([sys.executable, "-m", "movingdom"]
                      + wl.argv(cfg, work / "out", DEFAULT_SEED),
                      work / "command.log", env, time.perf_counter() + 600.0)
        if child.code != 0:
            sys.exit(f"{name}: exit code {child.code}; see {work / 'command.log'}")
        cp = parse_config(text)
        problems = wl.problems(work / "out", cp, DEFAULT_SEED)
        if problems:
            sys.exit(f"{name}: outputs fail the gate: {problems}")
        wl.reference_path().parent.mkdir(exist_ok=True)
        wl.reference_path().write_text(
            json.dumps(wl.make_reference(work / "out", cp), indent=1) + "\n")
        print(f"{name}: wrote {wl.reference_path().relative_to(ROOT)} "
              f"({child.wall:.2f} s)")


if __name__ == "__main__":
    main(sys.argv[1:])
