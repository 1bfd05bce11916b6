"""Byte oracles and a memory bound for the snapshot and moving-table writers.

The oracles are the per-value writers the package used before block
formatting: `f"{v!r}\\n"` per snapshot value and one `repr` per cell joined
row by row.  The block writer must give the same bytes.
"""

import tracemalloc
from itertools import repeat

import numpy as np
import pytest

from movingdom import cli, grid
from movingdom import expr as ex
from movingdom.grid import _BLOCK, BoxGrid, _csv_blocks, read_snapshot, write_snapshot


def first_difference(new, old):
    """None, or (line number, new line, old line) of the first line that
    differs; asserting on it keeps a failure readable (and fast: pytest's
    diff of two whole files of this size takes minutes)."""
    new, old = new.splitlines(), old.splitlines()
    for i, (a, b) in enumerate(zip(new, old)):
        if a != b:
            return i, a, b
    return None if len(new) == len(old) else (min(len(new), len(old)), "", "")


def oracle_rows(cols):
    """CSV text of the columns, one repr per cell and one join per row."""
    n = min(len(c) for c in cols if not isinstance(c, str))
    cells = [repeat(c, n) if isinstance(c, str) else map(repr, memoryview(np.asarray(c)))
             for c in cols]
    return "".join(",".join(row) + "\n" for row in zip(*cells))


def oracle_write_snapshot(path, g, values, time):
    extents = g.extents if g.kind == "box" else (1.0,)
    lines = [
        "movingdom-snapshot 1",
        f"kind {g.kind}",
        f"dim {g.dim}",
        "counts " + " ".join(str(c) for c in g.counts),
        "extents " + " ".join(repr(float(e)) for e in extents),
        f"time {float(time)!r}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.writelines(f"{v!r}\n" for v in memoryview(values))


def oracle_write_moving(path, t, xs, u):
    header = ["t"] + [f"x{i + 1}" for i in range(len(xs))] + ["u"]
    with open(path, "w") as fh:
        fh.write("schema,moving_snapshot,1\n")
        fh.write(",".join(header) + "\n")
        fh.write(oracle_rows([repr(float(t))] + list(xs) + [u]))


SPECIALS = [5e-324, -5e-324, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
            1e300, -1e300, 1e-300, -1e-300, 0.0, -0.0, 0.1 + 0.2, 1.0, -2.5]


def block_cases():
    rng = np.random.default_rng(7)
    B = _BLOCK
    yield "repeated", [rng.choice(rng.normal(size=5), size=3 * B + 7),
                       np.repeat(rng.random(7), B // 2)[:3 * B + 7], "0.25"]
    yield "signed_zeros", [np.array([0.0, -0.0, 0.0, -0.0, 1.0, -0.0])]
    yield "specials", [np.array(SPECIALS * 40), np.array(SPECIALS[::-1] * 40)]
    for n in (0, 1, B - 1, B, B + 1):
        yield f"length_{n}", ["-1.5", rng.normal(size=n), rng.integers(-3, 3, n) / 4.0]


@pytest.mark.parametrize("name, cols", list(block_cases()),
                         ids=[name for name, _ in block_cases()])
def test_block_writer_matches_the_per_row_oracle(name, cols):
    assert first_difference("".join(_csv_blocks(cols)), oracle_rows(cols)) is None


@pytest.mark.parametrize("name, cols", list(block_cases()),
                         ids=[name for name, _ in block_cases()])
def test_block_texts_stand_in_for_their_column(name, cols):
    # the texts _csv_blocks gave for one column, passed back as that column
    i = max(i for i, c in enumerate(cols) if not isinstance(c, str))
    reused = cols[:i] + [list(_csv_blocks([cols[i]]))] + cols[i + 1:] + [cols[i]]
    assert first_difference("".join(_csv_blocks(reused)),
                            oracle_rows(cols + [cols[i]])) is None


@pytest.mark.parametrize("n", [3, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_snapshot_matches_the_per_value_oracle(tmp_path, n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, n)
    values[::2] = rng.choice([0.0, -0.0, 5e-324, 1e300, -1e-300], size=values[::2].shape)
    g = BoxGrid((2.0,), (n,))
    write_snapshot(tmp_path / "new.snap", g, values, 0.1 + 0.2)
    oracle_write_snapshot(tmp_path / "old.snap", g, values, 0.1 + 0.2)
    assert first_difference((tmp_path / "new.snap").read_text(),
                            (tmp_path / "old.snap").read_text()) is None
    back_grid, back, t = read_snapshot(tmp_path / "new.snap")
    assert back_grid == g and t == 0.1 + 0.2 and np.array_equal(back, values)


BOX3D = """[problem]
dim = 3
domain = box
extents = 1.0, 1.0, 1.0
forward = "(y1 + 0.25 * y1^2) / (exp(0 - t^2) + 1)", "(y2 + 0.25 * y2^2) / (exp(0 - t^2) + 1)", "(y3 + 0.25 * y3^2) / (exp(0 - t^2) + 1)"
inverse = "2 * (sqrt(1 + x1 * (exp(0 - t^2) + 1)) - 1)", "2 * (sqrt(1 + x2 * (exp(0 - t^2) + 1)) - 1)", "2 * (sqrt(1 + x3 * (exp(0 - t^2) + 1)) - 1)"
beta = 1.0
f = "sin(u)"
initial = "0.5 + 0.75 * cos(3.141592653589793 * y1) * cos(3.141592653589793 * y2) + 0.25 * cos(6.283185307179586 * y3)"

[numerics]
grid = 10, 9, 8
scheme = crank-nicolson
dt = 0.01
snapshot_every = 4

[experiment]
tau = 0.0
t = 0.08
"""


@pytest.mark.parametrize("case", ["box3d", "ball_shrink"])
def test_solve_outputs_match_the_oracle_writers(tmp_path, monkeypatch, case):
    # the oracle files are written from the march `solve` ran, as the
    # per-value writers wrote them; every snapshot file must match
    if case == "box3d":
        cfg = tmp_path / "box3d.cfg"
        cfg.write_text(BOX3D)   # 720 cells: a full block and a partial one
    else:
        cfg = cli.fixture_path("ball_shrink")   # radial, 64 cells
    seen = {}
    run = cli.run

    def march(p, g, *args):
        seen["p"], seen["g"] = p, g
        seen["traj"] = run(p, g, *args)
        return seen["traj"]

    monkeypatch.setattr(cli, "run", march)
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0

    p, g, traj = seen["p"], seen["g"], seen["traj"]
    dim = p.metric.spec.dim
    fwd = [ex.compiled(c) for c in p.metric.spec.forward]
    centers = g.embed()[:, :dim]
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    for idx, (t, snap) in enumerate(zip(traj.times, traj.snapshots)):
        oracle_write_snapshot(oracle / f"fixed_{idx:03d}.snap", g, snap, t)
        env, shape = ex.bind(t, centers)
        xs = [np.broadcast_to(f(env), shape) for f in fwd]
        oracle_write_moving(oracle / f"moving_{idx:03d}.csv", t, xs, snap)
    names = sorted(q.name for q in oracle.iterdir())
    assert len(names) >= 4
    assert sorted(q.name for q in out.glob("*_*.*") if q.name != "metrics.csv") == names
    for name in names:
        assert first_difference((out / name).read_text(),
                                (oracle / name).read_text()) is None, name


def test_solve_formats_each_snapshot_value_once(tmp_path, monkeypatch):
    # fixed_NNN.snap formats u; moving_NNN.csv reuses that text, so the
    # block writer sees each snapshot's state among its columns once
    seen, columns = {}, []
    run, blocks = cli.run, grid._csv_blocks

    def march(*args):
        seen["traj"] = run(*args)
        return seen["traj"]

    def spy(cols):
        columns.extend(c for c in cols if isinstance(c, np.ndarray))
        return blocks(cols)

    monkeypatch.setattr(cli, "run", march)
    monkeypatch.setattr(cli, "_csv_blocks", spy)
    monkeypatch.setattr(grid, "_csv_blocks", spy)
    cfg = tmp_path / "box3d.cfg"
    cfg.write_text(BOX3D)
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    snaps = seen["traj"].snapshots
    assert len(snaps) >= 2
    for snap in snaps:
        assert sum(c.tobytes() == snap.tobytes() for c in columns) == 1


def test_writing_a_32_cubed_snapshot_pair_stays_below_3_mib(tmp_path):
    # the writers hold one block of strings at a time; a file built as one
    # string (about 2.6 MB of text for the moving table) would not fit
    g = BoxGrid((1.0, 1.0, 1.0), (32, 32, 32))
    values = np.random.default_rng(3).normal(size=g.m)
    xs = [np.ascontiguousarray(c * (1.0 + 0.25 * c) / 1.5) for c in g.centers.T]
    header = ["t", "x1", "x2", "x3", "u"]
    tracemalloc.start()
    try:
        write_snapshot(tmp_path / "fixed.snap", g, values, 0.08)
        cli.write_table(tmp_path / "moving.csv", "moving_snapshot", header,
                        columns=[repr(0.08)] + xs + [values])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "moving.csv").stat().st_size > 2_000_000
    assert peak <= 3 * 2**20, peak


def broadcast_cases():
    # columns shaped to broadcast over a table's grid, as x_i on an open mesh;
    # cell counts that are and are not multiples of _BLOCK
    rng = np.random.default_rng(11)
    for counts in [(7,), (2 * _BLOCK + 3,), (_BLOCK, 2), (33, 17), (10, 9, 8), (4, 8, 16)]:
        axes = np.ix_(*[rng.normal(size=n) * 10.0 ** rng.integers(-5, 5, n) for n in counts])
        axes[0].flat[::2] = rng.choice(SPECIALS, size=axes[0].flat[::2].shape)
        cols = ["0.5"] + list(axes) + [rng.normal(size=counts)]   # a full-size array too
        if len(counts) > 1:   # a column of two axes, and a full-size array in F order
            cols += [axes[0] * axes[-1], np.asfortranarray(rng.integers(-2, 2, counts) / 4.0)]
        yield counts, cols + [np.asarray(-0.0)]


@pytest.mark.parametrize("counts, cols", list(broadcast_cases()),
                         ids=["x".join(map(str, c)) for c, _ in broadcast_cases()])
def test_broadcast_columns_write_as_their_materialized_columns(counts, cols):
    flat = [c if isinstance(c, str) else np.broadcast_to(c, counts).ravel() for c in cols]
    text = "".join(_csv_blocks(cols))
    assert first_difference(text, oracle_rows(flat)) is None
    assert text == "".join(_csv_blocks(flat))
    # a broadcast column beside block texts standing in for a flat one
    texts = list(_csv_blocks([flat[-2]]))
    assert "".join(_csv_blocks(cols[:-2] + [texts])) == "".join(_csv_blocks(flat[:-2] + [texts]))


def test_a_broadcast_column_is_formatted_once_per_element(monkeypatch):
    # x_i on a 32^3 open mesh holds 32 values: formatting it takes 32 reprs
    calls = []
    g = BoxGrid((1.0, 1.0, 1.0), (32, 32, 32))
    xs = [np.broadcast_to(c * 1.5, g.counts) for c in g.mesh]
    real = repr

    def counting(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(grid, "repr", counting, raising=False)
    blocks = list(_csv_blocks(["0.1"] + xs))
    assert len(calls) == 3 * 32 and len(blocks) == g.m // _BLOCK


def test_writing_a_32_cubed_table_of_mesh_columns_stays_below_3_mib(tmp_path):
    # as `solve` writes it: x_i broadcast from the open mesh, u as block texts
    g = BoxGrid((1.0, 1.0, 1.0), (32, 32, 32))
    values = np.random.default_rng(5).normal(size=g.m)
    tracemalloc.start()
    try:
        u = write_snapshot(tmp_path / "fixed.snap", g, values, 0.08)
        xs = [np.broadcast_to(c * (1.0 + 0.25 * c) / 1.5, g.counts) for c in g.mesh]
        cli.write_table(tmp_path / "moving.csv", "moving_snapshot", ["t", "x1", "x2", "x3", "u"],
                        columns=[repr(0.08)] + xs + [u])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "moving.csv").stat().st_size > 2_000_000
    assert peak <= 3 * 2**20, peak


@pytest.mark.parametrize("case", ["box3d", "ball_shrink"])
def test_transform_samples_match_the_row_writer(tmp_path, monkeypatch, case):
    # transform_samples.csv from broadcast columns over (time, cell) against
    # the row writer it replaced: one row of _cell texts per time and cell,
    # a and b evaluated on the cells time by time.  On the box each value a
    # column holds is formatted once: 143 reprs (2 times, 27 mesh values,
    # a_kk and b_k of (t, y_k), the six zero a_jk) for 1,440 rows
    if case == "box3d":
        cfg = tmp_path / "box3d.cfg"
        cfg.write_text(BOX3D)
    else:
        cfg = cli.fixture_path("ball_shrink")
    rc = cli.load_config(cfg)
    g, metric, d = cli._grid(rc), cli._require_checks(rc), rc.dim
    calls = []
    real = repr
    monkeypatch.setattr(grid, "repr", lambda v: calls.append(v) or real(v), raising=False)
    out = tmp_path / "out"
    assert cli.main(["transform", "--config", str(cfg), "--out", str(out)]) == 0
    if case == "box3d":
        assert len(calls) == 143
    rows = []
    for t in (0.0, 1.0):   # the default sample times
        cols = [g.embed()[:, :d], grid.on_cells(g, metric.eval_a, t, tail=(d * d,)),
                grid.on_cells(g, metric.eval_b, t, tail=(d,))]
        rows += ([t] + row for row in np.column_stack(cols).tolist())
    header = (["t"] + [f"y{i + 1}" for i in range(d)]
              + [f"a_{j + 1}{k + 1}" for j in range(d) for k in range(d)]
              + [f"b_{k + 1}" for k in range(d)])
    oracle = (f"schema,transform_samples,{cli.SCHEMA_VERSION}\n" + ",".join(header) + "\n"
              + "".join(",".join(map(cli._cell, row)) + "\n" for row in rows))
    text = (out / "transform_samples.csv").read_text()
    assert len(text.splitlines()) == 2 + 2 * g.m
    assert first_difference(text, oracle) is None
