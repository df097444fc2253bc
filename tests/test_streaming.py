"""Streaming shell tests: epoch loop, watermarks, exactly-once sink
(SURVEY.md §5.2 items 3-5; kill-resume: test_epoch_driver.py).

The oracle for stream-vs-batch parity is the batch windowed_aggregate
over the concatenated input — for the same input stream and final
watermark the streaming engine must emit exactly the same rows
(north_star invariant)."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from vaero_ray.sources.transcripts import make_transcripts
from vaero_ray.stages.windows import AggSpec, windowed_aggregate
from vaero_ray.streaming import StreamingWindowedJob, step


def _split_stream(tbl: pa.Table, n_files: int, d: str) -> list[str]:
    """Simulate a log stream: sort by ts, cut into arrival chunks (rows
    inside a chunk keep generator disorder via stable sort on ts only)."""
    idx = pc.sort_indices(tbl, sort_keys=[("ts", "ascending")])
    tbl = tbl.take(idx)
    os.makedirs(d, exist_ok=True)
    n = tbl.num_rows
    paths = []
    for i in range(n_files):
        lo = i * n // n_files
        hi = (i + 1) * n // n_files
        p = os.path.join(d, f"chunk-{i:04d}.parquet")
        pq.write_table(tbl.slice(lo, hi - lo), p)
        paths.append(p)
    return paths


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("stream")
    tbl = make_transcripts(n_convs=80, mean_turns=16, seed=7, disorder_frac=0.2)
    _split_stream(tbl, 5, str(d))
    return str(d), tbl


def _job(stream_d: str, base: str, **kw) -> StreamingWindowedJob:
    defaults = dict(
        keys=["role"],
        aggs=[AggSpec(None, "count", "n_turns"), AggSpec("ts", "max", "last_ts")],
        ts_col="ts",
        size_s=600,
        allowed_lateness_s=30,
        max_files_per_epoch=1,
    )
    defaults.update(kw)
    return StreamingWindowedJob(
        input_dir=stream_d, out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt", **defaults
    )


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns), ignore_index=True)[sorted(df.columns)]


def test_stream_matches_batch(stream_dir, tmp_path, ray_session):
    stream_d, tbl = stream_dir
    job = _job(stream_d, str(tmp_path))
    manifests = job.run()
    assert len(manifests) == 6  # 5 file epochs + 1 finalize
    assert manifests[-1].watermark_us >= 1 << 62

    got = _norm(job.committed_output().to_pandas())
    want = windowed_aggregate(
        rd.from_arrow(tbl),
        keys=["role"],
        aggs=[AggSpec(None, "count", "n_turns"), AggSpec("ts", "max", "last_ts")],
        ts_col="ts",
        size_s=600,
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(want), got)
    # exactly-once bookkeeping: emitted rows + dropped-late == full history
    assert sum(m.rows_out for m in manifests) == len(want) + sum(0 for m in manifests)


def test_late_rows_dropped_and_lateness_window(tmp_path, ray_session):
    """A row whose window closed at the previous watermark is dropped
    (counted); generous allowed_lateness keeps the window open instead."""
    d = f"{tmp_path}/in"
    os.makedirs(d)
    us = 1_000_000

    def t(sec):
        return pa.scalar(sec * us, pa.timestamp("us"))

    f1 = pa.table({"k": ["a", "a"], "ts": [t(10), t(5000)]})  # wm -> 5000-30
    f2 = pa.table({"k": ["a"], "ts": [t(20)]})  # window [0,600) closed -> late
    pq.write_table(f1, f"{d}/chunk-0.parquet")
    pq.write_table(f2, f"{d}/chunk-1.parquet")

    job = StreamingWindowedJob(
        input_dir=d, out_dir=f"{tmp_path}/o1", ckpt_dir=f"{tmp_path}/k1",
        keys=["k"], aggs=[AggSpec(None, "count", "n")], ts_col="ts",
        size_s=600, allowed_lateness_s=30,
    )
    ms = job.run()
    assert sum(m.rows_late for m in ms) == 1
    out = job.committed_output().to_pandas()
    assert int(out["n"].sum()) == 2  # late row excluded

    lenient = StreamingWindowedJob(
        input_dir=d, out_dir=f"{tmp_path}/o2", ckpt_dir=f"{tmp_path}/k2",
        keys=["k"], aggs=[AggSpec(None, "count", "n")], ts_col="ts",
        size_s=600, allowed_lateness_s=10_000,
    )
    ms2 = lenient.run()
    assert sum(m.rows_late for m in ms2) == 0
    out2 = lenient.committed_output().to_pandas()
    assert int(out2["n"].sum()) == 3  # all rows counted


def test_a_null_key_window_counts_its_rows(tmp_path, ray_session):
    """A null key is a window key like any other: its rows are counted
    (count and mean), and its late rows too."""
    d = f"{tmp_path}/in"
    os.makedirs(d)

    def t(sec):
        return pa.array([pd.Timestamp("2026-01-01") + pd.Timedelta(seconds=s) for s in sec], pa.timestamp("us"))

    chunks = [
        pa.table({"k": ["a", None, None, "a"], "x": [1.0, 2.0, 3.0, 4.0], "ts": t([0, 1, 2, 3])}),
        pa.table({"k": ["b"], "x": [5.0], "ts": t([3600])}),  # closes [0, 60)
        pa.table({"k": [None, None], "x": [6.0, 7.0], "ts": t([10, 11])}),  # late
    ]
    for i, tbl in enumerate(chunks):
        pq.write_table(tbl, f"{d}/chunk-{i}.parquet")
    job = StreamingWindowedJob(
        input_dir=d, out_dir=f"{tmp_path}/out", ckpt_dir=f"{tmp_path}/ckpt", keys=["k"],
        aggs=[AggSpec(None, "count", "n"), AggSpec("x", "mean", "mean_x")], ts_col="ts", size_s=60,
    )
    ms = job.run()
    assert [m.rows_late for m in ms] == [0, 0, 2, 0]
    out = pa.concat_tables(pq.read_table(f) for f in job.store.committed_output_files())
    assert sorted(out.select(["k", "n", "mean_x"]).to_pylist(), key=lambda r: r["k"] or "") == [
        {"k": None, "n": 2, "mean_x": 2.5},
        {"k": "a", "n": 2, "mean_x": 2.5},
        {"k": "b", "n": 1, "mean_x": 5.0},
    ]


def test_metrics_written(stream_dir, tmp_path, monkeypatch, ray_session):
    stream_d, _ = stream_dir
    job = _job(stream_d, f"{tmp_path}/m")
    job.run(max_epochs=2, finalize=False)
    # an epoch above the map-task budget runs its tasks as Ray tasks
    monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", -1)
    job.run(max_epochs=1, finalize=False)
    lines = open(f"{tmp_path}/m/ckpt/metrics.jsonl").read().strip().splitlines()
    assert len(lines) == 3
    import json

    recs = [json.loads(line) for line in lines]
    for rec in recs:
        for field in ("epoch", "rows_in", "rows_late", "rows_out", "state_rows", "watermark_us", "wall_s",
                      "bytes_in", "state_bytes_in", "read_s", "compute_s", "write_s", "files_written"):
            assert field in rec
    # the tasks time their phases from inside, in the job's process or not
    for rec in recs:
        assert all(rec[p] is not None and rec[p] >= 0 for p in ("read_s", "compute_s", "write_s"))
    for rec in recs[:2]:
        assert rec["read_s"] + rec["compute_s"] + rec["write_s"] <= rec["wall_s"]
    for e, rec in enumerate(recs):
        m = job.store.load(e)
        written = [f for p in (*m.partitions.values(), *m.state_partitions.values()) for f in p["files"]]
        assert rec["files_written"] == len(written) > 0
    files = sorted(os.path.join(stream_d, f) for f in os.listdir(stream_d))[:3]
    assert [r["bytes_in"] for r in recs] == [step.footer_stats([f])[1] for f in files]
    assert recs[0]["state_bytes_in"] == 0
    for prev, rec in zip(recs, recs[1:]):
        assert (rec["state_bytes_in"] > 0) == (prev["state_rows"] > 0)


def test_streaming_sliding_matches_batch(stream_dir, tmp_path, ray_session):
    """Sliding windows in the streaming engine: one row per overlapping
    window, closed by the same watermark arithmetic; final result equals
    the batch sliding aggregate."""
    from functools import partial as _p

    from vaero_ray.stages.windows import assign_sliding

    stream_d, tbl = stream_dir
    job = StreamingWindowedJob(
        input_dir=stream_d, out_dir=f"{tmp_path}/out", ckpt_dir=f"{tmp_path}/ckpt",
        keys=["role"], aggs=[AggSpec(None, "count", "n_turns")],
        ts_col="ts", size_s=600, slide_s=300, allowed_lateness_s=30,
    )
    job.run()
    got = _norm(job.committed_output().to_pandas())
    assigned = rd.from_arrow(tbl).map_batches(
        _p(assign_sliding, ts_col="ts", size_s=600, slide_s=300), batch_format="pyarrow"
    )
    want = windowed_aggregate(
        assigned, keys=["role", "window_start"], aggs=[AggSpec(None, "count", "n_turns")], size_s=None
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(want), got, check_dtype=False)


def test_metrics_summary(stream_dir, tmp_path, ray_session):
    stream_d, _ = stream_dir
    job = _job(stream_d, f"{tmp_path}/ms")
    job.run()
    s = job.store.metrics_summary()
    assert s["epochs"] == 6 and s["rows_late"] == 0
    assert s["rows_in"] == 1274 and s["rows_out"] > 0
    assert s["checkpoint_age_s"] >= 0 and s["per_partition"]
    assert sum(p["rows_out"] for p in s["per_partition"].values()) == s["rows_out"]


def test_from_graph_dsl_bridge(stream_dir, tmp_path, ray_session):
    """A Vaero DSL spec drives the windowed streaming engine: the fused
    transform chain runs per epoch, final result equals batch."""
    from vaero_ray.dsl import Vaero
    from vaero_ray.transforms import compile_chain

    stream_d, tbl = stream_dir
    Vaero.reset()
    Vaero().source("parquet", path="stream").filter_regexp("role", "^(user|assistant)$").add(
        "pipeline", "p1"
    ).sink("s3", timestamp_key="ts")
    graph = Vaero.start()

    job = StreamingWindowedJob.from_graph(
        graph, stream_d, f"{tmp_path}/out", f"{tmp_path}/ckpt",
        keys=["role"], aggs=[AggSpec(None, "count", "n")],
        ts_col="ts", size_s=600, allowed_lateness_s=30,
    )
    job.run()
    got = _norm(job.committed_output().to_pandas())

    fused = compile_chain([("filter_regexp", {"path": "role", "regex": "^(user|assistant)$"})])
    want = windowed_aggregate(
        rd.from_arrow(tbl).map_batches(fused, batch_format="pyarrow"),
        keys=["role"], aggs=[AggSpec(None, "count", "n")], ts_col="ts", size_s=600,
    ).to_pandas()
    pd.testing.assert_frame_equal(_norm(want), got, check_dtype=False)


def test_stale_state_file_from_aborted_attempt_ignored(stream_dir, tmp_path, ray_session):
    """State restores from the MANIFEST's lineage, never a directory glob:
    a stale partition file left in the state dir by an aborted attempt
    (crash between state write and commit, rerun claimed different files)
    must not leak into the next epoch's carried state."""
    import glob as _glob

    import pyarrow.parquet as _pq

    stream_d, tbl = stream_dir
    # reference run: clean end-to-end output
    ref = _job(stream_d, str(tmp_path / "ref"))
    ref.run()
    want = _norm(ref.committed_output().to_pandas())

    job = _job(stream_d, str(tmp_path / "dirty"))
    m0 = job.run_epoch()
    assert m0 is not None and m0.state_partitions
    # plant a stale file in the committed epoch's state dir that the
    # manifest does NOT list (simulates an aborted attempt's leftovers)
    state_dir = m0.state_path
    real = sorted(_glob.glob(os.path.join(state_dir, "**", "*.parquet"), recursive=True))[0]
    stale = os.path.join(os.path.dirname(real), "epoch-99999999.parquet")
    _pq.write_table(_pq.read_table(real), stale)  # duplicate partials: would double counts
    # resume and finish: output must equal the clean run (glob-based state
    # loading would union the stale partials and inflate aggregates)
    job.run()
    got = _norm(job.committed_output().to_pandas())
    pd.testing.assert_frame_equal(want, got)


# the ids name the budgets that chose the in-process step or the Ray Data
# plan before every windowed epoch ran on KeyedStep: one task, or one Ray
# map task per file
@pytest.mark.parametrize("bound", [1 << 62, -1], ids=["task", "dataset"])
def test_resume_from_state_holding_an_integer_aggregate_as_float(bound, tmp_path, monkeypatch, ray_session):
    """State written before integer columns kept their type holds an
    integer partial with a null as float64: a run that resumes from it
    emits a clean run's values."""
    from vaero_ray.streaming.sink import write_canonical_file

    monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", bound)
    t0 = pd.Timestamp("2026-01-01")
    os.makedirs(tmp_path / "in")
    for i, (convs, xs) in enumerate([(["a", "b"], [None, 5]), (["a", "b"], [3, 4])]):
        ts = pa.array([t0 + pd.Timedelta(seconds=10 * i + j) for j in range(2)], pa.timestamp("us"))
        tbl = pa.table({"conv_id": convs, "x": pa.array(xs, pa.int64()), "ts": ts})
        pq.write_table(tbl, str(tmp_path / "in" / f"chunk-{i:04d}.parquet"))
    aggs = [AggSpec(None, "count", "n"), AggSpec("x", "max", "max_x"), AggSpec("x", "sum", "sum_x")]

    def job(sub: str) -> StreamingWindowedJob:
        return _job(str(tmp_path / "in"), str(tmp_path / sub), keys=["conv_id"], aggs=aggs, size_s=60,
                    allowed_lateness_s=0)

    def rows(j: StreamingWindowedJob) -> list:
        out = pa.concat_tables(pq.read_table(f) for f in j.store.committed_output_files())
        return sorted(out.select(["conv_id", "n", "max_x", "sum_x"]).to_pylist(), key=lambda r: r["conv_id"])

    clean = job("clean")
    clean.run()
    old = job("old")
    m = old.run_epoch()
    [path] = m.state_files()
    state = pq.read_table(path)
    assert state.schema.field("x_max").type == pa.int64() and state.column("x_max").null_count == 1
    floats = {n: state.column(n).cast(pa.float64()) for n in state.column_names if state.column(n).null_count}
    write_canonical_file(pa.table({n: floats.get(n, state.column(n)) for n in state.column_names}), path)
    old.run()
    assert rows(old) == rows(clean) == [
        {"conv_id": "a", "n": 2, "max_x": 3, "sum_x": 3},
        {"conv_id": "b", "n": 2, "max_x": 5, "sum_x": 9},
    ]


def test_an_all_nan_window_commits_nulls(tmp_path, ray_session):
    """A NaN is a null in the window partials: a window whose values are
    all NaN commits a null sum, min, max and mean (an older version
    committed min +inf and max -inf), and a window's mean skips its NaN
    and null values, as its sum does (an older version divided by every
    row). The batch aggregate agrees."""
    d = f"{tmp_path}/in"
    os.makedirs(d)
    ts = pa.array([1, 2, 3, 4, 5, 6], pa.timestamp("s")).cast(pa.timestamp("us"))
    tbl = pa.table({"k": ["a", "a", "b", "c", "c", "c"], "ts": ts, "v": [np.nan, np.nan, 1.0, np.nan, None, 4.0]})
    pq.write_table(tbl, f"{d}/chunk-0.parquet")
    aggs = [AggSpec("v", "sum", "s"), AggSpec("v", "min", "lo"), AggSpec("v", "max", "hi"), AggSpec("v", "mean", "m")]
    job = StreamingWindowedJob(
        input_dir=d, out_dir=f"{tmp_path}/out", ckpt_dir=f"{tmp_path}/ckpt", keys=["k"], aggs=aggs, size_s=60
    )
    job.run()
    got = pa.concat_tables(pq.read_table(f) for f in job.store.committed_output_files()).sort_by("k")
    assert got.drop_columns(["window_start"]).to_pylist() == [
        {"k": "a", "s": None, "lo": None, "hi": None, "m": None},
        {"k": "b", "s": 1.0, "lo": 1.0, "hi": 1.0, "m": 1.0},
        {"k": "c", "s": 4.0, "lo": 4.0, "hi": 4.0, "m": 4.0},
    ]
    batch = windowed_aggregate(rd.from_arrow(tbl), keys=["k"], aggs=aggs, size_s=60).to_pandas()
    pd.testing.assert_frame_equal(_norm(batch), _norm(got.to_pandas()))


def test_a_sliding_late_row_counts_once_per_closed_window(tmp_path, ray_session):
    """A late row is counted once for each of its windows that had
    closed, and still counts in its open ones: at watermark 4970 s, 700 s
    lies in two closed 600 s windows (starts 300 and 600), 4700 s in one
    closed (4200) and one open (4500)."""
    d = f"{tmp_path}/in"
    os.makedirs(d)
    for i, secs in enumerate([[10, 5000], [700, 4700]]):
        ts = pa.array(secs, pa.timestamp("s")).cast(pa.timestamp("us"))
        pq.write_table(pa.table({"k": ["a"] * len(secs), "ts": ts}), f"{d}/chunk-{i}.parquet")
    job = StreamingWindowedJob(
        input_dir=d, out_dir=f"{tmp_path}/out", ckpt_dir=f"{tmp_path}/ckpt", keys=["k"],
        aggs=[AggSpec(None, "count", "n")], size_s=600, slide_s=300, allowed_lateness_s=30,
    )
    assert [m.rows_late for m in job.run()] == [0, 3, 0]
    out = pa.concat_tables(pq.read_table(f) for f in job.store.committed_output_files())
    got = {r["window_start"].timestamp(): r["n"] for r in out.to_pylist()}
    assert got == {0: 1, 4500: 2, 4800: 1}


def test_sliding_state_holds_open_panes(stream_dir, tmp_path, ray_session):
    """A sliding job keyed on a sparse key carries one state row per
    open (key, pane): the distinct (conversation, 60 s pane) pairs of
    the rows read so far whose last window, ``pane + size``, ends after
    the epoch's watermark; never one row per open window."""
    stream_d, _ = stream_dir
    job = _job(stream_d, str(tmp_path), keys=["conv_id"], size_s=600, slide_s=60, allowed_lateness_s=3600)
    manifests = job.run()
    seen = []
    for m in manifests:
        seen += [pq.read_table(f, columns=["conv_id", "ts"]) for f in m.input_files]
        rows = pa.concat_tables(seen)
        pane = pc.cast(rows.column("ts"), pa.int64()).to_numpy() // 60_000_000 * 60_000_000
        pairs = zip(rows.column("conv_id").to_pylist(), pane, pane + 600_000_000 > m.watermark_us)
        assert m.state_rows == len({(c, p) for c, p, live in pairs if live})
    assert max(m.state_rows for m in manifests) > 30


def test_sliding_state_of_an_older_layout_is_rejected(stream_dir, tmp_path, ray_session):
    """An older version carried window partials for sliding windows,
    which cannot be split back into panes: a checkpoint whose manifest
    lacks the slice mark and holds state fails the next epoch with an
    error naming its state file. A tumbling window is its own pane, so
    its state needs no mark."""
    from .test_session_job import _strip_slice_mark

    stream_d, _ = stream_dir
    m = _job(stream_d, str(tmp_path), slide_s=300).run_epoch()
    assert m.state_rows > 0 and m.extra["state"] == "slices"
    _strip_slice_mark(f"{tmp_path}/ckpt")
    with pytest.raises(ValueError, match=f"{m.state_files()[0]}: sliding state of an older version"):
        _job(stream_d, str(tmp_path), slide_s=300).run_epoch()
    tumbling = _job(stream_d, f"{tmp_path}/t")
    assert "state" not in tumbling.run_epoch().extra
    assert len(_job(stream_d, f"{tmp_path}/t").run()) == 5


def _tlen(tbl: pa.Table) -> pa.Table:
    return tbl.append_column("tlen", pc.utf8_length(tbl.column("text")))


def test_tumbling_state_without_a_mean_count_resumes(stream_dir, tmp_path, ray_session):
    """A mean carries its column's count of values (``{col}_count``);
    tumbling state of an older version has none and counted every row.
    Resumed from such state, with no null among the values, a job
    commits the clean run's output bytes."""
    stream_d, _ = stream_dir
    kw = dict(transform=_tlen, aggs=[AggSpec("tlen", "mean", "m"), AggSpec(None, "count", "n")])
    ref = _job(stream_d, f"{tmp_path}/ref", **kw)
    ref.run()
    job = _job(stream_d, f"{tmp_path}/run", **kw)
    m = job.run(max_epochs=2, finalize=False)[-1]
    assert m.state_rows > 0
    for f in m.state_files():
        t = pq.read_table(f)
        assert "tlen_count" in t.column_names
        pq.write_table(t.drop_columns(["tlen_count"]), f)
    job.run()
    out = [job.store.load(e).partitions for e in job.store.committed_epochs()]
    want = [ref.store.load(e).partitions for e in ref.store.committed_epochs()]
    assert [{k: e["sha256"] for k, e in p.items()} for p in out] == [{k: e["sha256"] for k, e in p.items()} for p in want]
    assert sum(len(p) for p in out) > 2
