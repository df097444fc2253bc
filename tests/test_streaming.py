"""Streaming shell tests: epoch loop, watermarks, exactly-once sink
(SURVEY.md §5.2 items 3-5; kill-resume: test_epoch_driver.py).

The oracle for stream-vs-batch parity is the batch windowed_aggregate
over the concatenated input — for the same input stream and final
watermark the streaming engine must emit exactly the same rows
(north_star invariant)."""

from __future__ import annotations

import os

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
        num_partitions=4,
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
        size_s=600, allowed_lateness_s=30, num_partitions=2,
    )
    ms = job.run()
    assert sum(m.rows_late for m in ms) == 1
    out = job.committed_output().to_pandas()
    assert int(out["n"].sum()) == 2  # late row excluded

    lenient = StreamingWindowedJob(
        input_dir=d, out_dir=f"{tmp_path}/o2", ckpt_dir=f"{tmp_path}/k2",
        keys=["k"], aggs=[AggSpec(None, "count", "n")], ts_col="ts",
        size_s=600, allowed_lateness_s=10_000, num_partitions=2,
    )
    ms2 = lenient.run()
    assert sum(m.rows_late for m in ms2) == 0
    out2 = lenient.committed_output().to_pandas()
    assert int(out2["n"].sum()) == 3  # all rows counted


def test_metrics_written(stream_dir, tmp_path, monkeypatch, ray_session):
    stream_d, _ = stream_dir
    job = _job(stream_d, f"{tmp_path}/m")
    job.run(max_epochs=2, finalize=False)
    # an epoch above the small-epoch bound takes the Ray Data step
    monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", -1)
    job.run(max_epochs=1, finalize=False)
    lines = open(f"{tmp_path}/m/ckpt/metrics.jsonl").read().strip().splitlines()
    assert len(lines) == 3
    import json

    recs = [json.loads(line) for line in lines]
    for rec in recs:
        for field in ("epoch", "rows_in", "rows_late", "rows_out", "state_rows", "watermark_us", "wall_s",
                      "step", "bytes_in", "state_bytes_in", "read_s", "compute_s", "write_s", "files_written"):
            assert field in rec
    assert [r["step"] for r in recs] == ["task", "task", "dataset"]
    # the task times its phases from inside; the Dataset step's plan
    # fuses them, so it records none
    for rec in recs[:2]:
        assert all(rec[p] >= 0 for p in ("read_s", "compute_s", "write_s"))
        assert rec["read_s"] + rec["compute_s"] + rec["write_s"] <= rec["wall_s"]
    assert recs[2]["read_s"] is recs[2]["compute_s"] is recs[2]["write_s"] is None
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
        ts_col="ts", size_s=600, slide_s=300, allowed_lateness_s=30, num_partitions=4,
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
        ts_col="ts", size_s=600, allowed_lateness_s=30, num_partitions=4,
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
