"""Streaming tap->transform->route->sink job: per-branch parity with the
batch runner over the concatenated stream (kill-resume:
test_epoch_driver.py)."""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from vaero_ray.dsl import Vaero
from vaero_ray.runner import run_batch
from vaero_ray.sources.transcripts import make_transcripts
from vaero_ray.streaming import step
from vaero_ray.streaming.transform_job import StreamingTransformJob


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    d = tmp_path_factory.mktemp("tstream")
    tbl = make_transcripts(n_convs=50, mean_turns=10, seed=31)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("ts", "ascending")]))
    n = tbl.num_rows
    for i in range(3):
        lo, hi = i * n // 3, (i + 1) * n // 3
        pq.write_table(tbl.slice(lo, hi - lo), str(d / f"chunk-{i:04d}.parquet"))
    return str(d), tbl


def _graph():
    # route_pipe-style fan-out (reference pipelines/route_pipe.py): one
    # source, two branches with different transforms and sinks
    Vaero.reset()
    src = Vaero().source("parquet", path="unused")
    src.filter_regexp("role", "^user$").mask("text", r"user\d+@example\.com", "<email>").sink(
        "s3", timestamp_key="ts", filename_prefix="%Y/%m/%d"
    )
    src.filter_regexp("role", "^tool$").add("routed", "tools").sink(
        "s3", timestamp_key="ts", filename_prefix="%Y/%m/%d"
    )
    return Vaero.start()


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df[sorted(df.columns)].sort_values(sorted(df.columns), ignore_index=True)


def test_streaming_transform_matches_batch(stream, tmp_path, ray_session):
    stream_d, tbl = stream
    job = StreamingTransformJob(
        input_dir=stream_d, out_dir=f"{tmp_path}/out", ckpt_dir=f"{tmp_path}/ckpt", graph=_graph()
    )
    ms = job.run()
    assert len(ms) == 3
    assert all(m.rows_out > 0 for m in ms)

    batch = run_batch(_graph(), source_data=rd.from_arrow(tbl), out_dir=f"{tmp_path}/batch")
    for i, bkey in enumerate(["b0_s3", "b1_s3"]):
        got = _norm(job.committed_output(bkey).to_pandas())
        want = _norm(rd.read_parquet(batch[f"b{i}:s3"]).to_pandas())
        # batch sink stores the prefix as a partition column; streaming
        # encodes it in the directory — compare the data columns
        want = want[[c for c in want.columns if c != "vx_prefix"]]
        pd.testing.assert_frame_equal(want, got[sorted(want.columns)], check_dtype=False)
    # masked text visible
    assert "<email>" in job.committed_output("b0_s3").to_pandas()["text"].iloc[0]


def test_transform_metrics_written(stream, tmp_path, monkeypatch, ray_session):
    stream_d, _ = stream
    job = StreamingTransformJob(
        input_dir=stream_d, out_dir=f"{tmp_path}/out", ckpt_dir=f"{tmp_path}/ckpt", graph=_graph()
    )
    job.run(max_epochs=2)
    # an epoch above the map-task budget runs its tasks as Ray tasks
    monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", -1)
    job.run(max_epochs=1)
    with open(f"{tmp_path}/ckpt/metrics.jsonl") as fh:
        recs = [json.loads(line) for line in fh]
    assert [r["step"] for r in recs] == ["task", "task", "task"]
    for rec in recs:
        assert all(rec[p] >= 0 for p in ("read_s", "compute_s", "write_s"))
    for rec in recs[:2]:
        assert rec["read_s"] + rec["compute_s"] + rec["write_s"] <= rec["wall_s"]
    for e, rec in enumerate(recs):
        parts = job.store.load(e).partitions
        assert rec["files_written"] == sum(len(p["files"]) for p in parts.values()) > 0


def test_windowed_branch_sink_needs_window_timestamp_key(tmp_path):
    """A rel branch ending in .window() replaces the event-time column;
    a sink still keyed on it is rejected when the job is built."""

    def graph(**sink_kw):
        Vaero.reset()
        src = Vaero().source("parquet", path="unused")
        src.window(keys=["role"], aggs=[[None, "count", "n"]], size_s=600).sink("s3", **sink_kw)
        return Vaero.start()

    with pytest.raises(ValueError, match=r"timestamp_key 'timestamp'.*window_start"):
        StreamingTransformJob(f"{tmp_path}/in", f"{tmp_path}/out", f"{tmp_path}/ckpt", graph=graph())
    with pytest.raises(ValueError, match=r"timestamp_key 'ts'"):
        StreamingTransformJob(f"{tmp_path}/in", f"{tmp_path}/out", f"{tmp_path}/ckpt", graph=graph(timestamp_key="ts"))
    StreamingTransformJob(
        f"{tmp_path}/in", f"{tmp_path}/out", f"{tmp_path}/ckpt", graph=graph(timestamp_key="window_start")
    )
