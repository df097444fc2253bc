"""Streaming stateful turn-stitch join: parity with the batch stitch,
late handling (kill-resume: test_epoch_driver.py)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from vaero_ray.sources.transcripts import make_transcripts
from vaero_ray.stages.stitch import stitch_conversations
from vaero_ray.streaming import StreamingStitchJob


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    d = tmp_path_factory.mktemp("sstream")
    tbl = make_transcripts(n_convs=70, mean_turns=12, seed=23, disorder_frac=0.1)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("ts", "ascending")]))
    n = tbl.num_rows
    for i in range(4):
        lo, hi = i * n // 4, (i + 1) * n // 4
        pq.write_table(tbl.slice(lo, hi - lo), str(d / f"chunk-{i:04d}.parquet"))
    return str(d), tbl


def _job(stream_d, base) -> StreamingStitchJob:
    return StreamingStitchJob(
        input_dir=stream_d,
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        gap_s=1800,
        allowed_lateness_s=60,
        num_partitions=4,
    )


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["conv_id", "first_ts"], ignore_index=True)[sorted(df.columns)]


def test_streaming_stitch_matches_batch(stream, tmp_path, ray_session):
    stream_d, tbl = stream
    job = _job(stream_d, str(tmp_path))
    ms = job.run()
    assert ms[-1].watermark_us >= 1 << 62
    assert sum(m.rows_late for m in ms) == 0  # arrival-sorted + lateness margin

    got = _norm(job.committed_output().to_pandas())
    want = _norm(stitch_conversations(rd.from_arrow(tbl)).to_pandas())
    pd.testing.assert_frame_equal(want, got, check_dtype=False)
    # convs complete INCREMENTALLY, not all at finalize (watermark works)
    assert sum(m.rows_out for m in ms[:-1]) > 0


def test_pluggable_session_emitter(stream, tmp_path, ray_session):
    """StreamingStitchJob(emitter=...) reuses the buffer/close/commit
    machinery for session AGGREGATES instead of stitched text."""

    def session_stats(closed: pa.Table) -> pa.Table:
        df = closed.to_pandas()
        g = df.groupby("conv_id", sort=False)
        out = pd.DataFrame(
            {
                "n_turns": g.size().astype("int64"),
                "start_ts": g["ts"].min().astype("datetime64[us]"),
                "end_ts": g["ts"].max().astype("datetime64[us]"),
            }
        )
        out.index.name = "conv_id"
        return pa.Table.from_pandas(out.reset_index(), preserve_index=False)

    stream_d, tbl = stream
    job = StreamingStitchJob(
        input_dir=stream_d, out_dir=f"{tmp_path}/out", ckpt_dir=f"{tmp_path}/ckpt",
        gap_s=1800, allowed_lateness_s=60, num_partitions=4, emitter=session_stats,
    )
    job.run()
    out = job.committed_output().to_pandas()
    n_convs = tbl.to_pandas()["conv_id"].nunique()
    assert len(out) == n_convs
    assert int(out["n_turns"].sum()) == tbl.num_rows
