"""Streaming ordered per-key fold (EWMA): batch parity under cross-epoch
out-of-order arrival, late-drop accounting (kill-resume:
test_epoch_driver.py)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vaero_ray.streaming.fold_job import StreamingFoldJob


def _ewma_ref(df: pd.DataFrame, a=30, d=100) -> pd.DataFrame:
    rows = []
    for k, g in df.sort_values(["ts", "tie"]).groupby("k"):
        e = None
        for v in g["v"]:
            e = int(v) if e is None else (a * int(v) + (d - a) * e) // d
        rows.append({"k": k, "n_events": len(g), "ewma": e})
    return pd.DataFrame(rows).sort_values("k", ignore_index=True)


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    """4 arrival chunks whose rows are out of EVENT-time order across
    chunk boundaries by up to 500 s (inside the 600 s lateness margin):
    chunks are cut on ts + U(0, 500 s) arrival jitter while the fold must
    follow true ts order — only the watermark buffer makes them agree."""
    d = tmp_path_factory.mktemp("fstream")
    rng = np.random.default_rng(17)
    n = 2000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 21, n).astype("int64"),
            "ts_us": rng.integers(0, 4 * 3600, n).astype("int64") * 1_000_000,
            "tie": np.arange(n, dtype="int64"),
            "v": rng.integers(0, 10_000, n).astype("int64"),
        }
    )
    arrival = df["ts_us"] + rng.integers(0, 500 * 1_000_000, n)
    df = df.iloc[np.argsort(arrival, kind="stable")].reset_index(drop=True)
    for i in range(4):
        lo, hi = i * n // 4, (i + 1) * n // 4
        c = df.iloc[lo:hi]
        pq.write_table(
            pa.table(
                {
                    "k": pa.array(c["k"]),
                    "ts": pa.array(c["ts_us"]).cast(pa.timestamp("us")),
                    "tie": pa.array(c["tie"]),
                    "v": pa.array(c["v"]),
                }
            ),
            str(d / f"chunk-{i:04d}.parquet"),
        )
    df["ts"] = df["ts_us"]
    return str(d), df


def _job(stream_d, base) -> StreamingFoldJob:
    return StreamingFoldJob(
        input_dir=stream_d,
        out_dir=f"{base}/out",
        ckpt_dir=f"{base}/ckpt",
        key_col="k",
        ts_col="ts",
        tie_col="tie",
        val_col="v",
        out_val="ewma",
        allowed_lateness_s=600,
        num_partitions=4,
    )


def test_fold_matches_batch_under_disorder(stream, tmp_path, ray_session):
    stream_d, df = stream
    # state restores by the manifest's partition keys, whatever directory
    # names ("buf", "fold") the checkpoint path holds
    job = _job(stream_d, str(tmp_path / "buf" / "fold"))
    ms = job.run()
    assert ms[-1].watermark_us >= 1 << 62
    assert sum(m.rows_late for m in ms) == 0  # jitter < lateness margin
    # real cross-epoch state: events buffered AND accumulators carried
    assert any(m.state_rows > 0 for m in ms[:-1])

    got = (
        job.committed_output()
        .to_pandas()
        .sort_values("k", ignore_index=True)[["k", "n_events", "ewma"]]
    )
    pd.testing.assert_frame_equal(_ewma_ref(df), got, check_dtype=False)


def _chunked_job(tmp_path, *chunks) -> StreamingFoldJob:
    """A fold job (no lateness margin) over one file per chunk of
    ``(k, ts seconds or None, tie, v)`` rows."""
    d = tmp_path / "in"
    d.mkdir()
    for i, rows in enumerate(chunks):
        k, ts, tie, v = zip(*rows)
        tbl = pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "ts": pa.array([None if t is None else t * 1_000_000 for t in ts], pa.int64()).cast(pa.timestamp("us")),
                "tie": pa.array(tie, pa.int64()),
                "v": pa.array(v, pa.int64()),
            }
        )
        pq.write_table(tbl, str(d / f"c{i}.parquet"))
    return StreamingFoldJob(
        input_dir=str(d),
        out_dir=f"{tmp_path}/out",
        ckpt_dir=f"{tmp_path}/ckpt",
        key_col="k",
        ts_col="ts",
        tie_col="tie",
        val_col="v",
        out_val="ewma",
        allowed_lateness_s=0,
        num_partitions=2,
    )


def test_fold_drops_late_rows(tmp_path, ray_session):
    job = _chunked_job(
        tmp_path,
        [(1, 10_000, 0, 100), (1, 10_001, 1, 200)],
        # second chunk: one on-time row + one hours-late row (ts << wm)
        [(1, 10_002, 2, 300), (1, 5, 3, 999)],
    )
    ms = job.run()
    assert sum(m.rows_late for m in ms) == 1
    out = job.committed_output().to_pandas()
    ref = _ewma_ref(
        pd.DataFrame({"k": [1, 1, 1], "ts": [1, 2, 3], "tie": [0, 1, 2], "v": [100, 200, 300]})
    )
    assert out.iloc[0]["ewma"] == ref.iloc[0]["ewma"] and out.iloc[0]["n_events"] == 3


def test_fold_counts_a_null_event_time_late(tmp_path, ray_session):
    """A null event time is late, as the stitch, session and join jobs
    count it; the stream goes on past it."""
    job = _chunked_job(tmp_path, [(1, 10_000, 0, 100), (1, None, 1, 555), (2, 10_001, 2, 7)], [(1, 10_002, 3, 300)])
    ms = job.run()
    assert len(ms) == 3
    assert [m.rows_late for m in ms] == [1, 0, 0]
    out = job.committed_output().to_pandas().sort_values("k", ignore_index=True)
    assert out[["k", "n_events", "ewma"]].values.tolist() == [[1, 2, (30 * 300 + 70 * 100) // 100], [2, 1, 7]]


def test_fold_carries_an_accumulator_above_2_pow_53_exactly(tmp_path, ray_session):
    """A carried key and a new key fold in the same epoch and reduce
    task: the carried accumulator keeps every bit (no float64 seed)."""
    import ray.data as rd

    from vaero_ray.stages.cep import ordered_ewma

    big = (1 << 53) + 1
    rows = [[(1, 10_000, 0, big)], [(1, 10_001, 1, big), (2, 10_001, 2, 5)]]
    job = _chunked_job(tmp_path, *rows)
    job.num_partitions = 1
    job.run()
    got = job.committed_output().to_pandas().sort_values("k", ignore_index=True)
    events = pd.DataFrame([r for chunk in rows for r in chunk], columns=["k", "ts", "tie", "v"])
    want = ordered_ewma(rd.from_pandas(events), "k", "ts", "v", "tie").to_pandas().sort_values("k", ignore_index=True)
    assert got[["k", "n_events", "ewma"]].values.tolist() == want[["k", "n_events", "ewma"]].values.tolist()
    assert got["ewma"].tolist()[0] == big
