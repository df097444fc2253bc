"""StreamingSessionJob: stream == batch parity, fragment-partial state
boundedness (kill-resume: test_epoch_driver.py)."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from vaero_ray.stages.windows import AggSpec, session_aggregate
from vaero_ray.streaming import StreamingSessionJob

AGGS = [
    AggSpec(None, "count", "n_events"),
    AggSpec("ts", "min", "start_ts"),
    AggSpec("ts", "max", "end_ts"),
    AggSpec("value", "sum", "sum_value"),
]


def _make_events(n=4000, n_users=60, seed=5):
    rng = np.random.default_rng(seed)
    base = pd.Timestamp("2026-01-01").value // 1000
    ts_us = base + np.sort(rng.integers(0, 86_400_000_000 * 3, n))
    return pa.table(
        {
            "user_id": pa.array([f"u{int(u)}" for u in rng.integers(0, n_users, n)]),
            "ts": pa.array(ts_us.astype("datetime64[us]")),
            "value": pa.array(rng.integers(1, 100, n).astype("float64")),
        }
    )


def _write_chunks(tbl, d, k=4):
    os.makedirs(d, exist_ok=True)
    n = tbl.num_rows
    t = tbl.take(pc.sort_indices(t_ts := pa.table({"ts": tbl.column("ts")}), sort_keys=[("ts", "ascending")]))
    for i in range(k):
        lo, hi = i * n // k, (i + 1) * n // k
        pq.write_table(t.slice(lo, hi - lo), os.path.join(d, f"chunk-{i:04d}.parquet"))


def _batch_sessions(tbl, gap_s):
    out = session_aggregate(
        rd.from_arrow(tbl), key="user_id", ts_col="ts", gap_s=gap_s, aggs=AGGS
    ).to_pandas()
    return (
        out.drop(columns=["session_id"])
        .sort_values(["user_id", "start_ts"], ignore_index=True)
    )


def _norm(df):
    return df.sort_values(["user_id", "start_ts"], ignore_index=True)[
        ["user_id", "n_events", "start_ts", "end_ts", "sum_value"]
    ]


def test_streaming_sessions_match_batch(ray_session, tmp_path):
    tbl = _make_events()
    ind = str(tmp_path / "in")
    _write_chunks(tbl, ind)
    job = StreamingSessionJob(
        input_dir=ind,
        out_dir=str(tmp_path / "out"),
        ckpt_dir=str(tmp_path / "ckpt"),
        key="user_id",
        aggs=AGGS,
        gap_s=1800,
        num_partitions=4,
    )
    ms = job.run()
    assert ms and ms[-1].watermark_us >= 1 << 62  # finalized
    got = _norm(job.committed_output().to_pandas())
    want = _norm(_batch_sessions(tbl, 1800))
    pd.testing.assert_frame_equal(got, want)
    # late accounting: ts-sorted chunks -> nothing late
    assert sum(m.rows_late for m in ms) == 0
    assert sum(m.rows_in for m in ms) == tbl.num_rows


def test_state_is_fragments_not_events(ray_session, tmp_path):
    """State snapshots hold one partial row per OPEN session fragment,
    not buffered events — the 100-TB boundedness property."""
    tbl = _make_events(n=3000, n_users=10)
    ind = str(tmp_path / "in")
    _write_chunks(tbl, ind)
    job = StreamingSessionJob(
        input_dir=ind,
        out_dir=str(tmp_path / "out"),
        ckpt_dir=str(tmp_path / "ckpt"),
        key="user_id",
        aggs=AGGS,
        gap_s=1800,
        num_partitions=2,
    )
    ms = job.run(max_epochs=2, finalize=False)
    st = ms[-1]
    # 10 users, ~750 events/epoch: raw-event state would be hundreds of
    # rows; fragment state is bounded by open sessions per user
    assert 0 < st.state_rows < 200
    files = st.state_files()
    cols = pq.read_schema(files[0]).names
    assert {"start_us", "end_us", "__n"} <= set(cols)


def test_session_splits_across_gap_boundary_epochs(ray_session, tmp_path):
    """A session spanning two arrival chunks merges across epochs; a
    quiet key's session closes as soon as the watermark passes its end."""
    base = pd.Timestamp("2026-01-01").value // 1000
    rows = [
        ("a", 0), ("a", 60), ("a", 120),        # chunk 1
        ("a", 180), ("b", 200),                  # chunk 2: extends a's session
        ("a", 10_000), ("b", 10_100),            # chunk 3: new sessions (gap 300s)
    ]
    ind = tmp_path / "in"
    ind.mkdir()
    chunks = [rows[:3], rows[3:5], rows[5:]]
    for i, ch in enumerate(chunks):
        t = pa.table(
            {
                "user_id": pa.array([r[0] for r in ch]),
                "ts": pa.array(
                    np.array([base + r[1] * 1_000_000 for r in ch], dtype="datetime64[us]")
                ),
                "value": pa.array([1.0] * len(ch)),
            }
        )
        pq.write_table(t, str(ind / f"chunk-{i:04d}.parquet"))
    job = StreamingSessionJob(
        input_dir=str(ind), out_dir=str(tmp_path / "out"), ckpt_dir=str(tmp_path / "ckpt"),
        key="user_id", aggs=AGGS, gap_s=300, num_partitions=2,
    )
    job.run()
    got = _norm(job.committed_output().to_pandas())
    assert got["n_events"].tolist() == [4, 1, 1, 1]  # a:4 then a:1; b:1, b:1
    assert got.loc[0, "user_id"] == "a" and got.loc[0, "n_events"] == 4


def test_null_key_events_survive_and_merge(ray_session, tmp_path):
    """NULL-keyed events form ONE session group (SQL PARTITION BY
    semantics) instead of being silently dropped and miscounted as late
    (review-caught pandas-dropna regression in the fragmenter)."""
    base = pd.Timestamp("2026-01-01").value // 1000
    ts_us = base + np.arange(10) * 1_000_000  # 1s apart, one session
    keys = pa.array(["a", None, "a", None, "a", None, "a", None, "a", None])
    tbl = pa.table(
        {
            "user_id": keys,
            "ts": pa.array(ts_us.astype("datetime64[us]")),
            "value": pa.array(np.ones(10)),
        }
    )
    ind = str(tmp_path / "in")
    _write_chunks(tbl, ind, k=2)
    job = StreamingSessionJob(
        input_dir=ind, out_dir=str(tmp_path / "out"), ckpt_dir=str(tmp_path / "ck"),
        key="user_id", aggs=AGGS, gap_s=3600, num_partitions=2,
    )
    ms = job.run()
    out = job.committed_output().to_pandas()
    assert int(out["n_events"].sum()) == 10  # nothing dropped
    nulls = out[out["user_id"].isna()]
    assert len(nulls) == 1 and int(nulls["n_events"].iloc[0]) == 5
    assert sum(m.rows_late for m in ms) == 0  # and none miscounted late


def test_finalize_fires_when_drained_in_exactly_max_epochs(ray_session, tmp_path):
    """run(max_epochs=N, finalize=True) on a stream that drains in
    exactly N epochs must still flush open sessions (the finalize epoch
    consumes no input, so it does not count against max_epochs)."""
    tbl = _make_events(n=400, n_users=8)
    ind = str(tmp_path / "in")
    _write_chunks(tbl, ind, k=3)
    job = StreamingSessionJob(
        input_dir=ind, out_dir=str(tmp_path / "out"), ckpt_dir=str(tmp_path / "ck"),
        key="user_id", aggs=AGGS, gap_s=1800, num_partitions=2,
    )
    ms = job.run(max_epochs=3, finalize=True)
    assert len(ms) == 4  # 3 input epochs + the finalize epoch
    got = _norm(
        job.committed_output().to_pandas()
    )
    exp = _norm(_batch_sessions(tbl, 1800))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def _make_intervals(n=3000, n_users=40, seed=13):
    rng = np.random.default_rng(seed)
    base = pd.Timestamp("2026-01-01").value // 1000
    s_us = base + np.sort(rng.integers(0, 86_400_000_000 * 2, n))
    e_us = s_us + rng.integers(0, 3_600_000_000, n)
    return pa.table(
        {
            "user_id": pa.array([f"u{int(u)}" for u in rng.integers(0, n_users, n)]),
            "ts": pa.array(s_us.astype("datetime64[us]")),
            "end_us": pa.array(e_us.astype("int64")),
        }
    )


IAGGS = [
    AggSpec(None, "count", "n_merged"),
    AggSpec("ts", "min", "start_ts"),
    AggSpec("end_us", "max", "end_us"),
]


def test_extent_mode_matches_batch_interval_union(ray_session, tmp_path):
    from vaero_ray.stages.cep import merge_intervals

    tbl = _make_intervals()
    ind = str(tmp_path / "in")
    _write_chunks(tbl, ind)
    job = StreamingSessionJob(
        input_dir=ind, out_dir=str(tmp_path / "out"), ckpt_dir=str(tmp_path / "ck"),
        key="user_id", aggs=IAGGS, ts_col="ts", end_col="end_us", gap_s=0,
        num_partitions=3,
    )
    job.run()
    got = (
        job.committed_output()
        .to_pandas()
        .sort_values(["user_id", "start_ts"], ignore_index=True)
    )

    df = tbl.to_pandas()
    df["s_us"] = df["ts"].astype("int64")
    batch = (
        merge_intervals(rd.from_pandas([df]), "user_id", "s_us", "end_us", num_buckets=3)
        .to_pandas()
        .sort_values(["user_id", "s_us"], ignore_index=True)
    )
    assert np.array_equal(got["n_merged"].to_numpy(), batch["n_merged"].to_numpy())
    assert np.array_equal(got["start_ts"].astype("int64").to_numpy(), batch["s_us"].to_numpy())
    assert np.array_equal(got["end_us"].to_numpy(), batch["end_us"].to_numpy())
    assert list(got["user_id"]) == list(batch["user_id"])


def test_extent_mode_rejects_reversed_extents(ray_session, tmp_path):
    import pytest

    bad = pa.table(
        {
            "user_id": pa.array(["a"]),
            "ts": pa.array(np.array([10_000_000], dtype="datetime64[us]")),
            "end_us": pa.array([5_000_000]),
        }
    )
    ind = str(tmp_path / "in")
    os.makedirs(ind)
    pq.write_table(bad, os.path.join(ind, "chunk-0000.parquet"))
    job = StreamingSessionJob(
        input_dir=ind, out_dir=str(tmp_path / "out"), ckpt_dir=str(tmp_path / "ck"),
        key="user_id", aggs=IAGGS, ts_col="ts", end_col="end_us", gap_s=0,
    )
    with pytest.raises(Exception):
        job.run()


def _by_key(r: dict) -> tuple:
    return r["k"] is None, r["k"] or "", r["start_us"]


def _merge_loop(rows: list, gap_us: int, pcols: dict) -> list:
    """Reference fragment merge, one row at a time: rows sorted by (key,
    start, end) with null keys last chain into the running session
    while ``start - max(end so far) <= gap``; sums skip NaN (none is 0),
    min/max skip NaN (none is NaN)."""
    rows = sorted(rows, key=lambda r: (*_by_key(r), r["end_us"]))
    out = []
    for r in rows:
        if out and out[-1]["k"] == r["k"] and r["start_us"] - out[-1]["end_us"] <= gap_us:
            s = out[-1]
            s["end_us"] = max(s["end_us"], r["end_us"])
            s["__n"] += r["__n"]
            for c, red in pcols.items():
                v = r[c]
                if v == v:
                    s[c] = v if s[c] != s[c] else {"sum": s[c] + v, "min": min(s[c], v), "max": max(s[c], v)}[red]
        else:
            out.append({**r, **{c: (0.0 if r[c] != r[c] else r[c]) for c, red in pcols.items() if red == "sum"}})
    return out


def test_fragment_merge_matches_a_row_loop(tmp_path):
    """The numpy merge (segmented cummax, ``reduceat``) against a plain
    loop over random fragments with null keys, NaN values and
    out-of-order overlap: keys, bounds, counts, ints, min and max equal;
    float sums within float64 rounding (the order of additions may
    differ from a compensated sum)."""
    aggs = [AggSpec(None, "count", "n"), AggSpec("f", "sum", "fs"), AggSpec("f", "min", "fmin"),
            AggSpec("f", "max", "fmax"), AggSpec("i", "sum", "isum"), AggSpec("i", "max", "imax")]
    job = StreamingSessionJob(str(tmp_path / "in"), str(tmp_path / "out"), str(tmp_path / "ckpt"), key="k",
                              aggs=aggs, gap_s=60)
    pcols = {"__p_fs": "sum", "__p_fmin": "min", "__p_fmax": "max", "__p_isum": "sum", "__p_imax": "max"}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        start = rng.integers(0, 3600, n) * 1_000_000
        f = rng.normal(size=n) * 10.0 ** rng.integers(-2, 4, n)
        f[rng.random(n) < 0.1] = np.nan
        tbl = pa.table({
            "k": [None if rng.random() < 0.1 else f"u{u}" for u in rng.integers(0, 5, n)],
            "start_us": start, "end_us": start + rng.integers(0, 300, n) * 1_000_000,
            "__n": rng.integers(1, 5, n), "__p_fs": f, "__p_fmin": f, "__p_fmax": f,
            "__p_isum": rng.integers(-100, 100, n), "__p_imax": rng.integers(-100, 100, n),
        })
        got = job._merge_fragments(tbl, set()).to_pylist()
        want = _merge_loop(tbl.to_pylist(), 60 * 1_000_000, pcols)
        got, want = sorted(got, key=_by_key), sorted(want, key=_by_key)
        exact = ["k", "start_us", "end_us", "__n", "__p_fmin", "__p_fmax", "__p_isum", "__p_imax"]

        def cells(rs):
            return [["nan" if r[c] != r[c] else r[c] for c in exact] for r in rs]

        assert cells(got) == cells(want)
        np.testing.assert_allclose([r["__p_fs"] for r in got], [r["__p_fs"] for r in want], rtol=1e-12, atol=1e-9)


def test_a_timestamp_min_skips_nulls(ray_session, tmp_path):
    """A session's min over a timestamp column skips null times, as its
    max does and as a numeric min does; a session whose times are all
    null gets null for both."""
    base = pd.Timestamp("2026-01-01").value // 1000
    sec = 1_000_000
    t2 = pa.array([5 * sec, None, 7 * sec, None], pa.int64()).cast(pa.timestamp("us"))
    tbl = pa.table({
        "user_id": ["a", "a", "a", "b"],
        "ts": pa.array(base + np.array([0, 1, 2, 3]) * sec).cast(pa.timestamp("us")),
        "t2": t2,
    })
    ind = str(tmp_path / "in")
    _write_chunks(tbl, ind, k=2)
    job = StreamingSessionJob(
        input_dir=ind, out_dir=str(tmp_path / "out"), ckpt_dir=str(tmp_path / "ck"), key="user_id",
        aggs=[AggSpec("t2", "min", "t2min"), AggSpec("t2", "max", "t2max")], gap_s=3600, num_partitions=2,
    )
    job.run()
    out = pa.concat_tables(pq.read_table(f) for f in job.store.committed_output_files())
    got = sorted(out.select(["user_id", "t2min", "t2max"]).to_pylist(), key=lambda r: r["user_id"])
    as_ts = t2.to_pylist()
    assert got == [
        {"user_id": "a", "t2min": as_ts[0], "t2max": as_ts[2]},
        {"user_id": "b", "t2min": None, "t2max": None},
    ]
