"""StreamingSessionJob: stream == batch parity, fragment-partial state
boundedness (kill-resume: test_epoch_driver.py)."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from vaero_ray.stages.windows import AggSpec, session_aggregate
from vaero_ray.streaming import CheckpointStore, StreamingSessionJob

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
    )
    ms = job.run(max_epochs=2, finalize=False)
    st = ms[-1]
    # 10 users, ~750 events/epoch: raw-event state would be hundreds of
    # rows; fragment state is bounded by open sessions per user
    assert 0 < st.state_rows < 200
    files = st.state_files()
    cols = pq.read_schema(files[0]).names
    # the fragment's bounds and the window partials of AGGS
    assert sorted(cols) == ["__end_max", "__pcount", "__start_min", "ts_max", "ts_min", "user_id", "value_sum"]


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
        key="user_id", aggs=AGGS, gap_s=300,
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
        key="user_id", aggs=AGGS, gap_s=3600,
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
        key="user_id", aggs=AGGS, gap_s=1800,
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
    return r["k"] is None, r["k"] or "", r["__start_min"]


def _merge_loop(rows: list, gap_us: int) -> list:
    """Reference session merge, one row at a time: rows sorted by (key,
    start, end) with null keys last chain into the running session
    while ``start - max(end so far) <= gap``; a sum, min or max skips
    NaN, and one over no value is None."""
    out = []
    for r in sorted(rows, key=lambda r: (r["k"] is None, r["k"] or "", r["s"], r["e"])):
        if out and out[-1]["k"] == r["k"] and r["s"] - out[-1]["__end_max"] <= gap_us:
            s = out[-1]
        else:
            s = {"k": r["k"], "__start_min": r["s"], "__end_max": r["e"], "__pcount": 0, "f": [], "i": []}
            out.append(s)
        s["__end_max"] = max(s["__end_max"], r["e"])
        s["__pcount"] += 1
        s["f"] += [r["f"]] if r["f"] == r["f"] else []
        s["i"].append(r["i"])
    for s in out:
        f, i = s.pop("f"), s.pop("i")
        s.update(f_sum=sum(f) if f else None, f_min=min(f, default=None), f_max=max(f, default=None))
        s.update(i_sum=sum(i), i_max=max(i))
    return out


def test_fragment_merge_matches_a_row_loop(tmp_path):
    """Fragments per file (``_fragments``) and their merge (segmented
    cummax, window partial kernels) against a plain loop over random
    extents with null keys, NaN values and out-of-order overlap across
    files: keys, bounds, counts, ints, min and max equal; float sums
    within float64 rounding (the order of additions may differ)."""
    aggs = [AggSpec(None, "count", "n"), AggSpec("f", "sum", "fs"), AggSpec("f", "min", "fmin"),
            AggSpec("f", "max", "fmax"), AggSpec("i", "sum", "isum"), AggSpec("i", "max", "imax")]
    job = StreamingSessionJob(str(tmp_path / "in"), str(tmp_path / "out"), str(tmp_path / "ckpt"), key="k",
                              aggs=aggs, ts_col="s", end_col="e", gap_s=60)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        start = rng.integers(0, 3600, n) * 1_000_000
        f = rng.normal(size=n) * 10.0 ** rng.integers(-2, 4, n)
        f[rng.random(n) < 0.1] = np.nan
        f[rng.integers(0, n)] = np.nan
        tbl = pa.table({
            "k": [None if rng.random() < 0.1 else f"u{u}" for u in rng.integers(0, 5, n)],
            "s": start, "e": start + rng.integers(0, 300, n) * 1_000_000,
            "f": f, "i": rng.integers(-100, 100, n),
        })
        cuts = np.r_[0, np.sort(rng.integers(0, n + 1, 2)), n]
        frags = pa.concat_tables([job._fragments(tbl.slice(lo, hi - lo)) for lo, hi in zip(cuts[:-1], cuts[1:])])
        got = sorted(job._merge_fragments(frags).to_pylist(), key=_by_key)
        want = sorted(_merge_loop(tbl.to_pylist(), 60 * 1_000_000), key=_by_key)
        exact = ["k", "__start_min", "__end_max", "__pcount", "f_min", "f_max", "i_sum", "i_max"]
        assert [[r[c] for c in exact] for r in got] == [[r[c] for c in exact] for r in want]
        assert [r["f_sum"] is None for r in got] == [r["f_sum"] is None for r in want]
        np.testing.assert_allclose(
            [r["f_sum"] for r in got if r["f_sum"] is not None],
            [r["f_sum"] for r in want if r["f_sum"] is not None],
            rtol=1e-12, atol=1e-9,
        )


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
        aggs=[AggSpec("t2", "min", "t2min"), AggSpec("t2", "max", "t2max")], gap_s=3600,
    )
    job.run()
    out = pa.concat_tables(pq.read_table(f) for f in job.store.committed_output_files())
    got = sorted(out.select(["user_id", "t2min", "t2max"]).to_pylist(), key=lambda r: r["user_id"])
    as_ts = t2.to_pylist()
    assert got == [
        {"user_id": "a", "t2min": as_ts[0], "t2max": as_ts[2]},
        {"user_id": "b", "t2min": None, "t2max": None},
    ]


def _strip_slice_mark(ckpt_dir: str) -> None:
    """Make the last manifest look as an older version wrote it: without
    the ``extra["state"]`` mark of slice state."""
    store = CheckpointStore(ckpt_dir)
    path = store._mpath(store.committed_epochs()[-1])
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["extra"].pop("state") == "slices"
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_all_nan_session_commits_null_sum_and_mean(ray_session, tmp_path):
    """A NaN is a null, as in the window partials: a session whose values
    are all NaN gets a null sum, min, max and mean (an older version
    committed sum 0.0 and mean 0.0), and a NaN among values is skipped by
    all four, the mean's divisor too. The batch sessions agree."""
    base = pd.Timestamp("2026-01-01").value // 1000
    tbl = pa.table({
        "user_id": ["a", "a", "b", "b"],
        "ts": pa.array(base + np.array([0, 1, 2, 3]) * 1_000_000).cast(pa.timestamp("us")),
        "value": [np.nan, np.nan, np.nan, 4.0],
    })
    ind = str(tmp_path / "in")
    _write_chunks(tbl, ind, k=2)
    aggs = [AggSpec("value", "sum", "s"), AggSpec("value", "mean", "m"), AggSpec("value", "min", "lo"),
            AggSpec("value", "max", "hi")]
    job = StreamingSessionJob(ind, str(tmp_path / "out"), str(tmp_path / "ck"), key="user_id", aggs=aggs, gap_s=3600)
    job.run()
    out = pa.concat_tables(pq.read_table(f) for f in job.store.committed_output_files()).sort_by("user_id")
    assert out.to_pylist() == [
        {"user_id": "a", "s": None, "m": None, "lo": None, "hi": None},
        {"user_id": "b", "s": 4.0, "m": 4.0, "lo": 4.0, "hi": 4.0},
    ]
    batch = session_aggregate(rd.from_arrow(tbl), key="user_id", gap_s=3600, aggs=aggs).to_pandas()
    pd.testing.assert_frame_equal(
        batch.sort_values("user_id", ignore_index=True)[["user_id", "s", "m", "lo", "hi"]],
        out.to_pandas()[["user_id", "s", "m", "lo", "hi"]],
    )


def test_extent_without_an_end_is_late(ray_session, tmp_path):
    """An extent with a null end is dropped and counted late, as a null
    event time is; it neither fails the epoch nor chains the others."""
    sec = 1_000_000
    tbl = pa.table({
        "user_id": ["a", "a", "a"],
        "ts": pa.array(np.array([0, 10, 20]) * sec).cast(pa.timestamp("us")),
        "end_us": pa.array([5 * sec, None, 25 * sec], pa.int64()),
    })
    ind = str(tmp_path / "in")
    os.makedirs(ind)
    pq.write_table(tbl, os.path.join(ind, "chunk-0000.parquet"))
    job = StreamingSessionJob(
        ind, str(tmp_path / "out"), str(tmp_path / "ck"), key="user_id", aggs=IAGGS, end_col="end_us", gap_s=0,
    )
    ms = job.run()
    assert sum(m.rows_late for m in ms) == 1
    out = pa.concat_tables(pq.read_table(f) for f in job.store.committed_output_files()).sort_by("end_us")
    assert out.select(["n_merged", "end_us"]).to_pylist() == [
        {"n_merged": 1, "end_us": 5 * sec}, {"n_merged": 1, "end_us": 25 * sec},
    ]


def test_session_state_of_an_older_layout_is_rejected(ray_session, tmp_path):
    """Carried state whose manifest lacks the slice mark holds an older
    version's ``__n``/``__p_*`` fragments: the next epoch fails naming
    its state file, and commits nothing."""
    import pytest

    tbl = _make_events(n=400, n_users=8)
    ind = str(tmp_path / "in")
    _write_chunks(tbl, ind, k=2)
    def job():
        return StreamingSessionJob(ind, str(tmp_path / "out"), str(tmp_path / "ck"), key="user_id", aggs=AGGS)

    m = job().run_epoch()
    assert m.state_rows > 0 and m.extra["state"] == "slices"
    _strip_slice_mark(str(tmp_path / "ck"))
    resumed = job()
    with pytest.raises(ValueError, match=f"{m.state_files()[0]}: session state in the __n/__p_"):
        resumed.run_epoch()
    assert resumed.store.committed_epochs() == [0]
