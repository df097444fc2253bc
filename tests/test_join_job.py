"""Stream-stream windowed join (StreamingJoinJob): exact parity with the
batch interval join, cross-epoch buffering, per-side watermarks, late
drops (kill-resume: test_epoch_driver.py)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd


def _mk_streams(tmp_path, n_epochs=4, per_epoch=300, seed=7):
    """Left/right streams over shared keys; right rows deliberately match
    left rows from EARLIER epochs (within 600 s) so pairs span epochs."""
    rng = np.random.default_rng(seed)
    ld, rdir = tmp_path / "L", tmp_path / "R"
    ld.mkdir(), rdir.mkdir()
    lrows, rrows = [], []
    t = 0
    for e in range(n_epochs):
        lt = np.sort(t + rng.integers(0, 1000, per_epoch))
        rt = np.sort(t + rng.integers(0, 1000, per_epoch))
        lrows.append(
            pd.DataFrame(
                {
                    "k": rng.integers(0, 40, per_epoch).astype(np.int64),
                    "ts": pd.to_datetime(lt, unit="s").astype("datetime64[us]"),
                    "view_id": (e * per_epoch + np.arange(per_epoch)).astype(np.int64),
                }
            )
        )
        rrows.append(
            pd.DataFrame(
                {
                    "k": rng.integers(0, 40, per_epoch).astype(np.int64),
                    "ts": pd.to_datetime(rt, unit="s").astype("datetime64[us]"),
                    "buy_id": (e * per_epoch + np.arange(per_epoch)).astype(np.int64),
                    "amount": rng.integers(1, 500, per_epoch).astype(np.int64),
                }
            )
        )
        t += 1000
    for i, df in enumerate(lrows):
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), str(ld / f"c{i:03d}.parquet"))
    for i, df in enumerate(rrows):
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), str(rdir / f"c{i:03d}.parquet"))
    return str(ld), str(rdir), pd.concat(lrows, ignore_index=True), pd.concat(rrows, ignore_index=True)


def _expected(lall, rall, within_s):
    m = lall.merge(rall, on="k", suffixes=("_l", "_r"))
    d = (m["ts_r"] - m["ts_l"]).dt.total_seconds()
    m = m[(d >= 0) & (d <= within_s)]
    return (
        pd.DataFrame(
            {
                "k": m["k"],
                "ts_l": m["ts_l"],
                "ts_r": m["ts_r"],
                "view_id": m["view_id"],
                "buy_id": m["buy_id"],
                "amount": m["amount"],
            }
        )
        .sort_values(["k", "ts_l", "ts_r", "view_id", "buy_id"], ignore_index=True)
    )


def _canon(df):
    return df.sort_values(["k", "ts_l", "ts_r", "view_id", "buy_id"], ignore_index=True)[
        ["k", "ts_l", "ts_r", "view_id", "buy_id", "amount"]
    ]


def _job(ld, rdir, tmp_path, sub, **kw):
    from vaero_ray.streaming.join_job import StreamingJoinJob

    return StreamingJoinJob(
        left_dir=ld,
        right_dir=rdir,
        out_dir=str(tmp_path / sub / "out"),
        ckpt_dir=str(tmp_path / sub / "ckpt"),
        key="k",
        within_s=600,
        left_cols=["view_id"],
        right_cols=["buy_id", "amount"],
        num_partitions=3,
        **kw,
    )


def test_stream_stream_join_matches_batch(ray_session, tmp_path):
    ld, rdir, lall, rall = _mk_streams(tmp_path)
    job = _job(ld, rdir, tmp_path, "a")
    ms = job.run()
    assert len(ms) >= 4
    got = _canon(job.committed_output().to_pandas())
    exp = _expected(lall, rall, 600)
    pd.testing.assert_frame_equal(got, exp)
    # cross-epoch pairs exist (right row matching an earlier epoch's left)
    assert (exp["buy_id"] // 300 > exp["view_id"] // 300).any()
    # dtypes survived the padded union (int64, not float64)
    assert got["view_id"].dtype == np.int64 and got["amount"].dtype == np.int64
    assert job.store.metrics_summary()["rows_late"] == 0


def test_stream_stream_join_resume_equals_oneshot(ray_session, tmp_path):
    ld, rdir, lall, rall = _mk_streams(tmp_path, seed=11)
    one = _job(ld, rdir, tmp_path, "one")
    one.run()
    two = _job(ld, rdir, tmp_path, "two")
    two.run(max_epochs=2, finalize=False)
    # fresh object, same checkpoint dir — resumes from the manifests
    two_b = _job(ld, rdir, tmp_path, "two")
    two_b.run()
    a = _canon(one.committed_output().to_pandas())
    b = _canon(two_b.committed_output().to_pandas())
    pd.testing.assert_frame_equal(a, b)


def test_stream_stream_join_drops_late(ray_session, tmp_path):
    # right stream redelivers epoch-0 rows in the LAST epoch: by then the
    # global watermark passed them -> late-dropped, no duplicate pairs
    ld, rdir, lall, rall = _mk_streams(tmp_path, seed=3)
    first = pq.read_table(f"{rdir}/c000.parquet")
    pq.write_table(first, f"{rdir}/c999.parquet")
    job = _job(ld, rdir, tmp_path, "late")
    job.run()
    got = _canon(job.committed_output().to_pandas())
    exp = _expected(lall, rall, 600)  # originals only — replays add nothing
    pd.testing.assert_frame_equal(got, exp)
    assert job.store.metrics_summary()["rows_late"] == len(first)


def test_stream_stream_left_outer_matches_batch(ray_session, tmp_path):
    from vaero_ray.streaming.join_job import StreamingJoinJob

    ld, rdir, lall, rall = _mk_streams(tmp_path, seed=19)
    job = StreamingJoinJob(
        left_dir=ld,
        right_dir=rdir,
        out_dir=str(tmp_path / "o" / "out"),
        ckpt_dir=str(tmp_path / "o" / "ckpt"),
        key="k",
        within_s=600,
        left_cols=["view_id"],
        right_cols=["buy_id", "amount"],
        num_partitions=3,
        join_type="left_outer",
        left_id_col="view_id",
    )
    job.run()
    got = (
        job.committed_output()
        .to_pandas()
        .sort_values(["k", "ts_l", "view_id", "ts_r", "buy_id"], ignore_index=True)[
            ["k", "ts_l", "ts_r", "view_id", "buy_id", "amount"]
        ]
    )
    m = lall.merge(rall, on="k", suffixes=("_l", "_r"), how="left")
    d = (m["ts_r"] - m["ts_l"]).dt.total_seconds()
    inner = m[(d >= 0) & (d <= 600)]
    unmatched = lall[~lall["view_id"].isin(inner["view_id"])]
    exp = pd.concat(
        [
            pd.DataFrame(
                {
                    "k": inner["k"], "ts_l": inner["ts_l"], "ts_r": inner["ts_r"],
                    "view_id": inner["view_id"], "buy_id": inner["buy_id"],
                    "amount": inner["amount"],
                }
            ),
            pd.DataFrame(
                {
                    "k": unmatched["k"], "ts_l": unmatched["ts"],
                    "ts_r": pd.NaT, "view_id": unmatched["view_id"],
                    "buy_id": pd.NA, "amount": pd.NA,
                }
            ),
        ],
        ignore_index=True,
    ).sort_values(["k", "ts_l", "view_id", "ts_r", "buy_id"], ignore_index=True)
    assert len(got) == len(exp)
    assert got["view_id"].tolist() == exp["view_id"].tolist()
    # every left row appears; matched rows carry their pairs, unmatched
    # exactly one null-right row
    gm = got[got["buy_id"].notna()]
    ge = got[got["buy_id"].isna()]
    assert sorted(ge["view_id"].tolist()) == sorted(unmatched["view_id"].tolist())
    assert gm["buy_id"].astype("int64").tolist() == exp[exp["buy_id"].notna()]["buy_id"].astype("int64").tolist()
    # a left row matched only by a LATER epoch's right must NOT be in the
    # outer set — cross-epoch matches exist in this fixture
    cross = inner[inner["buy_id"] // 300 > inner["view_id"] // 300]["view_id"]
    assert len(cross) and not ge["view_id"].isin(cross).any()


def test_stream_stream_join_hot_key_chunked(ray_session, tmp_path, monkeypatch):
    """A single celebrity key (every row shares it) still produces the
    exact pair set: the sorted interval match builds only the pairs
    inside the window, never the key's full product."""
    n = 4000
    ld, rdir = tmp_path / "HL", tmp_path / "HR"
    ld.mkdir(), rdir.mkdir()
    rng = np.random.default_rng(41)
    lt = np.sort(rng.integers(0, 5000, n))
    rt = np.sort(rng.integers(0, 5000, n))
    ldf = pd.DataFrame(
        {"k": np.zeros(n, np.int64),
         "ts": pd.to_datetime(lt, unit="s").astype("datetime64[us]"),
         "view_id": np.arange(n, dtype=np.int64)}
    )
    rdf = pd.DataFrame(
        {"k": np.zeros(n, np.int64),
         "ts": pd.to_datetime(rt, unit="s").astype("datetime64[us]"),
         "buy_id": np.arange(n, dtype=np.int64),
         "amount": np.ones(n, np.int64)}
    )
    pq.write_table(pa.Table.from_pandas(ldf, preserve_index=False), str(ld / "c0.parquet"))
    pq.write_table(pa.Table.from_pandas(rdf, preserve_index=False), str(rdir / "c0.parquet"))
    from vaero_ray.streaming import join_job as jj

    job = jj.StreamingJoinJob(
        left_dir=str(ld), right_dir=str(rdir),
        out_dir=str(tmp_path / "hot" / "out"), ckpt_dir=str(tmp_path / "hot" / "ckpt"),
        key="k", within_s=600, left_cols=["view_id"], right_cols=["buy_id", "amount"],
        num_partitions=2,
    )
    job.run()
    got = _canon(job.committed_output().to_pandas())
    exp = _expected(ldf, rdf, 600)
    # 4000x4000 = 16M same-key candidates, of which few fall in the window
    pd.testing.assert_frame_equal(got, exp)


def test_left_outer_tracks_a_left_row_by_key_and_id(ray_session, tmp_path):
    """Two left rows share a ``left_id_col`` value under different keys in
    one reduce task: the match of one does not mark the other matched."""
    ts = pa.timestamp("us")
    for side, tbl in (
        ("L", pa.table({"k": [1, 2], "ts": pa.array([0, 0], ts), "view_id": [7, 7]})),
        ("R", pa.table({"k": [1], "ts": pa.array([60_000_000], ts), "buy_id": [1], "amount": [5]})),
    ):
        (tmp_path / side).mkdir()
        pq.write_table(tbl, str(tmp_path / side / "chunk-0000.parquet"))
    job = _job(str(tmp_path / "L"), str(tmp_path / "R"), tmp_path, "o", join_type="left_outer", left_id_col="view_id")
    job.num_partitions = 1
    job.run()
    got = job.committed_output().to_pandas().sort_values("k", ignore_index=True)
    assert got["k"].tolist() == [1, 2]
    assert got["buy_id"].tolist()[0] == 1 and pd.isna(got["buy_id"].tolist()[1])


def _write_sides(tmp_path, left: pa.Table, right: pa.Table) -> None:
    for side, tbl in (("L", left), ("R", right)):
        (tmp_path / side).mkdir()
        pq.write_table(tbl, str(tmp_path / side / "chunk-0000.parquet"))


def test_null_integer_payloads_keep_their_type(ray_session, tmp_path):
    """A null in an integer payload column, on either side, is carried
    through: the stream completes and the column stays int64."""
    ts = pa.timestamp("us")
    _write_sides(
        tmp_path,
        pa.table({"k": [1, 1], "ts": pa.array([0, 1_000_000], ts), "view_id": pa.array([10, None], pa.int64())}),
        pa.table({
            "k": [1, 1], "ts": pa.array([2_000_000, 3_000_000], ts),
            "buy_id": pa.array([None, 21], pa.int64()), "amount": pa.array([5, None], pa.int64()),
        }),
    )
    job = _job(str(tmp_path / "L"), str(tmp_path / "R"), tmp_path, "o")
    job.run()
    got = pa.concat_tables(pq.read_table(f) for f in job.store.committed_output_files())
    for c in ("k", "view_id", "buy_id", "amount"):
        assert got.schema.field(c).type == pa.int64(), c
    rows = sorted((r["view_id"] or 0, r["buy_id"] or 0, r["amount"]) for r in got.to_pylist())
    assert rows == [(0, 0, 5), (0, 21, None), (10, 0, 5), (10, 21, None)]


def test_null_keys_never_match(ray_session, tmp_path):
    """A null key equals nothing (SQL ``=``): a null-key view and a
    null-key purchase make no pair. In a left-outer join the null-key
    view is emitted once, with a null right side, when it is evicted."""
    ts = pa.timestamp("us")
    _write_sides(
        tmp_path,
        pa.table({"k": pa.array([None, 1], pa.int64()), "ts": pa.array([0, 0], ts), "view_id": [1, 2]}),
        pa.table({
            "k": pa.array([None, 1], pa.int64()), "ts": pa.array([60_000_000] * 2, ts), "buy_id": [7, 8],
            "amount": [5, 6],
        }),
    )
    inner = _job(str(tmp_path / "L"), str(tmp_path / "R"), tmp_path, "i")
    inner.run()
    got = pa.concat_tables(pq.read_table(f) for f in inner.store.committed_output_files())
    assert got.schema.field("k").type == pa.int64()
    assert got.select(["k", "view_id", "buy_id"]).to_pylist() == [{"k": 1, "view_id": 2, "buy_id": 8}]

    outer = _job(str(tmp_path / "L"), str(tmp_path / "R"), tmp_path, "o", join_type="left_outer",
                 left_id_col="view_id")
    outer.run()
    got = pa.concat_tables(pq.read_table(f) for f in outer.store.committed_output_files())
    assert sorted(got.select(["k", "view_id", "buy_id", "ts_r"]).to_pylist(), key=lambda r: r["view_id"]) == [
        {"k": None, "view_id": 1, "buy_id": None, "ts_r": None},
        {"k": 1, "view_id": 2, "buy_id": 8, "ts_r": got.column("ts_r").drop_null()[0].as_py()},
    ]


def test_a_null_key_moves_no_other_key_to_another_task(ray_session, tmp_path, monkeypatch):
    """With one map task per file and one reduce task per bucket, key 1
    reaches the same reduce task from a left file that also holds a null
    key as from a right file that holds none, so the pair is made."""
    from vaero_ray.streaming import step

    monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", -1)
    ts = pa.timestamp("us")
    _write_sides(
        tmp_path,
        pa.table({"k": pa.array([None, 1, 2, 3], pa.int64()), "ts": pa.array([0] * 4, ts), "view_id": [1, 2, 3, 4]}),
        pa.table({"k": [1, 2, 3], "ts": pa.array([60_000_000] * 3, ts), "buy_id": [7, 8, 9], "amount": [5, 6, 7]}),
    )
    job = _job(str(tmp_path / "L"), str(tmp_path / "R"), tmp_path, "o")
    job.run()
    got = pa.concat_tables(pq.read_table(f) for f in job.store.committed_output_files())
    assert sorted(got.select(["k", "view_id", "buy_id"]).to_pylist(), key=lambda r: r["k"]) == [
        {"k": 1, "view_id": 2, "buy_id": 7},
        {"k": 2, "view_id": 3, "buy_id": 8},
        {"k": 3, "view_id": 4, "buy_id": 9},
    ]


def test_interval_pairs_match_a_nested_loop():
    """The sorted interval match against a plain double loop over random
    rows with shared, null (-1) and colliding keys and tied times."""
    from vaero_ray.streaming.join_job import interval_pairs

    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        codes = rng.integers(-1, 4, n)
        ts = rng.integers(0, 20, n) * 1_000_000
        side = rng.random(n) < 0.5
        left, right = np.flatnonzero(side), np.flatnonzero(~side)
        within = int(rng.integers(0, 6)) * 1_000_000
        li, ri = interval_pairs(codes, ts, left, right, within)
        want = sorted(
            (int(a), int(b)) for a in left for b in right
            if codes[a] >= 0 and codes[a] == codes[b] and ts[a] <= ts[b] <= ts[a] + within
        )
        assert sorted(zip(li.tolist(), ri.tolist())) == want
