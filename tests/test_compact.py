"""Exactly-once output compaction: rows identical before/after, file
count reduced, crash-safe fallback, idempotent re-run, GC only after
commit."""

import datetime
import glob
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from vaero_ray.sources.transcripts import make_transcripts
from vaero_ray.stages.windows import AggSpec
from vaero_ray.streaming import CheckpointStore, StreamingWindowedJob
from vaero_ray.streaming.checkpoint import EpochManifest, lineage_entry
from vaero_ray.streaming.compact import (
    compact_committed_output,
    compacted_output_files,
    gc_replaced,
)
from vaero_ray.streaming.sink import write_canonical_file

from .test_canonical_writer import _to_frame


def _mk_job(tmp_path, ray_session):
    d = str(tmp_path / "stream")
    tbl = make_transcripts(n_convs=60, mean_turns=12, seed=11, disorder_frac=0.1)
    idx = pc.sort_indices(tbl, sort_keys=[("ts", "ascending")])
    tbl = tbl.take(idx)
    os.makedirs(d, exist_ok=True)
    n = tbl.num_rows
    for i in range(5):
        lo, hi = i * n // 5, (i + 1) * n // 5
        pq.write_table(tbl.slice(lo, hi - lo), os.path.join(d, f"chunk-{i:04d}.parquet"))
    job = StreamingWindowedJob(
        input_dir=d, out_dir=str(tmp_path / "out"), ckpt_dir=str(tmp_path / "ckpt"),
        keys=["role"],
        aggs=[AggSpec(None, "count", "n_turns")],
        ts_col="ts", size_s=600, allowed_lateness_s=30,
        num_partitions=4, max_files_per_epoch=1,
    )
    job.run()
    return job


def _rows(files):
    df = pd.concat([pq.read_table(f).to_pandas() for f in files], ignore_index=True)
    return df.sort_values(list(df.columns), kind="mergesort", ignore_index=True)


def test_compaction_preserves_rows_and_shrinks_files(tmp_path, ray_session):
    job = _mk_job(tmp_path, ray_session)
    store = CheckpointStore(job.ckpt_dir)
    before_files = store.committed_output_files()
    before = _rows(before_files)
    assert len(before_files) > 4  # several epochs x partitions

    side = compact_committed_output(store, job.out_dir)
    after_files = compacted_output_files(store, job.out_dir)
    after = _rows(after_files)
    pd.testing.assert_frame_equal(before, after)
    assert len(after_files) < len(before_files)
    assert side["through_epoch"] == max(store.committed_epochs())

    # idempotent: re-running compaction changes nothing (single input
    # file per partition -> carried through)
    side2 = compact_committed_output(store, job.out_dir)
    after2 = _rows(compacted_output_files(store, job.out_dir))
    pd.testing.assert_frame_equal(after, after2)
    assert side2["partitions"] == side["partitions"]

    # GC removes replaced epoch files but never the compacted ones
    n_gc = gc_replaced(job.out_dir)
    assert n_gc > 0
    final = _rows(compacted_output_files(store, job.out_dir))
    pd.testing.assert_frame_equal(before, final)


def test_compaction_over_per_partition_and_one_file_epochs(tmp_path, ray_session, monkeypatch):
    """Epochs 0-1 write their output as one file per hash partition (the
    layout before output files were sized by rows), later epochs as one
    file: compaction keeps the union of their rows, each row once."""
    from vaero_ray.streaming import driver

    d = str(tmp_path / "stream")
    tbl = make_transcripts(n_convs=60, mean_turns=12, seed=11, disorder_frac=0.1)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("ts", "ascending")]))
    os.makedirs(d)
    n = tbl.num_rows
    for i in range(5):
        lo, hi = i * n // 5, (i + 1) * n // 5
        pq.write_table(tbl.slice(lo, hi - lo), os.path.join(d, f"chunk-{i:04d}.parquet"))

    def job():
        return StreamingWindowedJob(
            input_dir=d, out_dir=str(tmp_path / "out"), ckpt_dir=str(tmp_path / "ckpt"), keys=["conv_id"],
            aggs=[AggSpec(None, "count", "n_turns")], ts_col="ts", size_s=600, allowed_lateness_s=30,
            num_partitions=4,
        )

    with monkeypatch.context() as m:
        m.setattr(driver, "file_partitions", lambda rows_in, lineage_rows, num_partitions: num_partitions)
        job().run(max_epochs=2, finalize=False)
    j = job()
    j.run()
    store = CheckpointStore(j.ckpt_dir)
    per_epoch = [sum(len(p["files"]) for p in store.load(e).partitions.values()) for e in store.committed_epochs()]
    assert per_epoch[:2] == [4, 4] and max(per_epoch[2:]) == 1
    before_files = store.committed_output_files()
    before = _rows(before_files)
    assert len(before) == sum(store.load(e).rows_out for e in store.committed_epochs())

    compact_committed_output(store, j.out_dir)
    after_files = compacted_output_files(store, j.out_dir)
    assert len(after_files) < len(before_files)
    pd.testing.assert_frame_equal(before, _rows(after_files))
    gc_replaced(j.out_dir)
    pd.testing.assert_frame_equal(before, _rows(compacted_output_files(store, j.out_dir)))


def test_corrupt_sidecar_falls_back_to_epoch_files(tmp_path, ray_session):
    job = _mk_job(tmp_path, ray_session)
    store = CheckpointStore(job.ckpt_dir)
    before = _rows(store.committed_output_files())
    # simulate a crash mid-commit: partial JSON on disk
    with open(os.path.join(job.out_dir, "compaction.json"), "w") as fh:
        fh.write('{"through_epoch": 2, "partitio')
    files = compacted_output_files(store, job.out_dir)
    assert sorted(files) == sorted(store.committed_output_files())
    pd.testing.assert_frame_equal(before, _rows(files))


def test_compaction_of_differently_typed_epoch_files_keeps_the_pandas_bytes(tmp_path, ray_session):
    """One partition's epoch files type columns differently (an all-null
    column is the null type; an int column with nulls is int64, or
    float64 in a file written before integer columns kept their type):
    the compacted file has the bytes the pandas concat of nullable-int
    frames gives it."""
    ts = pa.timestamp("us")
    epochs = [
        pa.table({
            "s": pa.nulls(2), "i": pa.array([1, 2]), "j": pa.array([1, None], pa.int64()), "b": pa.nulls(2),
            "t": pa.array([1, 2], ts), "f": pa.array([0.5, None]), "d": pa.nulls(2),
        }),
        pa.table({
            "s": pa.array(["a", None]), "i": pa.array([3.0, None]), "j": pa.array([3, 4]),
            "b": pa.array([True, None]), "t": pa.array([None, 5], ts), "f": pa.array([1.5, 2.5]),
            "d": pa.array([datetime.date(2026, 1, 1), None]),
        }),
    ]
    out_dir = str(tmp_path / "out")
    store = CheckpointStore(str(tmp_path / "ckpt"))
    files = []
    for e, tbl in enumerate(epochs):
        f = os.path.join(out_dir, "part-0", f"epoch-{e:08d}.parquet")
        os.makedirs(os.path.dirname(f), exist_ok=True)
        pq.write_table(tbl, f)
        files.append(f)
        store.commit(EpochManifest(e, [], e, 2, 0, 2, partitions={"0": lineage_entry(2, f, "-")}))

    side = compact_committed_output(store, out_dir)

    # the reference: the pandas concat the compactor used to run, with
    # integer columns as pandas' nullable integers
    df = pd.concat([_to_frame(pq.read_table(f)) for f in files], ignore_index=True)
    _, want, _ = write_canonical_file(pa.Table.from_pandas(df, preserve_index=False), str(tmp_path / "ref.parquet"))
    assert side["partitions"]["0"]["sha256"] == want


def test_compacting_a_left_outer_join_keeps_its_integers(tmp_path, ray_session):
    """A left-outer join writes an int64 right column with nulls (its
    unmatched left rows); compacted, it stays int64 with exact values."""
    from vaero_ray.streaming.join_job import StreamingJoinJob

    big = (1 << 53) + 1  # a float64 would round it to 2**53
    ts = pa.timestamp("us")
    for i in range(2):  # two epochs: each writes an output file
        for side, tbl in (
            ("L", pa.table({"user_id": [1, 2], "ts": pa.array([3600e6 * i] * 2, ts), "view_id": [10 + i, 20 + i]})),
            ("R", pa.table({"user_id": [1], "ts": pa.array([3600e6 * i + 1e6], ts), "purchase_id": [big + i]})),
        ):
            os.makedirs(tmp_path / side, exist_ok=True)
            pq.write_table(tbl, str(tmp_path / side / f"chunk-{i:04d}.parquet"))
    job = StreamingJoinJob(
        left_dir=str(tmp_path / "L"), right_dir=str(tmp_path / "R"), out_dir=str(tmp_path / "out"),
        ckpt_dir=str(tmp_path / "ckpt"), key="user_id", within_s=60, left_cols=["view_id"],
        right_cols=["purchase_id"], num_partitions=1, join_type="left_outer", left_id_col="view_id",
    )
    job.run()
    store = CheckpointStore(job.ckpt_dir)
    assert len(store.committed_output_files()) >= 2
    side = compact_committed_output(store, job.out_dir)
    got = pq.read_table(side["partitions"]["0"]["file"])
    assert got.schema.field("purchase_id").type == pa.int64()
    assert sorted(got.column("purchase_id").to_pylist(), key=lambda v: (v is None, v)) == [big, big + 1, None, None]


def test_recompaction_after_new_epochs_is_crash_safe(tmp_path, ray_session):
    """Re-compaction after MORE epochs commit must not rewrite the prior
    generation's file in place: until the new sidecar commits, the old
    sidecar is the read view and must keep serving exactly the committed
    rows (no duplicates). Generation-unique filenames give this; the old
    generation is removed only by gc_replaced after the new commit."""
    d = str(tmp_path / "stream")
    os.makedirs(d, exist_ok=True)
    tbl = make_transcripts(n_convs=60, mean_turns=12, seed=11, disorder_frac=0.1)
    idx = pc.sort_indices(tbl, sort_keys=[("ts", "ascending")])
    tbl = tbl.take(idx)
    n = tbl.num_rows
    half = n // 2
    for i in range(3):
        lo, hi = i * half // 3, (i + 1) * half // 3
        pq.write_table(tbl.slice(lo, hi - lo), os.path.join(d, f"chunk-{i:04d}.parquet"))
    job = StreamingWindowedJob(
        input_dir=d, out_dir=str(tmp_path / "out"), ckpt_dir=str(tmp_path / "ckpt"),
        keys=["role"], aggs=[AggSpec(None, "count", "n_turns")],
        ts_col="ts", size_s=600, allowed_lateness_s=30,
        num_partitions=4, max_files_per_epoch=1,
    )
    job.run(finalize=False)
    store = CheckpointStore(job.ckpt_dir)
    side1 = compact_committed_output(store, job.out_dir)
    gc_replaced(job.out_dir)
    gen1 = sorted(m["file"] for m in side1["partitions"].values())
    gen1_bytes = {f: open(f, "rb").read() for f in gen1}
    sidecar_path = os.path.join(job.out_dir, "compaction.json")
    old_sidecar = open(sidecar_path, "rb").read()

    # feed the strictly-later second half and commit more epochs
    for i in range(3):
        lo = half + i * (n - half) // 3
        hi = half + (i + 1) * (n - half) // 3
        pq.write_table(tbl.slice(lo, hi - lo), os.path.join(d, f"chunk-1{i:03d}.parquet"))
    job.run(finalize=False)  # resumes from checkpoint; stream stays open
    expected = _rows(compacted_output_files(store, job.out_dir))

    side2 = compact_committed_output(store, job.out_dir)
    assert side2["through_epoch"] > side1["through_epoch"]
    # prior generation untouched on disk (a crash between the new file
    # writes and the sidecar commit leaves the old view fully intact)
    for f, b in gen1_bytes.items():
        assert os.path.exists(f) and open(f, "rb").read() == b
    # simulate that crash: restore the OLD sidecar — the read view must
    # still be exactly the committed rows, no duplicates from epochs past
    # the old through_epoch
    new_sidecar = open(sidecar_path, "rb").read()
    with open(sidecar_path, "wb") as fh:
        fh.write(old_sidecar)
    pd.testing.assert_frame_equal(
        expected, _rows(compacted_output_files(store, job.out_dir))
    )
    with open(sidecar_path, "wb") as fh:
        fh.write(new_sidecar)
    pd.testing.assert_frame_equal(
        expected, _rows(compacted_output_files(store, job.out_dir))
    )
    # GC after the new commit removes the replaced old generation
    gc_replaced(job.out_dir)
    keep = {m["file"] for m in side2["partitions"].values()}
    replaced2 = {f for m in side2["partitions"].values() for f in m["replaces"]}
    for f in gen1:
        if f in replaced2 and f not in keep:
            assert not os.path.exists(f)
    pd.testing.assert_frame_equal(
        expected, _rows(compacted_output_files(store, job.out_dir))
    )

    # THIRD generation: epochs compacted two generations ago appear in
    # no current `replaces` entry — coverage must be transitive (derived
    # from per-entry through epochs) or gen-3 would re-include / fail to
    # find the gen-1 epochs
    shift = pc.add(tbl.column("ts"), pa.scalar(10**12, type=pa.duration("us")))
    tbl3 = tbl.set_column(tbl.schema.get_field_index("ts"), "ts", shift)
    pq.write_table(tbl3, os.path.join(d, "chunk-2000.parquet"))
    job.run()  # finalize flushes remaining windows
    expected3 = _rows(compacted_output_files(store, job.out_dir))
    side3 = compact_committed_output(store, job.out_dir)
    assert side3["through_epoch"] > side2["through_epoch"]
    pd.testing.assert_frame_equal(
        expected3, _rows(compacted_output_files(store, job.out_dir))
    )
    gc_replaced(job.out_dir)
    pd.testing.assert_frame_equal(
        expected3, _rows(compacted_output_files(store, job.out_dir))
    )


def test_cli_compact_verb(tmp_path, ray_session):
    from vaero_ray.__main__ import main

    job = _mk_job(tmp_path, ray_session)
    store = CheckpointStore(job.ckpt_dir)
    before = _rows(store.committed_output_files())
    rc = main(["compact", job.out_dir, job.ckpt_dir, "--gc"])
    assert rc == 0
    after = _rows(compacted_output_files(store, job.out_dir))
    pd.testing.assert_frame_equal(before, after)
    # GC ran: only compacted files remain on disk per partition
    leftover = glob.glob(os.path.join(job.out_dir, "part-*", "epoch-*.parquet"))
    assert leftover == []
