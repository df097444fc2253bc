"""How a task step reads Parquet (streaming/step.py).

- parity: ``step.read_table`` returns what the ``pyarrow.dataset``
  scanner returned for the same files and forced schema;
- one open per file: in each small epoch a window, route or stitch step
  opens every input and state file exactly once, the epoch driver opens
  none, and nothing reads a footer through ``read_metadata``/
  ``read_schema`` or scans through ``pyarrow.dataset``;
- a file that cannot be opened fails the epoch with an error naming it;
- a carried state file whose footer disagrees with the rows its lineage
  recorded fails the next epoch.
"""

from __future__ import annotations

import os
import re
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from vaero_ray.dsl import Vaero
from vaero_ray.sources.transcripts import make_transcripts
from vaero_ray.stages.windows import AggSpec
from vaero_ray.streaming import step
from vaero_ray.streaming.job import StreamingWindowedJob
from vaero_ray.streaming.stitch_job import StreamingStitchJob
from vaero_ray.streaming.transform_job import StreamingTransformJob

N_CHUNKS = 3
TS = pa.array(pd.date_range("2026-01-01", periods=3, freq="min").values.astype("datetime64[us]"))
FIRST = pa.table({"a": pa.array([1, None, 3], pa.int64()), "b": ["x", "y", None], "ts": TS})
LATER = {
    "narrower-int": pa.table({"a": pa.array([4, 5], pa.int32()), "b": ["p", "q"], "ts": TS[:2]}),
    "missing-column": pa.table({"a": pa.array([6], pa.int64()), "ts": TS[:1]}),
    "extra-column": pa.table({"a": pa.array([7], pa.int64()), "b": ["r"], "ts": TS[:1], "c": [1.5]}),
    "column-order": pa.table({"ts": TS[1:], "b": ["s", "t"], "a": pa.array([8, 9], pa.int64())}),
    "pandas-metadata": pa.Table.from_pandas(
        pd.DataFrame({"a": [10, 11], "b": ["u", None], "ts": pd.to_datetime(["2026-01-02", "2026-01-03"])}),
        preserve_index=False,
    ),
}


def _write(path: str, tbl: pa.Table) -> str:
    pq.write_table(tbl, path)
    return path


def _scanned(files: list[str], columns: list[str] | None) -> pa.Table:
    """The read ``step.read_table`` replaces: the dataset scanner over the
    first footer's schema, metadata stripped and pruned to ``columns``."""
    schema = pq.read_schema(files[0]).remove_metadata()
    if columns:
        schema = pa.schema([schema.field(c) for c in columns])
    return pads.dataset(files, schema=schema, format="parquet").to_table()


@pytest.mark.parametrize("columns", [None, ["b", "a"]])
@pytest.mark.parametrize("first_pandas", [False, True])
@pytest.mark.parametrize("later", sorted(LATER))
def test_read_table_matches_dataset_scanner(later, first_pandas, columns, tmp_path):
    first = LATER["pandas-metadata"] if first_pandas else FIRST
    files = [
        _write(f"{tmp_path}/0.parquet", first),
        _write(f"{tmp_path}/1.parquet", LATER[later]),
        _write(f"{tmp_path}/2.parquet", first),
    ]
    want = _scanned(files, columns)
    got = step.read_table(files, columns)
    assert got.schema.metadata is None
    assert got.equals(want), (got, want)
    assert got.equals(step.read_table(step.open_files(files), columns))


def test_read_table_rejects_an_incompatible_column(tmp_path):
    files = [
        _write(f"{tmp_path}/0.parquet", FIRST),
        _write(f"{tmp_path}/1.parquet", pa.table({"a": ["not a number"], "b": ["v"], "ts": TS[:1]})),
    ]
    with pytest.raises(pa.ArrowInvalid):
        _scanned(files, None)
    with pytest.raises(pa.ArrowInvalid):
        step.read_table(files)


# -- jobs ---------------------------------------------------------------
@pytest.fixture(scope="module")
def turns_dir(tmp_path_factory) -> str:
    d = str(tmp_path_factory.mktemp("task_read_turns"))
    tbl = make_transcripts(n_convs=30, mean_turns=8, seed=7, disorder_frac=0.2)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("ts", "ascending")]))
    n = tbl.num_rows
    for i in range(N_CHUNKS):
        lo, hi = i * n // N_CHUNKS, (i + 1) * n // N_CHUNKS
        pq.write_table(tbl.slice(lo, hi - lo), os.path.join(d, f"chunk-{i:04d}.parquet"))
    return d


def _job(name: str, input_dir: str, base: str):
    dirs = dict(out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt")
    if name == "windowed":
        return StreamingWindowedJob(
            input_dir, keys=["conv_id"], size_s=600, allowed_lateness_s=30, num_partitions=3,
            aggs=[AggSpec(None, "count", "n_turns"), AggSpec("ts", "max", "last_ts")], **dirs,
        )
    if name == "route":
        Vaero.reset()
        src = Vaero().source("parquet", path="unused")
        src.mask("text", r"user\d+@example\.com", "<email>").sink(
            "s3", timestamp_key="ts", filename_prefix="%Y/%m/%d/%H"
        )
        src.filter_regexp("role", "^tool$").sink("s3", timestamp_key="ts", filename_prefix="%Y/%m/%d")
        return StreamingTransformJob(input_dir, graph=Vaero.start(), **dirs)
    if name == "stitch":
        return StreamingStitchJob(input_dir, gap_s=1800, allowed_lateness_s=60, num_partitions=3, **dirs)
    raise ValueError(name)


def _forbidden(name: str):
    def fn(*a, **kw):
        raise AssertionError(f"{name} called")

    return fn


@pytest.mark.parametrize("name", ["windowed", "route", "stitch"])
def test_each_file_is_opened_once_by_the_step(name, turns_dir, tmp_path, monkeypatch):
    opens: list[tuple[int | None, str]] = []  # (epoch of the running step or None, path)
    running: list[int] = []
    real = pq.ParquetFile

    class Counted(real):
        def __init__(self, source, *a, **kw):
            opens.append((running[-1] if running else None, str(source)))
            super().__init__(source, *a, **kw)

    job = _job(name, turns_dir, str(tmp_path))
    real_step = type(job).epoch_step

    def marked(self, c):
        running.append(c.epoch)
        try:
            return real_step(self, c)
        finally:
            running.pop()

    monkeypatch.setattr(type(job), "epoch_step", marked)
    monkeypatch.setattr(pq, "ParquetFile", Counted)
    for mod, attr in ((pq, "read_metadata"), (pq, "read_schema"), (pads, "dataset")):
        monkeypatch.setattr(mod, attr, _forbidden(attr))

    manifests = job.run()
    assert len(manifests) == N_CHUNKS + (name != "route")  # the windowed and stitch runs end with a finalize epoch
    assert [e for e, _ in opens if e is None] == []  # run_epoch itself opens nothing
    state_read = 0
    for m in manifests:
        prev = job.store.load(m.epoch - 1) if m.epoch else None
        want = m.input_files + (prev.state_files() if prev else [])
        state_read += len(want) - len(m.input_files)
        assert sorted(p for e, p in opens if e == m.epoch) == sorted(want)
    assert len(opens) == sum(len(m.input_files) for m in manifests) + state_read
    assert (state_read > 0) == (name != "route")


@pytest.mark.parametrize("name", ["windowed", "route", "stitch"])
def test_an_unreadable_input_file_is_named(name, turns_dir, tmp_path, ray_session):
    d = tmp_path / "in"
    d.mkdir()
    good = sorted(os.listdir(turns_dir))
    shutil.copy(os.path.join(turns_dir, good[0]), d / good[0])
    bad = str(d / "chunk-0001.parquet")
    with open(os.path.join(turns_dir, good[1]), "rb") as fh:
        data = fh.read()
    with open(bad, "wb") as fh:
        fh.write(data[: len(data) // 2])  # truncated: no footer
    job = _job(name, str(d), str(tmp_path / "run"))
    job.max_files_per_epoch = 2
    with pytest.raises(Exception, match=re.escape(bad)):
        job.run_epoch()
    assert job.store.committed_epochs() == []


@pytest.mark.parametrize("name", ["windowed", "stitch"])
def test_state_rows_are_checked_against_lineage(name, turns_dir, tmp_path, ray_session):
    job = _job(name, turns_dir, str(tmp_path))
    m = job.run_epoch()
    part = max(m.state_partitions.values(), key=lambda p: p["rows"])
    (path,) = part["files"]
    assert part["rows"] >= 1
    tbl = pq.read_table(path)
    pq.write_table(tbl.slice(1), path)  # a valid file, one row short
    want = f"'{path}' holds {part['rows'] - 1} rows; its lineage recorded {part['rows']}"
    with pytest.raises(ValueError, match=re.escape(want)):
        job.run_epoch()
    assert job.store.committed_epochs() == [0]
