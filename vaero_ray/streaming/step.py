"""Task steps: an epoch as plain pyarrow work, run in the job's process.

A windowed or route epoch runs either as a Ray Data plan (several
executions and shuffles; the only form that scales past one process's
heap) or, when the epoch is small, as one step (``window_step``,
``route_step``) called in the job's own process that runs the same
kernels — the compiled transform chain, the window partial/merge/finalize
functions, ``hash_bucket`` and the canonical writer — over pyarrow
tables. For a few thousand rows the Ray Data plan is almost all fixed
cost: each execution and each shuffle costs more than the data it moves,
and even one Ray task round trip (ship the spec, schedule, block on the
result) costs more CPU than a small epoch's reads and writes.

The step decides whether its epoch is small: it opens each claimed input
file and carried state file once, on the calling thread, and sums the
uncompressed row-group sizes from those footers. When they exceed the
``budget`` the driver passed (``SMALL_EPOCH_BYTES``, read when the epoch
starts) it returns None before reading any data, and the driver runs the
Ray Data plan. The files the step opened are the ones it reads, and
their footers give the epoch's ``rows_in``, ``bytes_in`` and
``state_bytes_in``. Both forms write byte-identical files, so an epoch
may take either one and a resume may switch between them
(tests/test_small_step.py). The step receives a plain spec (file lists,
watermark, epoch, plan, budget) — never the job object or its
checkpoint store — and returns lineage, counters and its phase times;
the epoch driver (driver.py) commits. The keyed jobs run as
``driver.KeyedStep``: there ``SMALL_EPOCH_BYTES`` budgets a map task,
an epoch of one map and one reduce task runs both in the job's process,
and a larger one fans out to Ray tasks (``remote``). A keyed reduce task
calls its job's kernel once on one Arrow table and writes every table
the kernel returns through ``write_partitions``.

``write_partitions`` writes one canonical file per non-empty hash
partition: ``num_partitions`` of them for every keyed job's output and
state, and ``job.file_partitions`` for window output and open-window
state alike, a count both forms take from the footers and the lineage
before reading data, so they split output and state alike. A count of
one writes the whole table as ``part-0`` without hashing it.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from vaero_ray.stages.keyed import hash_bucket
from vaero_ray.streaming.checkpoint import lineage_entry
from vaero_ray.streaming.sink import write_partition_file

# upper bound on an epoch's input + carried state (uncompressed parquet
# bytes) for the one-step form, and on a keyed map task's input; ~3x
# that is resident at peak in the process that runs it
SMALL_EPOCH_BYTES = 64 << 20

# phases a task step times for the epoch's metrics record; the Dataset
# step runs read, compute and write as one fused plan and records None
PHASES = ("read_s", "compute_s", "write_s")


class PhaseTimer:
    """Seconds spent in each of ``PHASES`` by one task step."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)

    @contextlib.contextmanager
    def __call__(self, phase: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[phase] += time.perf_counter() - t0

    def report(self) -> dict:
        return {k: round(v, 4) for k, v in self.seconds.items()}


def open_files(files: list[str], lineage_rows: dict | None = None) -> list[pq.ParquetFile]:
    """One ``ParquetFile`` per path, its footer parsed once. A file that
    cannot be opened raises an error naming its path. A carried state
    file whose footer row count differs from the rows its lineage
    recorded (``lineage_rows``: path -> rows) raises ``ValueError``."""
    out = []
    for f in files:
        try:
            pf = pq.ParquetFile(f)
        except (pa.ArrowException, OSError) as e:
            raise type(e)(f"Could not open Parquet input source '{f}': {e}") from e
        want = (lineage_rows or {}).get(f)
        if want is not None and pf.metadata.num_rows != want:
            raise ValueError(f"state file '{f}' holds {pf.metadata.num_rows} rows; its lineage recorded {want}")
        out.append(pf)
    return out


def _opened(files: list) -> list[pq.ParquetFile]:
    """``files`` as ``ParquetFile``s, opening the ones given as paths."""
    return [open_files([f])[0] if isinstance(f, str) else f for f in files]


def footer_stats(files: list) -> tuple[int, int]:
    """(rows, uncompressed row-group bytes) of ``files`` (paths or opened
    ``ParquetFile``s), from the footers."""
    rows = nbytes = 0
    for pf in _opened(files):
        md = pf.metadata
        rows += md.num_rows
        nbytes += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    return rows, nbytes


def footer_counts(files: list, state_files: list = ()) -> dict:
    """``StepResult``'s footer counts of the input ``files`` and carried
    ``state_files`` (paths or opened ``ParquetFile``s): ``rows_in``,
    ``bytes_in`` and ``state_bytes_in``."""
    rows_in, bytes_in = footer_stats(files)
    return dict(rows_in=rows_in, bytes_in=bytes_in, state_bytes_in=footer_stats(state_files)[1])


def task_reads(read_kw: dict) -> bool:
    """Whether a task step honours ``read_kw``. Read options other than
    ``columns`` are Ray Data ``read_parquet`` arguments, which only the
    Dataset plan honours."""
    return set(read_kw) <= {"columns"}


def task_read_columns(read_kw: dict) -> list[str] | None:
    """The ``columns`` read option of ``read_kw``: the only one a task
    read honours, so any other key raises ``ValueError``."""
    for k in read_kw:
        if k != "columns":
            raise ValueError(f"extra_read_kw: {k!r} is not supported by the task read (only 'columns')")
    return read_kw.get("columns")


def read_table(files: list, columns: list[str] | None = None) -> pa.Table:
    """``files`` (paths or opened ``ParquetFile``s) as one table, in file
    order, read the way ``io.read_parquet`` reads them: the first file's
    footer schema, metadata stripped and pruned to ``columns``, is forced
    onto every file — a missing column is null-filled, another type is
    cast, an extra column is dropped. Each file is read on the calling
    thread."""
    pfs = _opened(files)
    schema = pfs[0].schema_arrow.remove_metadata()
    if columns:
        schema = pa.schema([schema.field(c) for c in columns])
    return pa.concat_tables([_read_as(pf, schema) for pf in pfs])


def _read_as(pf: pq.ParquetFile, schema: pa.Schema) -> pa.Table:
    have = set(pf.schema_arrow.names)
    tbl = pf.read(columns=[n for n in schema.names if n in have], use_threads=False)
    cols = []
    for f in schema:
        if f.name not in have:
            cols.append(pa.nulls(tbl.num_rows, f.type))
        else:
            col = tbl.column(f.name)
            cols.append(col if col.type == f.type else col.cast(f.type))
    return pa.Table.from_arrays(cols, schema=schema)


def write_partitions(tbl: pa.Table, base_dir: str, epoch: int, key: str, num_partitions: int) -> dict:
    """One canonical file per non-empty hash partition of ``key``, the
    same bytes ``sink.write_deterministic`` writes; returns the manifest
    lineage ``{partition: {"rows", "files", "sha256"}}``."""
    if not tbl.num_rows:
        return {}
    if num_partitions == 1:  # every row hashes to bucket 0
        path, digest, rows = write_partition_file(tbl, base_dir, 0, epoch)
        return {"0": lineage_entry(rows, path, digest)}
    buckets = np.asarray(hash_bucket(tbl.column(key), num_partitions))
    out = {}
    for b in np.unique(buckets):
        path, digest, rows = write_partition_file(tbl.filter(pa.array(buckets == b)), base_dir, int(b), epoch)
        out[str(int(b))] = lineage_entry(rows, path, digest)
    return out


@functools.lru_cache(maxsize=None)
def remote(fn):
    """``fn`` as a Ray remote function, built once per process."""
    return ray.remote(fn)
