"""Task steps: an epoch as plain pyarrow work in map and reduce tasks.

Every windowed and keyed epoch, and every route epoch of a graph without
relational steps, runs as ``driver.KeyedStep``: map tasks read the
claimed input and carried state files and prepare their rows, reduce
tasks call the job's kernel once on one Arrow table and write what it
returns. The kernels are the compiled transform chain, the window
partial/merge/finalize functions, ``hash_bucket`` and the canonical
writer, over pyarrow tables. For a few thousand rows a Ray Data plan is
almost all fixed cost: each execution and each shuffle costs more than
the data it moves, and even one Ray task round trip (ship the spec,
schedule, block on the result) costs more CPU than a small epoch's reads
and writes.

So the step sizes itself from the footers: the job's process opens each
claimed input file and carried state file once (``open_files``) and
sums their uncompressed row-group sizes (``footer_stats``).
``SMALL_EPOCH_BYTES`` (read when the epoch starts) budgets one map task;
an epoch of one map and one reduce task runs both in the job's process
on the files it opened, and a larger one fans out to Ray tasks
(``remote``). The task counts do not change the bytes written, so a
resume may switch them, with one exception: a windowed map task
computes partials over all of its files at once, so a float ``sum`` or
``mean`` adds its rows in another grouping at another map-task count,
and its last bits may differ. A step receives plain data (file lists,
watermark, epoch, the output and state dirs, the job's kernels) — never
the job's checkpoint store — and returns lineage, counters and its
phase times; the epoch driver (driver.py) commits. Every file a reduce
task writes is placed by ``sink.Write``.
"""

from __future__ import annotations

import contextlib
import functools
import time

import pyarrow as pa
import pyarrow.parquet as pq
import ray

# upper bound on a map task's input (uncompressed parquet bytes), and the
# share of an epoch's input + carried state per reduce task; ~3x that is
# resident at peak in the process that runs it
SMALL_EPOCH_BYTES = 64 << 20

# phases a task step times for the epoch's metrics record; a relational
# route epoch's Dataset plan fuses them and records None
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


def read_table(files: list, columns: list[str] | None = None) -> pa.Table:
    """``files`` (paths or opened ``ParquetFile``s) as one table, in file
    order, read the way ``io.read_parquet`` reads them: the first file's
    footer schema, metadata stripped and pruned to ``columns``, is forced
    onto every file — a missing column is null-filled, another type is
    cast, an extra column is dropped. Each file is read on the calling
    thread. The table holds one chunk per column: the kernels that run
    on it pay a cost per chunk, more than the copy costs."""
    pfs = _opened(files)
    schema = pfs[0].schema_arrow.remove_metadata()
    if columns:
        schema = pa.schema([schema.field(c) for c in columns])
    return pa.concat_tables([_read_as(pf, schema) for pf in pfs]).combine_chunks()


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


@functools.lru_cache(maxsize=None)
def remote(fn):
    """``fn`` as a Ray remote function, built once per process."""
    return ray.remote(fn)
