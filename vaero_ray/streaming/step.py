"""Task steps: an epoch as plain Ray tasks over pyarrow.

A windowed or route epoch runs either as a Ray Data plan (several
executions and shuffles; the only form that scales past one worker's
heap) or, when the epoch is small, as one Ray task that runs the same
kernels — the compiled transform chain, the window partial/merge/finalize
functions, ``hash_bucket`` and the canonical writer — over pyarrow tables
in one process. For a few thousand rows the Ray Data plan is almost all
fixed cost: each execution and each shuffle costs more than the data it
moves.

An epoch is small when its claimed input files plus its carried state
files hold at most ``SMALL_EPOCH_BYTES`` uncompressed bytes, summed from
the parquet footers' row-group sizes. Both forms write byte-identical
files, so an epoch may take either one and a resume may switch between
them (tests/test_small_step.py). The task receives a plain spec (file
lists, watermark, epoch, plan) — never the job object or its checkpoint
store — and returns lineage, counters and its phase times; the epoch
driver (driver.py) commits. The keyed jobs always run as tasks
(``driver.KeyedStep``); there ``SMALL_EPOCH_BYTES`` budgets a map task.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray

from vaero_ray.stages.keyed import hash_bucket
from vaero_ray.streaming.checkpoint import lineage_entry
from vaero_ray.streaming.sink import write_partition_file

# upper bound on an epoch's input + carried state (uncompressed parquet
# bytes) for the one-task step; ~3x that is resident in the task at peak
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


def footer_stats(files: list[str]) -> tuple[int, int]:
    """(rows, uncompressed row-group bytes) of ``files``, from the footers."""
    rows = nbytes = 0
    for f in files:
        md = pq.read_metadata(f)
        rows += md.num_rows
        nbytes += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    return rows, nbytes


def is_small(nbytes: int, read_kw: dict) -> bool:
    """Whether an epoch of ``nbytes`` runs as one task. Read options other
    than ``columns`` are Ray Data ``read_parquet`` arguments, which only
    the Dataset plan honours."""
    return nbytes <= SMALL_EPOCH_BYTES and set(read_kw) <= {"columns"}


def task_read_columns(read_kw: dict) -> list[str] | None:
    """The ``columns`` read option of ``read_kw``: the only one a task
    read honours, so any other key raises ``ValueError``."""
    for k in read_kw:
        if k != "columns":
            raise ValueError(f"extra_read_kw: {k!r} is not supported by the task read (only 'columns')")
    return read_kw.get("columns")


def read_table(files: list[str], columns: list[str] | None = None) -> pa.Table:
    """``files`` as one table, read the way ``io.read_parquet`` reads
    them: the first file's footer schema, metadata stripped and pruned to
    ``columns``, is forced onto every file."""
    schema = pq.read_schema(files[0]).remove_metadata()
    if columns:
        schema = pa.schema([schema.field(c) for c in columns])
    return pads.dataset(files, schema=schema, format="parquet").to_table()


def write_partitions(tbl: pa.Table, base_dir: str, epoch: int, key: str, num_partitions: int) -> dict:
    """One canonical file per non-empty hash partition of ``key``, the
    same bytes ``sink.write_deterministic`` writes; returns the manifest
    lineage ``{partition: {"rows", "files", "sha256"}}``."""
    if not tbl.num_rows:
        return {}
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


def run_in_task(fn, **kw):
    """``fn(**kw)`` as one Ray task; returns its result."""
    return ray.get(remote(fn).remote(**kw))
