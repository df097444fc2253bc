"""Deterministic partitioned Parquet writer for the exactly-once sink.

Every file the streaming engine writes — epoch output, carried state,
compacted output — goes through ``write_canonical_file``, so its bytes
are a pure function of its rows: re-running a crashed epoch overwrites
the file byte-identically (pyarrow emits no wall-clock metadata). This
replaces the reference's inherently non-resumable wall-clock/UUID
filenames (/root/reference/execute/sinkNode.go:190-225).

The canonical form (``canonical_table``) is computed in pyarrow:

- column types are normalized the way the engine's former pandas round
  trip (``to_pandas`` -> sort -> ``from_pandas``) left them, so files
  keep their bytes: ``large_string``/``large_binary``/fixed-size binary
  become ``string``/``binary``, ``date64`` becomes ``date32``, times
  become ``time64[us]``, NaN becomes null, and an all-null column of a
  type pandas holds as Python objects (strings, binaries, bools, dates,
  times, decimals, nested) becomes the ``null`` type. An integer column
  keeps its type and exact values, nulls included. A dictionary column
  is written decoded to its value type (Arrow cannot sort dictionaries),
  and a decimal keeps its declared precision;
- rows are sorted on every column, ascending, nulls last (a stable sort,
  like pandas' mergesort);
- the schema carries no metadata and every field is nullable.

Every epoch file is placed by ``Write``: a job names each table it
writes by kind (output or state), subdirectory and manifest-key prefix,
and ``Write.write`` splits it into files, names each file and its
manifest key from (epoch, partition) only, writes them through
``write_canonical_file`` and returns their lineage. No job joins a path
for its writes.
"""

from __future__ import annotations

import hashlib
import os
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from vaero_ray.stages.keyed import hash_bucket
from vaero_ray.streaming.checkpoint import lineage_entry

# rows per Parquet row group of every canonical file
ROW_GROUP_ROWS = 1 << 20


def _held_as_objects(t: pa.DataType) -> bool:
    """Types pandas holds as Python objects (bools only when nulls force it)."""
    return (
        pa.types.is_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_date(t)
        or pa.types.is_time(t)
        or pa.types.is_decimal(t)
        or pa.types.is_nested(t)
    )


def _round_trip_types(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """``col`` with the type and nulls a pandas round trip gives it."""
    t = col.type
    if pa.types.is_large_string(t):
        col = col.cast(pa.string())
    elif pa.types.is_large_binary(t) or pa.types.is_fixed_size_binary(t):
        col = col.cast(pa.binary())
    elif pa.types.is_date64(t):
        col = col.cast(pa.date32())
    elif pa.types.is_time(t) and t != pa.time64("us"):
        col = col.cast(pa.time64("us"))
    t, n, nulls = col.type, len(col), col.null_count
    if pa.types.is_floating(t) and nulls < n and pc.any(pc.is_nan(col)).as_py():
        col = pc.if_else(pc.is_nan(col), pa.scalar(None, t), col)
    elif nulls == n and (_held_as_objects(t) or (pa.types.is_boolean(t) and n)):
        col = pa.chunked_array([pa.nulls(n)])
    return col


def canonical_table(tbl: pa.Table) -> pa.Table:
    """``tbl`` in canonical form: normalized types, plain schema, rows
    sorted on every column (module docstring)."""
    cols = []
    for col in tbl.columns:
        if pa.types.is_dictionary(col.type):
            col = col.cast(col.type.value_type)
        cols.append(_round_trip_types(col))
    tbl = pa.table(cols, schema=pa.schema([pa.field(n, c.type) for n, c in zip(tbl.column_names, cols)]))
    try:
        order = pc.sort_indices(
            tbl, sort_keys=[(n, "ascending") for n in tbl.column_names], null_placement="at_end"
        )
    except (pa.ArrowNotImplementedError, pa.ArrowTypeError) as e:
        raise ValueError(f"canonical writer cannot sort columns of {tbl.schema.types}: {e}") from e
    return tbl.take(order).combine_chunks()


def canonical_bytes(tbl: pa.Table) -> tuple[pa.Buffer, int]:
    """(Parquet bytes of ``tbl`` in canonical form, rows): what
    ``write_canonical_file`` writes."""
    tbl = canonical_table(tbl)
    buf = pa.BufferOutputStream()
    pq.write_table(tbl, buf, row_group_size=ROW_GROUP_ROWS)
    return buf.getvalue(), tbl.num_rows


def write_canonical_file(tbl: pa.Table, path: str) -> tuple[str, str, int]:
    """Canonical in-task write of one partition file at an explicit path:
    canonical form -> Parquet bytes in memory -> sha256 of those bytes
    -> tmp write -> atomic rename -> (path, sha256, rows). The path MUST
    be unique per (partition, epoch) — callers that write concurrent
    partitions must derive the path from the partition key, never share
    an intermediate."""
    data, rows = canonical_bytes(tbl)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return path, hashlib.sha256(data).hexdigest(), rows


class Write(NamedTuple):
    """A table an epoch writes, and where. ``kind`` "out" places its
    files under the job's output dir, "state" under the epoch's state
    dir; ``subdir`` is below that, and ``prefix`` starts the manifest key
    of each file. ``write`` splits the table into files:

    - by default, one file per non-empty hash bucket of ``key`` (default:
      the first column) at ``{subdir}/part-{bucket}/epoch-{k}.parquet``,
      keyed ``prefix`` + bucket;
    - with ``by`` (the sink prefix column), one file per value of that
      column at ``{subdir}/{value}/epoch-{k}.parquet``, keyed ``prefix``
      + value, with each "/" of the value written as "-" and the column
      itself not written."""

    kind: str
    table: pa.Table
    subdir: str = ""
    prefix: str = ""
    key: str | None = None
    by: str | None = None

    def write(self, root: str, epoch: int, n_files: int = 1) -> list[tuple[str, str, dict]]:
        """Write the files under ``root`` (the dir of ``kind``), in
        ``n_files`` hash buckets; returns (kind, manifest key, lineage
        entry) per file."""
        tbl = self.table
        if not tbl.num_rows:
            return []
        if self.by is not None:
            col = tbl.column(self.by)
            tbl = tbl.drop_columns([self.by])
            parts = [(str(v).replace("/", "-"), pc.equal(col, v)) for v in pc.unique(col).to_pylist()]
        elif n_files == 1:  # every row hashes to bucket 0
            parts = [("0", None)]
        else:
            buckets = np.asarray(hash_bucket(tbl.column(self.key or tbl.column_names[0]), n_files))
            parts = [(str(b), pa.array(buckets == b)) for b in np.unique(buckets)]
        out = []
        for name, mask in parts:
            d = name if self.by is not None else f"part-{name}"
            path = os.path.join(root, self.subdir, d, f"epoch-{epoch:08d}.parquet")
            path, digest, rows = write_canonical_file(tbl if len(parts) == 1 else tbl.filter(mask), path)
            out.append((self.kind, self.prefix + name, lineage_entry(rows, path, digest)))
        return out
