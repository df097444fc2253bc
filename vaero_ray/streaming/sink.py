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

``write_deterministic`` runs the writer as ``groupby(bucket).map_groups``
over a Ray Dataset — each partition's file is written INSIDE the Ray
task that holds its rows; only the tiny lineage table (partition, rows,
path, sha256) is collected. No streaming job calls it any more (they
write through ``step.write_partitions`` in their reduce tasks); it stays
because perfbench's tracer wraps it by name.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from vaero_ray.stages.keyed import BUCKET_COL, hash_bucket

# rows per Parquet row group of every canonical file
ROW_GROUP_ROWS = 1 << 20

LINEAGE_SCHEMA = pa.schema(
    [("partition", pa.int64()), ("rows", pa.int64()), ("path", pa.string()), ("sha256", pa.string())]
)


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


def write_partition_file(tbl: pa.Table, base_dir: str, bucket: int, epoch: int) -> tuple[str, str, int]:
    """Canonical in-task write of one partition's epoch file at
    part-{bucket}/epoch-{k}.parquet -> (path, sha256, rows). Shared by
    every streaming job's output and state writes."""
    path = os.path.join(base_dir, f"part-{bucket}", f"epoch-{epoch:08d}.parquet")
    return write_canonical_file(tbl, path)


def write_deterministic(
    ds: rd.Dataset,
    base_dir: str,
    epoch: int,
    partition_key: str,
    num_partitions: int,
) -> pa.Table:
    """Write ``ds`` as one canonical file per hash-partition of
    ``partition_key``; returns the lineage table (small: one row per
    non-empty partition)."""

    def tag(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(BUCKET_COL, pa.array(hash_bucket(tbl.column(partition_key), num_partitions)))

    def write_partition(tbl: pa.Table) -> pa.Table:
        # dir name has no '=': hive-partition inference would otherwise
        # resurrect the bucket as a phantom column on read
        bucket = tbl.column(BUCKET_COL)[0].as_py()
        path, digest, rows = write_partition_file(tbl.drop_columns([BUCKET_COL]), base_dir, bucket, epoch)
        return pa.Table.from_pylist(
            [{"partition": bucket, "rows": rows, "path": path, "sha256": digest}], schema=LINEAGE_SCHEMA
        )

    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    lineage_ds = tagged.groupby(BUCKET_COL).map_groups(write_partition, batch_format="pyarrow")
    rows = lineage_ds.take_all()  # tiny: <= num_partitions rows
    if not rows:
        return LINEAGE_SCHEMA.empty_table()
    return pa.Table.from_pylist(rows, schema=LINEAGE_SCHEMA)
