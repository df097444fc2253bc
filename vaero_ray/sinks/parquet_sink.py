"""Batch-mode sink: prefix-partitioned Parquet.

Reproduces the reference's sink bucketing semantics
(/root/reference/execute/sinkNode.go:80-101): each event is bucketed by
``prefix = strftime(filename_prefix, event's own timestamp at
timestamp_key)`` (default '%Y/%m/%d', vaero/stream.py:35-43); events whose
timestamp fails to parse are DROPPED with a warning (sinkNode.go:85-89).

In batch mode the (max_bytes, max_time) buffer-flush machinery
(sinkNode.go:105-131) degenerates to file-size targets: we write one
Parquet directory per prefix via Ray's partitioned write, with
deterministic part names (wall-clock/UUID names of the reference,
sinkNode.go:190-225, are inherently non-resumable — see SURVEY.md §2a).
The streaming exactly-once variant lives in vaero_ray/streaming/.
"""

from __future__ import annotations

import logging
import re

import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger(__name__)

PREFIX_COL = "vx_prefix"

_RFC3339_FORMATS = ["%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%dT%H:%M:%S%z", "%Y-%m-%d %H:%M:%S"]

# strftime directives whose output depends on a timestamp only down to
# its day (0), hour (1) or minute (2); "%%", "%n" and "%t" print literals
_DIRECTIVE_LEVEL = {
    **dict.fromkeys("YmdyCjaAbBhuwUWGgVeDF", 0),
    **dict.fromkeys("HIp", 1),
    **dict.fromkeys("MR", 2),
    **dict.fromkeys("%nt", 0),
}
_FLOOR_UNITS = ("day", "hour", "minute")


def _parse_ts(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Timestamp column -> timestamp[us]; strings parsed as RFC3339/unix
    (the reference tries the configured layout then drops,
    sinkNode.go:84-90). Unparseable -> null."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_timestamp(t):
        return col.cast(pa.timestamp("us"))
    if pa.types.is_integer(t) or pa.types.is_floating(t):  # unix seconds
        us = pc.multiply(pc.cast(col, pa.int64(), safe=False), 1_000_000)
        return us.cast(pa.timestamp("us"))
    # fast path: arrow's ISO-8601 parser (handles fractional seconds and
    # Z/offset zones — e.g. Okta's '...T00:00:01.000Z') when EVERY row is
    # well-formed
    for ty in (pa.timestamp("us", "UTC"), pa.timestamp("us")):
        try:
            return col.cast(ty).cast(pa.timestamp("us"))
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            pass
    # tolerant path: per-row strptime OR-chain (unparseable -> null); also
    # tried with fractional seconds stripped (arrow strptime has no %f)
    stripped = pc.replace_substring_regex(col, r"\.\d+", "")
    out = None
    for c in (col, stripped):
        for fmt in _RFC3339_FORMATS:
            parsed = pc.strptime(c, format=fmt, unit="us", error_is_null=True)
            parsed = parsed.cast(pa.timestamp("us"))  # tz-aware (%z) -> naive UTC
            out = parsed if out is None else pc.if_else(pc.is_null(out), parsed, out)
    return out


def _floor_unit(fmt: str) -> str | None:
    """The coarsest unit a timestamp can be floored to without changing
    its ``strftime(fmt)``; None when a directive needs a finer one or is
    not known (``%S`` prints fractional digits in Arrow)."""
    levels = [_DIRECTIVE_LEVEL.get(d) for d in re.findall(r"%(.)", fmt, re.S)]
    return None if None in levels else _FLOOR_UNITS[max(levels, default=0)]


def _strftime(ts: pa.Array, fmt: str) -> pa.Array:
    """``pc.strftime(ts, fmt)``, formatting each distinct floored
    timestamp once: a batch's rows fall in a few days or hours."""
    unit = _floor_unit(fmt)
    if unit is None:
        return pc.strftime(ts, format=fmt)
    enc = pc.floor_temporal(ts, unit=unit).dictionary_encode()
    return pc.take(pc.strftime(enc.dictionary, format=fmt), enc.indices)


def derive_prefix(tbl: pa.Table, timestamp_key: str = "timestamp", filename_prefix: str = "%Y/%m/%d") -> pa.Table:
    """Append the sink prefix column; DROP rows with unparseable/missing
    timestamps (reference behavior, sinkNode.go:85-89)."""
    if timestamp_key not in tbl.column_names:
        logger.warning("sink: timestamp_key %r missing; dropping all %d rows", timestamp_key, tbl.num_rows)
        return tbl.slice(0, 0).append_column(PREFIX_COL, pa.array([], pa.string()))
    ts = _parse_ts(tbl.column(timestamp_key))
    ok = pc.is_valid(ts)
    # `or 0`: pc.sum of an EMPTY array is null -> as_py() None; a branch
    # filter that drops a whole batch reaches here with 0 rows
    n_bad = tbl.num_rows - (pc.sum(pc.cast(ok, pa.int64())).as_py() or 0)
    if n_bad:
        logger.warning("sink: dropping %d rows with unparseable %r", n_bad, timestamp_key)
    # strftime directory prefix; '/' separators become partition dirs
    out = tbl.append_column(PREFIX_COL, _strftime(ts, filename_prefix))
    return out.filter(ok) if n_bad else out


def s3_uri_and_fs(args: dict, fs_factory=None):
    """(path, pyarrow filesystem | None) from source/sink args.

    Reference parity (source_s3.go:25-41, sink_s3.go:30-45): a bucket +
    key prefix + region select the S3 location. Here any ``s3://`` URI
    (explicit ``path`` or assembled from bucket/prefix) gets a
    ``pyarrow.fs.S3FileSystem`` built from region/endpoint/anonymous args
    — Ray's read_parquet/write_parquet take it via ``filesystem=``.
    Local paths return (path, None). ``fs_factory`` is injectable for
    network-free tests."""
    path = str(args.get("path") or "")
    if not path and args.get("bucket"):
        path = f"s3://{args['bucket']}/{args.get('prefix') or ''}".rstrip("/")
    if not path.startswith("s3://"):
        return (path or None), None
    if fs_factory is None:
        from pyarrow import fs as pafs

        fs_factory = pafs.S3FileSystem
    kw = {}
    if args.get("region"):
        kw["region"] = args["region"]
    if args.get("endpoint"):
        kw["endpoint_override"] = args["endpoint"]
    if args.get("anonymous"):
        kw["anonymous"] = True
    # arrow filesystems take bucket/key WITHOUT the scheme
    return path[len("s3://"):], fs_factory(**kw)


def write_partitioned(
    ds,
    path: str,
    timestamp_key: str = "timestamp",
    filename_prefix: str = "%Y/%m/%d",
    batch_max_bytes: int | None = None,
    filesystem=None,
    **write_kw,
) -> str:
    """Partitioned Parquet write bucketed by the reference's prefix rule.

    The '/'-containing strftime prefix is flattened to a single partition
    value (hive-style ``__prefix=2026-01-02``) so the layout is
    deterministic and resumable per-partition.

    ``batch_max_bytes`` (reference sink batching, sinkNode.go:105-117)
    maps to Ray's block-size target for THIS write: output files track
    blocks, so it bounds the target bytes per written file."""
    safe_fmt = filename_prefix.replace("/", "-")

    def tag(tbl: pa.Table) -> pa.Table:
        return derive_prefix(tbl, timestamp_key, safe_fmt)

    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    if batch_max_bytes:
        # bytes -> rows: sample the first few hundred transformed rows for
        # a bytes/row estimate (one cheap prefix execution), then let the
        # writer split at max_rows_per_file — the Ray-native equivalent of
        # the reference's buffered-bytes flush (sinkNode.go:105-117)
        sample = tagged.limit(512).take_batch(512, batch_format="pyarrow")
        bpr = max(sample.nbytes // max(sample.num_rows, 1), 1)
        write_kw["max_rows_per_file"] = max(int(batch_max_bytes) // bpr, 1)
    if filesystem is not None:
        write_kw["filesystem"] = filesystem
    tagged.write_parquet(path, partition_cols=[PREFIX_COL], **write_kw)
    return path
