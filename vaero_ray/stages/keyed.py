"""Bucketed keyed shuffle: the scale-path replacement for per-group
``groupby(key).map_groups``.

Ray Data's ``map_groups`` invokes the UDF once per group; with millions of
small conversations that is millions of Python calls + DataFrame
constructions — per-call overhead dominates (measured ~10x the useful
work on the transcript fixtures). The engine's keyed stages instead:

1. append ``__bucket = hash64(key) % num_buckets`` in a stateless
   zero-copy ``map_batches`` stage (deterministic pandas siphash, stable
   across processes — required for resumable/checkpointed runs);
2. ``groupby("__bucket").map_groups(fn)`` — ONE UDF call per bucket, same
   single all-to-all exchange as grouping by the key itself (a bucket is
   a coarser unit of the same partitioning);
3. ``fn`` receives every row of the bucket and applies VECTORIZED pandas
   group logic (``groupby(key).cumcount()/cumsum()/agg``) across all keys
   in the bucket at once.

Partitioning assumption (document per call site): one bucket's rows fit in
one task's heap — pick ``num_buckets`` >= dataset_bytes / target_task_mem.
All keys of one conversation land in one bucket by construction, so any
per-key logic stays correct.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

BUCKET_COL = "__bucket"
# sizing floor: testdata fits comfortably; bucketed_map_groups derives a
# larger count from input-file metadata when the dataset's read lineage
# is resolvable (see derive_num_buckets), and 100 TB runs can always pass
# an explicit num_buckets ~ input_bytes / TARGET_TASK_BYTES
DEFAULT_BUCKETS = 64
# one bucket's rows must fit one task's heap: target ~256 MB of on-disk
# parquet per bucket (~3x that in memory for text-heavy tables)
TARGET_TASK_BYTES = 256 << 20
_EXPANSION = 3  # parquet-on-disk -> in-memory expansion estimate
MAX_DERIVED_BUCKETS = 65536


def input_file_bytes(ds: rd.Dataset) -> "int | None":
    """Total LOCAL input-file bytes of a dataset's read lineage — pure
    metadata (``ds.size_bytes()`` would execute the pipeline just to
    size it, a full scan at corpus scale). None when not resolvable
    (derived/in-memory datasets, remote URIs)."""
    import os

    try:
        files = ds.input_files() or []
    except Exception:
        return None
    if not files:
        return None
    sz = 0
    for f in files:
        p = f[len("local://"):] if f.startswith("local://") else f
        if "://" in p or not os.path.exists(p):
            return None
        sz += os.path.getsize(p)
    return sz


def lineage_inmemory_bytes(ds: rd.Dataset) -> "int | None":
    """Estimated in-memory bytes of a dataset's READ lineage, resolvable
    even through map_batches/filter (which sever ``input_files()``): walk
    the logical plan for Read operators and sum the datasources' own
    ``estimate_inmemory_data_size()`` (pure parquet-footer metadata — no
    execution). The estimate ignores filters/projections between the read
    and the consumer, so it is an UPPER bound — the safe direction for
    sizing shuffle partitions. None when no Read op is reachable
    (from_pandas/from_arrow datasets) or the internal plan API moves."""
    try:
        from ray.data._internal.logical.operators.read_operator import Read

        total = 0
        seen_read = False
        stack = [ds._logical_plan.dag]
        while stack:
            op = stack.pop()
            if isinstance(op, Read):
                seen_read = True
                est = op._datasource.estimate_inmemory_data_size()
                if est is None:
                    return None
                total += int(est)
            stack.extend(op.input_dependencies)
        return total if seen_read else None
    except Exception:
        return None


def _session_cpus(n_cpus: "int | None" = None) -> int:
    if n_cpus is not None:
        return n_cpus
    import ray as _ray

    return int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8


def snap_to_cpu_band(need: int, n_cpus: "int | None" = None) -> int:
    """The join partition-count snap rule (stages/joins.hash_join),
    shared by every bytes-derived exchange: a bytes-derived count that
    lands in the [cpus/3, 2*cpus] band becomes exactly the CPU count.
    Bucket/partition count is the parallelism every post-exchange stage
    inherits (output blocks = buckets), and one full wave of cores beats
    both a starved under-count and per-object slicing churn — measured
    on the 32M-turn join rehearsal (derived 15 -> 260 s, snapped 30 ->
    194 s, 45 -> 223 s at 32 CPUs). Below the band the caller's floor
    governs; above it the bytes rule governs (bounds per-task heap at
    256-node scale)."""
    n_cpus = _session_cpus(n_cpus)
    if n_cpus // 3 <= need <= 2 * n_cpus:
        return n_cpus
    return need


def derive_num_buckets(
    ds: rd.Dataset,
    target_task_bytes: int = TARGET_TASK_BYTES,
    floor: "int | None" = None,
    n_cpus: "int | None" = None,
) -> int:
    """Bucket count from input-file metadata: enough buckets that one
    bucket's in-memory rows (~3x the parquet bytes) fit one task's
    ~``target_task_bytes`` heap budget, SNAPPED to the CPU count when
    the bytes-derived count lands in the [cpus/3, 2*cpus] band (same
    rule as hash_join — see :func:`snap_to_cpu_band`), and capped at
    ``MAX_DERIVED_BUCKETS`` (beyond that, callers should size
    explicitly). map_batches severs ``input_files()``, so DERIVED
    datasets fall back to the read lineage's in-memory estimate
    (``lineage_inmemory_bytes`` — parquet-footer metadata resolvable
    through map stages; an UPPER bound, the safe direction for shuffle
    sizing).

    ``floor``: explicit values always win as the minimum (callers that
    pre-scale for a known explosion factor, e.g. winnow's fingerprint
    blowup); default ``DEFAULT_BUCKETS``. The snap therefore governs the
    LARGE-derived regime (a corpus whose bytes-derived count lands in
    the band of a big cluster's CPU count), while small inputs keep the
    64-bucket floor — a round-5 sweep that floored resolved tiny inputs
    at cpus/4 instead was measured 10-30% SLOWER across the sf0.1
    bucketed gates (8 per-bucket tasks starve a 32-CPU box) and
    reverted."""
    sz = input_file_bytes(ds)
    if sz:
        est = _EXPANSION * sz
    else:
        est = lineage_inmemory_bytes(ds)
        if not est:
            return floor if floor is not None else DEFAULT_BUCKETS
    derived = snap_to_cpu_band(int((est + target_task_bytes - 1) // target_task_bytes), n_cpus)
    lo = floor if floor is not None else DEFAULT_BUCKETS
    return max(lo, min(derived, MAX_DERIVED_BUCKETS))


def hash_bucket(values, num_buckets: int) -> np.ndarray:
    """Deterministic (cross-process) bucket of a key array. An Arrow key
    column is hashed as the pandas column it converts to, except that an
    integer column with nulls hashes its values as integers, not as the
    float64 pandas would hold them in, so a key's bucket never depends
    on a null in another row; a null hashes as NaN."""
    nulls = None
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        if pa.types.is_integer(values.type) and values.null_count:
            nulls = np.asarray(pc.is_null(values))
            values = pc.fill_null(values, 0)
        values = values.to_pandas()
    arr = values.to_numpy() if hasattr(values, "to_numpy") else np.asarray(values)
    if arr.dtype == object or arr.dtype.kind in "USO":
        h = pd.util.hash_array(arr.astype(object), categorize=False)
    else:
        h = pd.util.hash_array(arr, categorize=False)
    if nulls is not None:
        h[nulls] = pd.util.hash_array(np.array([np.nan]), categorize=False)[0]
    return (h % num_buckets).astype("int64")


def bucketed_map_groups(
    ds: rd.Dataset,
    key: str,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    num_buckets: int | None = None,
) -> rd.Dataset:
    """One shuffle; ``fn`` sees each bucket (all rows of ``num_buckets``-th
    of the key space) as one DataFrame WITHOUT the bucket column and must
    itself group by ``key`` (vectorized). ``num_buckets=None`` derives the
    count from input-file metadata (``derive_num_buckets``); explicit
    values always win."""
    if num_buckets is None:
        num_buckets = derive_num_buckets(ds)

    def tag(tbl: pa.Table) -> pa.Table:
        col = tbl.column(key).to_pandas()
        # metadata strip: pandas-built blocks (rd.from_pandas) carry the
        # dict-valued blob that defeats shuffle schema-dedup hashing
        if tbl.schema.metadata:
            tbl = tbl.replace_schema_metadata(None)
        return tbl.append_column(BUCKET_COL, pa.array(hash_bucket(col, num_buckets)))

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        out = fn(df.drop(columns=[BUCKET_COL]))
        # emit arrow with NO pandas schema metadata: the dict-valued
        # metadata defeats Ray's schema-dedup hashing (one warning per
        # block) and bloats every block header
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return tagged.groupby(BUCKET_COL).map_groups(per_bucket, batch_format="pandas")


def bucketed_keyed_sum(
    ds: rd.Dataset,
    keys: "list[str]",
    sum_cols: "list[str]",
    num_buckets: int | None = None,
    agg: str = "sum",
) -> rd.Dataset:
    """Merge per-block partial rows by summing ``sum_cols`` per ``keys``
    — the engine's replacement for ``groupby(keys).aggregate(Sum, ...)``
    over MANY-small-partial-blocks inputs: Ray's sort-based Aggregate
    costs seconds PER aggregated column on hundreds of tiny blocks
    (measured on the pivot merge 12.4 -> 1.0 s and the set-op flags
    9.5 -> ~3 s at sf0.1), while one hash-bucket exchange + a vectorized
    per-bucket pandas groupby-sum is a single all-to-all of the same
    partial rows. Buckets on ``keys[0]`` — a valid partition of the full
    key (equal composite keys share every column). ``agg`` picks the
    reduction ("sum"/"max"/"min" — anything pandas groupby exposes);
    ``dropna=False`` keeps NULL key groups, SQL GROUP BY semantics (the
    pandas default silently drops them — review-caught regression)."""

    def merge_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, as_index=False, dropna=False)[sum_cols]
        return getattr(g, agg)()

    return bucketed_map_groups(ds, keys[0], merge_bucket, num_buckets=num_buckets)


def bucketed_keyed_agg(
    ds: rd.Dataset,
    keys: "list[str]",
    plan: "dict[str, str]",
    num_buckets: int | None = None,
) -> rd.Dataset:
    """Mixed-reduction variant of ``bucketed_keyed_sum``: merge partial
    rows per ``keys`` with a DIFFERENT pandas reduction per column
    (``{col: "sum"|"min"|"max"}``) in one hash-bucket exchange. Exists
    for the same measured reason: Ray's sort-based ``aggregate`` costs
    seconds PER AGGREGATED COLUMN over many tiny partial blocks, so a
    5-column merge (e.g. a streaming dedup job carrying min() payload +
    forced wm/count partials) pays ~5x the fixed cost; here every column
    rides the one exchange. Same NULL-key (``dropna=False``) and
    composite-key contracts as bucketed_keyed_sum."""

    def merge_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, as_index=False, dropna=False)
        return g.agg(plan)

    return bucketed_map_groups(ds, keys[0], merge_bucket, num_buckets=num_buckets)


def compact_small_blocks(mat: rd.MaterializedDataset) -> rd.MaterializedDataset:
    """Compact a MATERIALIZED dataset whose block count is pathological
    for its size — Ray's sort/hash shuffles emit ~2x-cpus output
    partitions regardless of how many buckets hold data, so a bucketed
    stage's materialized output is often mostly EMPTY blocks (measured:
    64 blocks / 56 empty at sf0.1), and every downstream EXECUTION then
    pays ~2 s of empty-task scheduling. Iterative algorithms and
    multi-consumer plans (joins over materialized count tables) pay it
    repeatedly.

    Heuristic: target ~64k rows per block (floor 8); repartition only
    when the actual block count exceeds 4x the target, so corpus-sized
    datasets with healthy blocks are left untouched (metadata-only
    check — count() and num_blocks() are free on materialized data)."""
    rows = mat.count()
    target = max(8, min(64, rows // 65536 + 1))
    if mat.num_blocks() > 4 * target:
        return mat.repartition(target).materialize()
    return mat


def _spread16(v: np.ndarray) -> np.ndarray:
    """Spread the low 16 bits of each uint64 onto even bit positions
    (0,2,4,..,30) — the standard mask-shift Morton dilation."""
    v = v.astype(np.uint64) & np.uint64(0xFFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x33333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x55555555)
    return v


def morton16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """32-bit Morton (Z-order) code interleaving the low 16 bits of
    ``a`` (even positions) and ``b`` (odd positions) — the
    multi-dimensional data-layout key: sorting/partitioning output files
    by the interleaved code co-locates rows that are close in BOTH
    dimensions (e.g. user x hour), so a 100-TB scan with predicates on
    either dimension prunes row groups instead of reading everything
    (the Z-order clustering trick of Delta/Iceberg OPTIMIZE, expressed
    here as a plain vectorized key you hand to ``ds.sort`` /
    ``write_parquet`` partitioning). Bit-exact in SQL via 16 shift-mask
    terms per dimension."""
    return (_spread16(a) | (_spread16(b) << np.uint64(1))).astype(np.int64)
