"""Event-time windows over Ray Data (mandated extension, SURVEY.md §2b).

The reference has no windows (confirmed in SURVEY.md §2a, "Operators the
reference does NOT have"); these are the north-star extensions, designed
Ray-Data-first:

- tumbling / sliding window ASSIGNMENT is stateless per-row arithmetic on
  the int64 microsecond view of ``ts`` — a zero-copy ``map_batches`` stage
  (sliding emits one row per overlapping window via vectorized repeat);
- session windows need per-key gap merging — ``groupby(key).map_groups``
  over ts-sorted groups;
- windowed aggregation is TWO-PHASE: a per-block partial aggregate
  (pyarrow ``Table.group_by`` inside ``map_batches``) collapses each block
  to one row per (key, window) BEFORE the shuffle, then a small Ray
  ``groupby().aggregate`` merges partials. Hot keys (Zipf conversations)
  are thereby pre-collapsed per block — the shuffle moves partials, not
  rows, which is the salting-equivalent for commutative aggregates. An
  explicit ``add_salt`` helper covers the non-commutative cases.

All window columns are named deterministically (``window_start``) so DuckDB
oracles can reproduce them with epoch arithmetic.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

US = 1_000_000


def _ts_us(tbl: pa.Table, ts_col: str) -> pa.Array:
    col = tbl.column(ts_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.cast(pa.timestamp("us")).cast(pa.int64())


def assign_tumbling(tbl: pa.Table, ts_col: str = "ts", size_s: int = 60, out_col: str = "window_start") -> pa.Table:
    """Append ``out_col`` = floor(ts / size) * size as timestamp[us].

    Stateless; use as ``ds.map_batches(partial(assign_tumbling, size_s=60),
    batch_format="pyarrow")``. Epoch-anchored like SQL
    ``to_timestamp(floor(epoch(ts)/size)*size)``.
    """
    us = _ts_us(tbl, ts_col)
    size = size_s * US
    start = pc.multiply(pc.floor(pc.divide(pc.cast(us, pa.float64()), size)), float(size))
    start = pc.cast(start, pa.int64()).cast(pa.timestamp("us"))
    return tbl.append_column(out_col, start)


def assign_sliding(
    tbl: pa.Table,
    ts_col: str = "ts",
    size_s: int = 300,
    slide_s: int = 60,
    out_col: str = "window_start",
) -> pa.Table:
    """Flat-map: one output row per window overlapping each event
    (size/slide windows per row), vectorized via index-repeat + take.

    A row with time t belongs to windows starting in
    (t - size, t] stepped by slide, anchored at epoch.
    """
    if size_s % slide_s != 0:
        raise ValueError("size_s must be a multiple of slide_s")
    k = size_s // slide_s
    us = np.asarray(_ts_us(tbl, ts_col))
    slide = slide_s * US
    last_start = (us // slide) * slide  # latest window containing the row
    n = len(us)
    idx = np.repeat(np.arange(n, dtype=np.int64), k)
    offs = np.tile(np.arange(k, dtype=np.int64) * slide, n)
    starts = np.repeat(last_start, k) - offs
    keep = starts >= 0
    out = tbl.take(pa.array(idx[keep]))
    return out.append_column(out_col, pa.array(starts[keep]).cast(pa.timestamp("us")))


def expand_pane_partials(
    tbl: pa.Table,
    slide_s: int,
    k: int,
    pane_col: str = "__pane",
    window_col: str = "window_start",
) -> pa.Table:
    """One row per (pane partial, containing window): window_start =
    pane - j*slide for j in [0, k), dropped when negative. Replicates
    PARTIAL rows (one per key x pane per block), never events — the
    scale-safe form of sliding windows (round 1 replicated every event
    ``size/slide`` times)."""
    n = tbl.num_rows
    pane_us = np.asarray(tbl.column(pane_col).cast(pa.timestamp("us")).cast(pa.int64()))
    slide = slide_s * US
    idx = np.repeat(np.arange(n, dtype=np.int64), k)
    offs = np.tile(np.arange(k, dtype=np.int64) * slide, n)
    starts = np.repeat(pane_us, k) - offs
    keep = starts >= 0
    out = tbl.drop_columns([pane_col]).take(pa.array(idx[keep]))
    return out.append_column(window_col, pa.array(starts[keep]).cast(pa.timestamp("us")))


def sliding_windowed_aggregate(
    ds: rd.Dataset,
    keys: list[str],
    aggs: "Iterable[AggSpec]",
    ts_col: str = "ts",
    size_s: int = 7200,
    slide_s: int = 3600,
    window_col: str = "window_start",
) -> rd.Dataset:
    """Pane-based sliding windowed aggregate: per-block partials on the
    SLIDE pane (tumbling at slide_s, no replication), stateless expansion
    of each pane partial to its k = size/slide containing windows, then
    the usual small merge + finalize. Cost is linear in panes, not in
    k x events — identical results to row-replication assign_sliding."""
    if size_s % slide_s != 0:
        raise ValueError("size_s must be a multiple of slide_s")
    k = size_s // slide_s
    aggs = list(aggs)
    from functools import partial as _p

    panes = partial_aggregate(ds, keys, aggs, ts_col, slide_s, "__pane")
    expanded = panes.map_batches(
        _p(expand_pane_partials, slide_s=slide_s, k=k, window_col=window_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    group_cols = list(keys) + [window_col]
    merged = merge_partials(expanded, group_cols, aggs, None)
    return finalize_partials(merged, group_cols, aggs, None)


def sessionize(
    ds: rd.Dataset,
    key: str = "conv_id",
    ts_col: str = "ts",
    gap_s: int = 300,
    out_col: str = "session_id",
) -> rd.Dataset:
    """Session windows: per key, ts-sorted events closer than ``gap_s`` share
    a session. ``out_col`` is the 0-based session ordinal within the key.

    One bucketed shuffle (stages/keyed.py): the break/cumsum logic runs
    vectorized across every key in a bucket at once. Partitioning
    assumption: one bucket's rows fit one task's heap.
    """
    from vaero_ray.stages.keyed import bucketed_map_groups

    gap_us = gap_s * US

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts_col], kind="mergesort")
        ts = df[ts_col].astype("int64")
        same_key = df[key].eq(df[key].shift())
        brk = ((ts.diff() > gap_us) & same_key).astype("int64")
        df[out_col] = brk.groupby(df[key].to_numpy(), sort=False).cumsum()
        return df

    return bucketed_map_groups(ds, key, per_bucket)


def session_aggregate(
    ds: rd.Dataset,
    key: str = "conv_id",
    ts_col: str = "ts",
    gap_s: int = 300,
    aggs: "list[AggSpec] | None" = None,
    session_col: str = "session_id",
) -> rd.Dataset:
    """Fused sessionize + per-session aggregate in ONE bucketed shuffle.

    ``sessionize(...)`` followed by a grouped aggregate on
    (key, session_id) would shuffle twice; since session assignment
    already co-locates each key's rows in a bucket, the per-session
    aggregate runs vectorized in the same pandas pass. Output columns:
    key, session_col, aliases. Supported fns: count/sum/min/max/mean.
    """
    from vaero_ray.stages.keyed import bucketed_map_groups

    aggs = aggs or [AggSpec(None, "count", "n_events")]
    gap_us = gap_s * US

    # prune before the shuffle: the output only contains key/session/aliases,
    # so only key, ts and agg inputs need to move (dropping a text column
    # here cuts the exchange by ~20x on transcript tables)
    needed = {key, ts_col} | {a.col for a in aggs if a.col is not None}
    if set(ds.schema().names) - needed:
        ds = ds.select_columns(sorted(needed))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts_col], kind="mergesort")
        ts = df[ts_col].astype("int64")
        same_key = df[key].eq(df[key].shift())
        brk = ((ts.diff() > gap_us) & same_key).astype("int64")
        df[session_col] = brk.groupby(df[key].to_numpy(), sort=False).cumsum()
        g = df.groupby([key, session_col], sort=False)
        out: dict = {}
        for a in aggs:
            if a.fn == "count":
                out[a.alias] = g.size().astype("int64")
            elif a.fn == "mean":
                out[a.alias] = g[a.col].mean()
            elif a.fn == "sum":  # none but NaN or null: null, as in partial_table
                out[a.alias] = g[a.col].sum(min_count=1)
            else:
                out[a.alias] = getattr(g[a.col], a.fn)()
                if pd.api.types.is_datetime64_any_dtype(df[a.col]):
                    out[a.alias] = out[a.alias].astype("datetime64[us]")
        return pd.DataFrame(out).reset_index()

    return bucketed_map_groups(ds, key, per_bucket)


class AggSpec:
    """(col, fn, alias) with fn in sum|count|min|max|mean."""

    def __init__(self, col: str | None, fn: str, alias: str):
        if fn not in ("sum", "count", "min", "max", "mean"):
            raise ValueError(f"unsupported agg fn: {fn}")
        self.col, self.fn, self.alias = col, fn, alias


def _plan_partials(aggs: list[AggSpec]) -> tuple[list[tuple[str, str]], bool]:
    """Partial-column plan: (col, fn) pyarrow group_by aggs + whether a
    row count must be carried (for count finalization). A mean carries
    the sum and the count of its column's values."""
    pa_aggs: list[tuple[str, str]] = []
    need_count = False
    for a in aggs:
        if a.fn == "count":
            need_count = True
        elif a.fn == "mean":
            pa_aggs += [(a.col, "sum"), (a.col, "count")]
        else:
            pa_aggs.append((a.col, a.fn))
    return sorted(set(pa_aggs)), need_count


def partial_table(
    tbl: pa.Table,
    keys: list[str],
    aggs: list[AggSpec],
    ts_col: str = "ts",
    size_s: int | None = 60,
    window_col: str = "window_start",
) -> pa.Table:
    """Phase 1 on one table: assign tumbling windows, collapse the table
    to one MERGEABLE partial row per (keys..., window) via pyarrow
    ``group_by``. Partial columns: ``{col}_{fn}`` + ``__pcount``.
    Partials of partials merge associatively (sum of sums, min of mins…) —
    the property the streaming engine uses to carry open-window state
    across epochs. A NaN is a null: sum, min, max and mean skip both,
    and a group with no other value gets null."""
    group_cols = list(keys) + ([window_col] if size_s is not None else [])
    pa_aggs_dedup, need_count = _plan_partials(aggs)
    if size_s is not None:
        tbl = assign_tumbling(tbl, ts_col, size_s, window_col)
    for col in {c for c, _ in pa_aggs_dedup}:
        v = tbl.column(col)
        if pa.types.is_floating(v.type):
            tbl = tbl.set_column(tbl.schema.get_field_index(col), col, pc.if_else(pc.is_nan(v), None, v))
    gb_aggs = list(pa_aggs_dedup)
    if need_count or not gb_aggs:
        # every row, a null key's too (a count of a key column skips nulls)
        gb_aggs.append(([], "count_all"))
    # single-threaded: a threaded float sum adds its rows in a grouping
    # that depends on the CPU count, and the partials are committed state
    out = tbl.group_by(group_cols, use_threads=False).aggregate(gb_aggs)
    if need_count or not pa_aggs_dedup:
        out = out.rename_columns([c if c != "count_all" else "__pcount" for c in out.column_names])
    # canonical us timestamps in partials (stable across state round-trips)
    return _canon_us_tbl(out)


def partial_aggregate(
    ds: rd.Dataset,
    keys: list[str],
    aggs: list[AggSpec],
    ts_col: str = "ts",
    size_s: int | None = 60,
    window_col: str = "window_start",
) -> rd.Dataset:
    """Phase 1 (map_batches, NO shuffle): ``partial_table`` per block."""
    from functools import partial as _p

    fn = _p(partial_table, keys=keys, aggs=aggs, ts_col=ts_col, size_s=size_s, window_col=window_col)
    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def merge_partials(
    partials: rd.Dataset,
    keys: list[str],
    aggs: list[AggSpec],
    size_s: int | None = 60,
    window_col: str = "window_start",
    backend: str = "native",
    num_buckets: int | None = None,
) -> rd.Dataset:
    """Phase 2 (the one shuffle): merge partial columns (sum of
    sums/counts, min of mins, max of maxes). Idempotent under
    re-merging — streaming unions previous state with new partials and
    calls this again.

    ``backend="native"`` (default) is Ray ``groupby().aggregate`` —
    right for the typical windowed job (1-2 agg columns, few keys:
    map-side combine, no empty-bucket partitions). ``"bucketed"``
    routes through ONE ``keyed.bucketed_keyed_agg`` hash exchange —
    pick it when the job carries MANY partial columns or high-
    cardinality keys (e.g. the streaming dedup job: 5 partial columns
    keyed by event id), where the native path pays its fixed cost per
    aggregated column (engine-wide lesson from the pivot/set-op
    merges: 12.4 -> 1.0 s and 9.5 -> 3.1 s at sf0.1)."""
    group_cols = list(keys) + ([window_col] if size_s is not None else [])
    pa_aggs_dedup, need_count = _plan_partials(aggs)
    if backend == "bucketed":
        from vaero_ray.stages.keyed import bucketed_keyed_agg

        plan = {f"{c}_{fn}": ("sum" if fn in ("sum", "count") else fn) for c, fn in pa_aggs_dedup}
        if need_count or not pa_aggs_dedup:
            plan["__pcount"] = "sum"
        merged = bucketed_keyed_agg(partials, group_cols, plan, num_buckets=num_buckets)
        return merged.map_batches(_canon_us_tbl, batch_format="pyarrow", zero_copy_batch=True)
    ray_aggs = []
    for col, fn in pa_aggs_dedup:
        pname = f"{col}_{fn}"
        if fn in ("sum", "count"):
            ray_aggs.append(Sum(pname, alias_name=pname))
        elif fn == "min":
            ray_aggs.append(Min(pname, alias_name=pname))
        elif fn == "max":
            ray_aggs.append(Max(pname, alias_name=pname))
    if need_count or not pa_aggs_dedup:
        ray_aggs.append(Sum("__pcount", alias_name="__pcount"))
    merged = partials.groupby(group_cols).aggregate(*ray_aggs)
    return merged.map_batches(_canon_us_tbl, batch_format="pyarrow", zero_copy_batch=True)


def _canon_us_tbl(tbl: pa.Table) -> pa.Table:
    # Ray's aggregate (and pandas round-trips in the bucketed merge)
    # can re-emit timestamps as [s]/[ns] — normalize to canonical us so
    # downstream epoch arithmetic (window close, state round-trips)
    # stays exact
    for i, name in enumerate(tbl.column_names):
        if pa.types.is_timestamp(tbl.column(i).type):
            tbl = tbl.set_column(i, name, tbl.column(i).cast(pa.timestamp("us")))
    return tbl


def merge_partial_tables(tables: list[pa.Table], group_cols: list[str], aggs: list[AggSpec]) -> pa.Table:
    """Pure-table phase 2: merge partial tables (associative: sum of sums
    and of counts, min of mins, max of maxes). The streaming
    windowed job's reduce tasks (streaming/job.py) merge live partials
    with carried state through it."""
    pa_aggs_dedup, need_count = _plan_partials(list(aggs))
    plan: list[tuple[str, str]] = []
    for col, fn in pa_aggs_dedup:
        plan.append((f"{col}_{fn}", "sum" if fn in ("sum", "count") else fn))
    if need_count or not pa_aggs_dedup:
        plan.append(("__pcount", "sum"))
    cols = group_cols + [p for p, _ in plan]
    tbl = pa.concat_tables([t.select(cols) for t in tables], promote_options="default")
    out = tbl.group_by(group_cols, use_threads=False).aggregate(plan)  # as in partial_table
    out = out.rename_columns(group_cols + [p for p, _ in plan])
    for i, name in enumerate(out.column_names):
        if pa.types.is_timestamp(out.column(i).type):
            out = out.set_column(i, name, out.column(i).cast(pa.timestamp("us")))
    return out


def finalize_table(tbl: pa.Table, group_cols: list[str], aggs: list[AggSpec]) -> pa.Table:
    """Pure-table phase 3: partial columns -> user-facing aliases; mean =
    sum/count of the values; timestamps normalized to us. Used by the
    Dataset wrapper below and directly by the streaming windowed job's
    reduce tasks."""
    cols: dict[str, pa.ChunkedArray | pa.Array] = {c: tbl.column(c) for c in group_cols}
    for a in aggs:
        if a.fn == "count":
            cols[a.alias] = tbl.column("__pcount")
        elif a.fn == "mean":
            cols[a.alias] = pc.divide(
                pc.cast(tbl.column(f"{a.col}_sum"), pa.float64()),
                pc.cast(tbl.column(f"{a.col}_count"), pa.float64()),
            )
        else:
            cols[a.alias] = tbl.column(f"{a.col}_{a.fn}")
    # normalize every timestamp to us — Ray's shuffle/groupby machinery
    # can round-trip keys through numpy/pandas and come back as [s]/[ns]
    cols = {
        k: (v.cast(pa.timestamp("us")) if pa.types.is_timestamp(_type_of(v)) else v)
        for k, v in cols.items()
    }
    return pa.table(cols)


def finalize_partials(
    merged: rd.Dataset,
    keys: list[str],
    aggs: list[AggSpec],
    size_s: int | None = 60,
    window_col: str = "window_start",
) -> rd.Dataset:
    """Phase 3 (stateless Dataset stage): see finalize_table."""
    group_cols = list(keys) + ([window_col] if size_s is not None else [])
    return merged.map_batches(
        lambda t: finalize_table(t, group_cols, aggs),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def windowed_aggregate(
    ds: rd.Dataset,
    keys: list[str],
    aggs: Iterable[AggSpec],
    ts_col: str = "ts",
    size_s: int | None = 60,
    window_col: str = "window_start",
) -> rd.Dataset:
    """Two-phase grouped aggregate, optionally windowed: partial per block
    (no shuffle) -> merge (one shuffle) -> finalize (stateless). The three
    phases are exposed separately for the streaming engine, which inserts
    its carried open-window state between partial and merge."""
    aggs = list(aggs)
    partials = partial_aggregate(ds, keys, aggs, ts_col, size_s, window_col)
    merged = merge_partials(partials, keys, aggs, size_s, window_col)
    return finalize_partials(merged, keys, aggs, size_s, window_col)


def aggregate_table(
    tbl: pa.Table,
    keys: list[str],
    aggs: list[AggSpec],
    ts_col: str = "ts",
    size_s: int | None = 60,
    window_col: str = "window_start",
) -> pa.Table:
    """``windowed_aggregate`` over one table: ``partial_table`` then
    ``finalize_table``, every number widened to 64 bits, as the Dataset
    version's Ray aggregate returns them."""
    group = list(keys) + ([window_col] if size_s is not None else [])
    out = finalize_table(partial_table(tbl, keys, aggs, ts_col, size_s, window_col), group, aggs)

    def wide(t: pa.DataType) -> pa.DataType:
        if pa.types.is_integer(t) and t.bit_width < 64:
            return pa.int64()
        return pa.float64() if pa.types.is_floating(t) else t

    return out.cast(pa.schema([f.with_type(wide(f.type)) for f in out.schema]))


def _type_of(v: pa.ChunkedArray | pa.Array) -> pa.DataType:
    return v.type


def add_salt(tbl: pa.Table, n_salts: int = 16, out_col: str = "salt") -> pa.Table:
    """Uniform salt column for explicitly salted two-step shuffles of
    non-commutative group logic on hot keys: group on (key, salt) first,
    then merge the per-salt results on key alone (SURVEY.md §2b skew row).
    Deterministic (row-position based within the block)."""
    n = tbl.num_rows
    return tbl.append_column(out_col, pa.array(np.arange(n, dtype=np.int64) % n_salts))


def salted_distinct_count(
    ds: rd.Dataset,
    key: str,
    value_col: str,
    alias: str = "n_distinct",
    num_buckets: int = 32,
) -> rd.Dataset:
    """EXACT distinct count per key via value-salted two-step aggregation
    (the north_rule's salted-hash-partition pattern for an aggregate that
    is NOT partial-collapsible: block-level counts of distinct values
    don't merge).

    1. block-local dedup of (key, value) pairs (pyarrow group_by — shrinks
       the exchange to distinct-per-block);
    2. shuffle by hash(value): every distinct value lands in EXACTLY ONE
       bucket, so per-bucket per-key distinct counts are disjoint — a hot
       key's values spread across all buckets (no single task sees the
       whole key);
    3. tiny merge: sum the per-bucket partial counts per key.
    """
    from vaero_ray.stages.keyed import bucketed_map_groups

    def block_dedup(tbl: pa.Table) -> pa.Table:
        return tbl.select([key, value_col]).group_by([key, value_col]).aggregate([])

    def bucket_count(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(subset=[key, value_col])
        out = d.groupby(key, sort=False).size().rename("__partial").reset_index()
        out["__partial"] = out["__partial"].astype("int64")
        return out

    deduped = ds.map_batches(block_dedup, batch_format="pyarrow", zero_copy_batch=True)
    partials = bucketed_map_groups(deduped, value_col, bucket_count, num_buckets)
    return windowed_aggregate(
        partials, keys=[key], aggs=[AggSpec("__partial", "sum", alias)], size_s=None
    )
