"""Streaming windowed aggregation: tumbling and sliding event-time
windows with watermarks, carried open-window state, and the exactly-once
checkpointed sink.

Model (SURVEY.md §2b, §3.4): the stream is a growing directory of Parquet
files. Each epoch deterministically claims the next unconsumed files
(sorted order) and runs one step —

  read(epoch files)
    -> stateless transform              (row-preserving table function)
    -> partials                         (mergeable: one row per key x window)
    -> union(carried state) -> merge
    -> split late/closed/open on the previous and new watermark
         closed -> finalize -> deterministic per-partition Parquet + lineage
         open   -> state snapshot (same deterministic writer)
    -> fsync'd atomic manifest commit   (driver.py, in the job's process)

A small epoch runs the step over pyarrow tables in the job's own
process (``window_step``, see step.py), which opens each input and state
file once and returns before reading any data when their footers exceed
the budget; such an epoch then runs as a Ray Data plan
(``_dataset_step``: per-block partials, a merge shuffle,
hash-partitioned writes). Both write the same bytes.

Watermark: wm_k = max(wm_{k-1}, max event ts in epoch k - allowed_lateness).
A window [s, s+size) closes when wm >= s+size; rows arriving for an
already-closed window are LATE and dropped (counted in metrics) — the
exactly-once contract is over non-late data, matching the north_star
("for the same input stream and watermark").

Determinism / resume: the epoch loop, claim, commit and metrics are
driver.py's, shared by every streaming job; this module supplies the
windowed step.

Scale: the Dataset plan's shuffles move PARTIALS (one row per key x
window per block), not events. Open-window state is Parquet re-read each
epoch. An epoch's closed-window output and its open-window state are
each hash-partitioned on the first key into ``file_partitions`` files:
one per ``sink.ROW_GROUP_ROWS`` rows of input plus carried state, at most
``num_partitions`` (one output file and one state file for any epoch
under 2^20 rows). An epoch under ``step.SMALL_EPOCH_BYTES`` holds its
rows in the job's process; a larger one leaves them in the Ray Data
plan's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from vaero_ray.io import read_parquet as _read_pq

from vaero_ray.stages.windows import (
    AggSpec,
    US,
    expand_pane_partials,
    finalize_partials,
    finalize_table,
    merge_partial_tables,
    merge_partials,
    partial_aggregate,
    partial_table,
)
from vaero_ray.streaming import step
from vaero_ray.streaming.checkpoint import lineage_entry
from vaero_ray.streaming.driver import WM_FINAL, WM_MIN, Claim, EpochDriver, StepResult, advance_watermark
from vaero_ray.streaming.sink import ROW_GROUP_ROWS, write_deterministic


def windows_ending_in(tbl: pa.Table, window_col: str, size_us: int, lo_us: int, hi_us: int) -> pa.Table:
    """Rows of windows whose end lies in (lo_us, hi_us]: late windows end
    at or before the previous watermark, closed ones between the previous
    and the new watermark, open ones after the new watermark."""
    wend = pc.add(pc.cast(tbl.column(window_col), pa.int64()), size_us)
    return tbl.filter(pc.and_(pc.greater(wend, lo_us), pc.less_equal(wend, hi_us)))


def file_partitions(rows_in: int, lineage_rows: dict, num_partitions: int) -> int:
    """How many hash partitions hold an epoch's closed-window output, and
    how many its open-window state: one per ``ROW_GROUP_ROWS`` rows of
    input (``rows_in``, from the footers) plus carried state
    (``lineage_rows``, path -> rows), at least one, at most
    ``num_partitions``. Both steps know these counts before reading any
    data, so they split output and state alike and write the same files."""
    rows = rows_in + sum(lineage_rows.values())
    return min(num_partitions, max(1, -(-rows // ROW_GROUP_ROWS)))


def _unified_partials(parts: list[pa.Table]) -> list[pa.Table]:
    # a state file written before the canonical writer kept integer types
    # holds an integer partial with nulls as float64 where the live
    # partials or another state file hold int64; promote all of them to
    # the common type, as the Dataset step's merge shuffle does
    schema = pa.unify_schemas([p.schema for p in parts], promote_options="permissive")
    return [p.cast(pa.schema([schema.field(n) for n in p.column_names])) for p in parts]


def _int64_partials(tbl: pa.Table, group_cols: list[str]) -> pa.Table:
    # the native merge (Ray's Sum/Min/Max) widens integer partials to
    # int64, the bucketed one (pandas) keeps their type; the table merge
    # must emit the same types for the two steps to write the same bytes
    for i, f in enumerate(tbl.schema):
        if f.name not in group_cols and pa.types.is_integer(f.type) and f.type != pa.int64():
            tbl = tbl.set_column(i, f.name, tbl.column(i).cast(pa.int64()))
    return tbl


def window_step(
    *,
    epoch: int,
    files: list[str],
    state_files: list[str],
    lineage_rows: dict,
    prev_wm: int,
    finalize: bool,
    state_path: str,
    budget: int,
    keys: list[str],
    aggs: list[AggSpec],
    state_aggs: list[AggSpec],
    ts_col: str,
    size_s: int,
    slide_s: int | None,
    window_col: str,
    allowed_lateness_s: int,
    merge_backend: str,
    num_partitions: int,
    out_dir: str,
    columns: list[str] | None,
    transform: "Callable[[pa.Table], pa.Table] | None",
) -> StepResult | None:
    """One windowed epoch over pyarrow tables in one process (step.py):
    read -> transform -> partials -> union previous state -> merge ->
    late/closed/open split -> finalize -> hash-partitioned writes. Returns
    None, having read no data, when the footers of ``files`` and
    ``state_files`` exceed ``budget`` bytes."""
    group_cols = list(keys) + [window_col]
    timer = step.PhaseTimer()
    with timer("read_s"):
        live, state = step.open_files(files), step.open_files(state_files, lineage_rows)
        counts = step.footer_counts(live, state)
        if counts["bytes_in"] + counts["state_bytes_in"] > budget:
            return None
        live = step.read_table(live, columns) if live else None
        state = [step.read_table([pf]) for pf in state]  # each file keeps its own types
    with timer("compute_s"):
        parts = []
        if live is not None:
            if transform is not None:
                live = transform(live)
            if slide_s is None:
                parts.append(partial_table(live, keys, state_aggs, ts_col, size_s, window_col))
            else:
                panes = partial_table(live, keys, state_aggs, ts_col, slide_s, "__pane")
                parts.append(expand_pane_partials(panes, slide_s, size_s // slide_s, window_col=window_col))
        parts.extend(state)
    if not parts:
        wm = advance_watermark(prev_wm, None, allowed_lateness_s, finalize)
        return StepResult(wm, **counts, step="task", phases=timer.report())
    with timer("compute_s"):
        if merge_backend == "native":
            parts = [_int64_partials(p, group_cols) for p in parts]
        merged = merge_partial_tables(_unified_partials(parts), group_cols, state_aggs)
        mx = pc.max(merged.column(f"{ts_col}_max"))
        epoch_max_ts = mx.cast(pa.int64()).as_py() if mx.is_valid else None
        new_wm = advance_watermark(prev_wm, epoch_max_ts, allowed_lateness_s, finalize)
        split = partial(windows_ending_in, merged, window_col, size_s * US)
        late = split(WM_MIN, prev_wm)
        closed = finalize_table(split(prev_wm, new_wm), group_cols, aggs)
        open_ = split(new_wm, WM_FINAL).select(sorted(merged.column_names))
    with timer("write_s"):
        n_files = file_partitions(counts["rows_in"], lineage_rows, num_partitions)
        partitions = step.write_partitions(closed, out_dir, epoch, keys[0], n_files)
        state_lineage = step.write_partitions(open_, state_path, epoch, keys[0], n_files)
    return StepResult(
        new_wm,
        partitions,
        state_lineage,
        rows_late=pc.sum(late.column("__pcount")).as_py() or 0,
        **counts,
        epoch_max_ts=epoch_max_ts,
        step="task",
        phases=timer.report(),
    )


def _lineage(tbl: pa.Table) -> dict:
    return {str(r["partition"]): lineage_entry(r["rows"], r["path"], r["sha256"]) for r in tbl.to_pylist()}


@dataclass
class StreamingWindowedJob(EpochDriver):
    input_dir: str
    out_dir: str
    ckpt_dir: str
    keys: list[str]
    aggs: list[AggSpec]
    ts_col: str = "ts"
    size_s: int = 3600
    slide_s: int | None = None  # sliding windows: emit one row per overlap
    window_col: str = "window_start"
    allowed_lateness_s: int = 0
    # per-epoch ROW-PRESERVING table function on the live input
    # (derive/cast columns, e.g. fixed-point money to int64 before the
    # partials). Must keep the row count: rows_in comes from parquet
    # metadata while late accounting sums post-transform partials, so
    # collapsing/expanding rows corrupts rows_late silently.
    transform: Callable[[pa.Table], pa.Table] | None = None
    # upper bound on the hash partitions of each epoch's output (closed
    # windows) and of its open-window state (``file_partitions``)
    num_partitions: int = 8
    max_files_per_epoch: int = 1
    extra_read_kw: dict = field(default_factory=dict)
    # phase-2 merge: "native" (Ray aggregate — right for 1-2 agg
    # columns over few keys) or "bucketed" (one keyed.bucketed_keyed_agg
    # hash exchange — right for many partial columns / high-cardinality
    # keys, e.g. dedup-by-id jobs; see windows.merge_partials). Epochs
    # small enough for the pyarrow step (step.py) merge in pyarrow and
    # keep the chosen backend's output types.
    merge_backend: str = "native"
    # called at the top of every epoch (reference re-checks secret
    # staleness each poll, execute.go:84-96); from_graph wires this to
    # SecretResolver.maybe_refresh so rotated credentials are re-resolved
    # mid-job instead of 401-ing a week-long run
    secret_refresh: Callable[[], None] | None = None

    op = "window"

    def __post_init__(self):
        super().__post_init__()
        # internal: always carry max(ts) in partials to advance the
        # watermark without a second pass over the input (dedups with any
        # user max(ts) agg via _plan_partials), and ALWAYS carry __pcount
        # (forced count agg) — the late-row accounting below sums it, and
        # without the forced entry a sum/min/max-only job would emit no
        # __pcount column at all.
        self._state_aggs = list(self.aggs) + [
            AggSpec(self.ts_col, "max", "__wm_ts"),
            AggSpec(None, "count", "__force_pcount"),
        ]
        # tumbling and sliding windows both group merged partials by
        # (keys..., window start)
        self._group_cols = list(self.keys) + [self.window_col]
        if self.slide_s is not None and self.size_s % self.slide_s != 0:
            raise ValueError("size_s must be a multiple of slide_s")

    def _live_partials(self, ds: rd.Dataset) -> rd.Dataset:
        """Window assignment + phase-1 partials for this job's window kind.
        Tumbling: assignment inside partial_aggregate. Sliding: stateless
        flat-map (one row per overlapping window) first, then the window
        column acts as an extra group key — the close/late arithmetic
        (window_end = window_start + size) is identical."""
        if self.slide_s is None:
            return partial_aggregate(
                ds, self.keys, self._state_aggs, self.ts_col, self.size_s, self.window_col
            )
        # pane-based sliding: per-block partials on the SLIDE pane, then a
        # stateless expansion of each pane partial to its k containing
        # windows — replicates partials, never events (windows.py
        # sliding_windowed_aggregate rationale)
        panes = partial_aggregate(
            ds, self.keys, self._state_aggs, self.ts_col, self.slide_s, "__pane"
        )
        return panes.map_batches(
            partial(
                expand_pane_partials,
                slide_s=self.slide_s,
                k=self.size_s // self.slide_s,
                window_col=self.window_col,
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    @classmethod
    def from_graph(
        cls,
        graph: list,
        input_dir: str,
        out_dir: str,
        ckpt_dir: str,
        keys: list[str],
        aggs: list[AggSpec],
        branch: int = 0,
        **kw,
    ) -> "StreamingWindowedJob":
        """Build a windowed streaming job whose per-epoch stateless
        transform is branch ``branch`` of a Vaero DSL task graph (fused
        chain, reference transform semantics). Source-node secrets are
        resolved via the reference's subprocess protocol before launch."""
        from vaero_ray.planner import Planner

        plan = Planner(graph).plan
        if plan.source is not None and plan.source.secret:
            from vaero_ray.secrets import SecretResolver

            resolver = SecretResolver(plan.source.secret)
            resolver.resolve_into(plan.source.args)
            # per-epoch staleness re-check (reference: execute.go:84-96)
            kw.setdefault("secret_refresh", lambda: resolver.maybe_refresh(plan.source.args))
        return cls(
            input_dir=input_dir,
            out_dir=out_dir,
            ckpt_dir=ckpt_dir,
            keys=keys,
            aggs=aggs,
            transform=plan.branches[branch].compile(),
            **kw,
        )

    # -- one epoch ------------------------------------------------------
    def epoch_step(self, c: Claim) -> StepResult:
        spec = dict(
            epoch=c.epoch, files=c.files, state_files=c.state_files(), lineage_rows=c.lineage_rows(),
            prev_wm=c.prev_wm, finalize=c.finalize, state_path=self.store.state_path_for(c.epoch),
        )
        if not step.task_reads(self.extra_read_kw):
            return self._dataset_step(**spec)
        res = window_step(
            **spec,
            budget=step.SMALL_EPOCH_BYTES,
            keys=self.keys,
            aggs=self.aggs,
            state_aggs=self._state_aggs,
            ts_col=self.ts_col,
            size_s=self.size_s,
            slide_s=self.slide_s,
            window_col=self.window_col,
            allowed_lateness_s=self.allowed_lateness_s,
            merge_backend=self.merge_backend,
            num_partitions=self.num_partitions,
            out_dir=self.out_dir,
            columns=self.extra_read_kw.get("columns"),
            transform=self.transform,
        )
        return self._dataset_step(**spec) if res is None else res

    def _dataset_step(
        self, epoch: int, files: list[str], state_files: list[str], lineage_rows: dict, prev_wm: int,
        finalize: bool, state_path: str,
    ) -> StepResult:
        """window_step as a Ray Data plan: the form that scales past one
        worker's heap."""
        counts = step.footer_counts(files, step.open_files(state_files, lineage_rows))
        parts: list[rd.Dataset] = []
        if files:
            ds = _read_pq(files, **self.extra_read_kw)
            if self.transform is not None:
                ds = ds.map_batches(self.transform, batch_format="pyarrow", zero_copy_batch=True)
            parts.append(self._live_partials(ds))
        if state_files:
            parts.append(_read_pq(state_files))
        if not parts:
            return StepResult(advance_watermark(prev_wm, None, self.allowed_lateness_s, finalize), **counts)

        # normalize column order so union of state + live partials is valid
        cols = sorted(parts[0].schema().names)
        parts = [p.select_columns(cols) for p in parts]
        unioned = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
        merged = merge_partials(
            unioned, self._group_cols, self._state_aggs, None,
            backend=self.merge_backend, num_buckets=self.num_partitions,
        )
        # the bucketed (pandas) merge holds an integer partial with nulls
        # as float64: cast to the types the task step's merge gives
        empty = unioned.schema().base_schema.empty_table()
        if self.merge_backend == "native":
            empty = _int64_partials(empty, self._group_cols)
        schema = merge_partial_tables([empty], self._group_cols, self._state_aggs).schema
        merged = merged.map_batches(
            lambda t: t.cast(pa.schema([schema.field(n) for n in t.column_names])), batch_format="pyarrow"
        )
        # materialize ONCE: everything below consumes these small partial
        # blocks repeatedly (late/closed/open splits + watermark max)
        merged = merged.materialize()
        mx = merged.max(f"{self.ts_col}_max")
        epoch_max_ts = None if mx is None else int(pa.scalar(mx).cast(pa.int64()).as_py())
        new_wm = advance_watermark(prev_wm, epoch_max_ts, self.allowed_lateness_s, finalize)

        def split(lo_us: int, hi_us: int) -> rd.Dataset:
            fn = partial(
                windows_ending_in, window_col=self.window_col, size_us=self.size_s * US, lo_us=lo_us, hi_us=hi_us
            )
            return merged.map_batches(fn, batch_format="pyarrow")

        final = finalize_partials(split(prev_wm, new_wm), self._group_cols, self.aggs, None)
        rows_late = int(split(WM_MIN, prev_wm).sum("__pcount") or 0)
        n_files = file_partitions(counts["rows_in"], lineage_rows, self.num_partitions)
        return StepResult(
            new_wm,
            _lineage(write_deterministic(final, self.out_dir, epoch, self.keys[0], n_files)),
            _lineage(
                write_deterministic(
                    split(new_wm, WM_FINAL).select_columns(cols), state_path, epoch, self.keys[0], n_files
                )
            ),
            rows_late,
            **counts,
            epoch_max_ts=epoch_max_ts,
        )
