"""Streaming windowed aggregation: tumbling and sliding event-time
windows with watermarks, carried open-window state, and the exactly-once
checkpointed sink.

Model (SURVEY.md §2b, §3.4): the stream is a growing directory of Parquet
files. Each epoch deterministically claims the next unconsumed files
(sorted order) and runs one keyed step (driver.py ``KeyedStep``) keyed
on the first key —

  map      read(epoch files) -> stateless transform (row-preserving
           table function) -> partials (mergeable: one row per key x
           window; sliding windows expand pane partials) -> drop late
           windows; read(carried state partials)
  reduce   union -> merge -> split closed/open on the new watermark
             closed -> finalize -> deterministic hash-bucket files + lineage
             open   -> state snapshot (same deterministic writer)
  commit   fsync'd atomic manifest (driver.py, in the job's process)

The map tasks run the transform and the partials once per task over all
of its input files, not once per file: partials merge to the same rows
however the files are grouped. A small epoch is one map and one reduce
task, called in the job's own process; a larger one runs its tasks as
Ray tasks. The task counts do not change the bytes written, except for
a float ``sum`` or ``mean``: at another map-task count its rows are
added in another grouping, and its last bits may differ.

Watermark: wm_k = max(wm_{k-1}, max event ts in epoch k - allowed_lateness).
A window [s, s+size) closes when wm >= s+size. A row is LATE when its
window has already closed (ended at or before the previous watermark):
it is dropped and counted in metrics, once per late window it falls in.
The exactly-once contract is over non-late data, matching the north_star
("for the same input stream and watermark").

Determinism / resume: the epoch loop, claim, commit and metrics are
driver.py's, shared by every streaming job; this module supplies the
windowed step.

Scale: the exchange moves PARTIALS (one row per key x window per map
task), not events. Open-window state is Parquet re-read each epoch. An
epoch's closed-window output and its open-window state are each
hash-partitioned on the first key into ``driver.file_partitions`` files:
one per ``sink.ROW_GROUP_ROWS`` rows of input (times ``size_s/slide_s``
for sliding windows) plus carried state (one output file and one state
file for any tumbling epoch under 2^20 rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc

# _read_pq, partial_aggregate and write_deterministic are unused here:
# perfbench's tracer wraps them by name, and a traced run fails on a missing one
from vaero_ray.io import read_parquet as _read_pq  # noqa: F401
from vaero_ray.stages.windows import (
    AggSpec,
    US,
    expand_pane_partials,
    finalize_table,
    merge_partial_tables,
    partial_aggregate,  # noqa: F401
    partial_table,
)
from vaero_ray.streaming.driver import (
    WM_FINAL,
    WM_MIN,
    Claim,
    EpochDriver,
    KeyedStep,
    Source,
    StepResult,
    advance_watermark,
    event_us,
)
from vaero_ray.streaming.sink import Write

write_deterministic = Write


def windows_ending_in(tbl: pa.Table, window_col: str, size_us: int, lo_us: int, hi_us: int) -> pa.Table:
    """Rows of windows whose end lies in (lo_us, hi_us]: late windows end
    at or before the previous watermark, closed ones between the previous
    and the new watermark, open ones after the new watermark."""
    wend = pc.add(pc.cast(tbl.column(window_col), pa.int64()), size_us)
    return tbl.filter(pc.and_(pc.greater(wend, lo_us), pc.less_equal(wend, hi_us)))


def _int64_partials(tbl: pa.Table, group_cols: list[str]) -> pa.Table:
    # merged integer partials are int64, whatever integer type the input
    # column had
    for i, f in enumerate(tbl.schema):
        if f.name not in group_cols and pa.types.is_integer(f.type) and f.type != pa.int64():
            tbl = tbl.set_column(i, f.name, tbl.column(i).cast(pa.int64()))
    return tbl


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
    max_files_per_epoch: int = 1
    extra_read_kw: dict = field(default_factory=dict)  # only "columns"
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
        keys, aggs, state_aggs, group_cols = self.keys, self.aggs, self._state_aggs, self._group_cols
        ts_col, size_s, slide_s, window_col = self.ts_col, self.size_s, self.slide_s, self.window_col
        transform, prev_wm = self.transform, c.prev_wm
        split = partial(windows_ending_in, window_col=window_col, size_us=size_s * US)

        def live(tbl: pa.Table, prev_wm: int) -> tuple[pa.Table, int, int | None]:
            """Transform, partials (pane partials expanded to their
            windows when sliding), then drop and count late windows."""
            if transform is not None:
                tbl = transform(tbl)
            if slide_s is None:
                parts = partial_table(tbl, keys, state_aggs, ts_col, size_s, window_col)
            else:
                panes = partial_table(tbl, keys, state_aggs, ts_col, slide_s, "__pane")
                parts = expand_pane_partials(panes, slide_s, size_s // slide_s, window_col=window_col)
            late = split(parts, lo_us=WM_MIN, hi_us=prev_wm)
            mx = pc.max(event_us(parts.column(f"{ts_col}_max"))).as_py()
            return split(parts, lo_us=prev_wm, hi_us=WM_FINAL), pc.sum(late.column("__pcount")).as_py() or 0, mx

        sources = [
            Source(c.files, live=live, columns=self.read_columns, per_file=False),
            Source(c.state_files()),
        ]
        fanout = 1 if slide_s is None else size_s // slide_s
        ks = KeyedStep(c, sources, keys[0], fanout)
        new_wm = advance_watermark(prev_wm, ks.maxima[0], self.allowed_lateness_s, c.finalize)

        def per_task(tbl: pa.Table, wm: int) -> list[Write]:
            merged = merge_partial_tables([_int64_partials(tbl, group_cols)], group_cols, state_aggs)
            closed = finalize_table(split(merged, lo_us=prev_wm, hi_us=wm), group_cols, aggs)
            open_ = split(merged, lo_us=wm, hi_us=WM_FINAL).select(sorted(merged.column_names))
            return [Write("out", closed, key=keys[0]), Write("state", open_, key=keys[0])]

        return ks.reduce(per_task, new_wm)
