"""Streaming tap -> transform -> route -> sink: the reference's whole
execution model (/root/reference/execute/execute.go:35-47) as epochs with
the exactly-once commit protocol.

A Vaero task graph (same JSON IR the DSL emits) is compiled once; each
epoch claims the next input files and runs EVERY branch's fused transform
chain, bucketing output rows by the reference's sink-prefix rule
(strftime of the event's own timestamp, execute/sinkNode.go:80-101) and
writing one deterministic file per (branch, prefix, epoch). Where the
reference loses buffered events on crash (at-most-once, SURVEY.md §4.1),
a crash here reruns the epoch byte-identically and the manifest is the
commit point (driver.py owns the epoch loop, claim, commit and metrics;
this module supplies the route step).

Every epoch of a graph without relational steps is one keyed step
(driver.py ``KeyedStep``) at any size: map tasks read the epoch's files
once and run every branch's chain and sink prefix over them, and the
rows meet by (branch, prefix) in reduce tasks. A small epoch runs both
in the job's own process, with no Ray task. A graph with a relational
branch (window/join/dedup) runs each epoch as a Ray Data plan
(``_dataset_step``, ``runner.apply_steps`` per branch) whose rows meet
by prefix in ``map_groups``. Both write each branch's rows as one
``sink.Write`` split by the sink prefix: one file per (branch, prefix)
at ``{branch key}/{prefix}/epoch-{k}.parquet`` under the manifest key
"{branch key}/{prefix}".

Batch-vs-time sink flushing (batch_max_bytes / batch_max_time,
sinkNode.go:105-131) degenerates naturally: an epoch IS the flush unit —
max_files_per_epoch bounds bytes, the poll cadence bounds time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from vaero_ray.io import read_parquet as _read_pq
from vaero_ray.planner import Branch, Plan, Planner, RelStep
from vaero_ray.sinks.parquet_sink import PREFIX_COL, derive_prefix
from vaero_ray.streaming import step
from vaero_ray.streaming.checkpoint import EpochManifest, lineage_entry
from vaero_ray.streaming.driver import Claim, EpochDriver, KeyedStep, Source, StepResult, read_committed
from vaero_ray.streaming.sink import Write


def _sink_route(i: int, branch: Branch) -> tuple[str, str, str]:
    """(branch key, sink timestamp_key, file-safe strftime prefix)."""
    sink = branch.sink
    ts_key = sink.args.get("timestamp_key", "timestamp") if sink else "timestamp"
    fmt = (sink.args.get("filename_prefix", "%Y/%m/%d") if sink else "%Y/%m/%d").replace("/", "-")
    return f"b{i}_{sink.op if sink else 'none'}", ts_key, fmt


def _known_output_cols(branch: Branch) -> set[str] | None:
    """Output columns of a branch whose last column-changing step is a
    window aggregate, or None when they depend on the input schema."""
    cols = None
    for s in branch.steps:
        if isinstance(s, RelStep) and s.op == "window":
            a = s.args
            cols = set(a["keys"]) | {alias for _, _, alias in a["aggs"]}
            if a.get("size_s", 60) is not None:
                cols.add(a.get("window_col", "window_start"))
        elif not (isinstance(s, RelStep) and s.op in ("filter", "limit")):
            cols = None  # transforms, joins and dedup: columns follow the input
    return cols


# the (branch key, prefix) a route map task tags each row with
ROUTE_COL = "__route"


def _route_rows(routes: list) -> Callable:
    """A ``Source.live`` function running every branch's chain and sink
    prefix over one table. ``routes`` holds (branch key, chain,
    timestamp_key, prefix format) per branch. The branches' rows go into
    one table, each branch's columns named "{branch key}:{column}", with
    the (branch, prefix) a row is written under in ``ROUTE_COL``."""

    def live(tbl: pa.Table, prev_wm: int) -> tuple[pa.Table, int, None]:
        parts = []
        for bkey, fused, ts_key, fmt in routes:
            staged = derive_prefix(fused(tbl), ts_key, fmt)
            route = pc.binary_join_element_wise(bkey, staged.column(PREFIX_COL), "/")
            staged = staged.rename_columns([f"{bkey}:{c}" for c in staged.column_names])
            parts.append(staged.append_column(ROUTE_COL, route))
        return pa.concat_tables(parts, promote_options="permissive"), 0, None

    return live


def _branch_writes(tbl: pa.Table, wm: int) -> list[Write]:
    """A route reduce task's ``per_task``: each branch's rows, with the
    branch's own columns, as a ``Write`` split by the sink prefix."""
    route = tbl.column(ROUTE_COL)
    bkeys = sorted({r.split("/", 1)[0] for r in pc.unique(route).to_pylist()})
    writes = []
    for bkey in bkeys:
        cols = [c for c in tbl.column_names if c.startswith(bkey + ":")]
        rows = tbl.select(cols).rename_columns([c[len(bkey) + 1 :] for c in cols])
        if len(bkeys) > 1:
            rows = rows.filter(pc.starts_with(route, bkey + "/"))
        writes.append(Write("out", rows, bkey, bkey + "/", by=PREFIX_COL))
    return writes


@dataclass
class StreamingTransformJob(EpochDriver):
    input_dir: str
    out_dir: str
    ckpt_dir: str
    graph: list  # Vaero task-graph IR (the DSL's Vaero.start() output)
    max_files_per_epoch: int = 1
    extra_read_kw: dict = field(default_factory=dict)  # only "columns"

    op = "transform"

    def __post_init__(self):
        super().__post_init__()
        self.plan: Plan = Planner(self.graph).plan
        for i, branch in enumerate(self.plan.branches):
            _, ts_key, _ = _sink_route(i, branch)
            cols = _known_output_cols(branch)
            if cols is not None and ts_key not in cols:
                raise ValueError(
                    f"branch {i}: sink timestamp_key {ts_key!r} is not a column of the branch "
                    f"output {sorted(cols)}; a .window() step replaces the event-time column, "
                    "so point the sink's timestamp_key at its window column"
                )
        if self.plan.source is not None and self.plan.source.secret:
            from vaero_ray.secrets import SecretResolver

            resolver = SecretResolver(self.plan.source.secret)
            resolver.resolve_into(self.plan.source.args)
            # per-epoch staleness re-check (reference: execute.go:84-96)
            self.secret_refresh = lambda: resolver.maybe_refresh(self.plan.source.args)

    # a route job has no event-time state to flush, so no finalize epoch
    def run_epoch(self) -> EpochManifest | None:
        return super().run_epoch()

    def run(self, max_epochs: int | None = None) -> list[EpochManifest]:
        return super().run(max_epochs, finalize=False)

    def epoch_step(self, c: Claim) -> StepResult:
        if any(b.has_rel for b in self.plan.branches):
            rows_in, bytes_in = step.footer_stats(c.files)
            return StepResult(0, self._dataset_step(c), rows_in=rows_in, bytes_in=bytes_in)
        routes = []
        for i, branch in enumerate(self.plan.branches):
            bkey, ts_key, fmt = _sink_route(i, branch)
            routes.append((bkey, branch.compile(), ts_key, fmt))
        live = Source(c.files, live=_route_rows(routes), columns=self.read_columns, per_file=False)
        return KeyedStep(c, [live], ROUTE_COL).reduce(_branch_writes, 0)

    def _dataset_step(self, c: Claim) -> dict:
        """An epoch of a graph with a relational branch (window/join/dedup
        steps) as Ray Data plans, one prefix-grouped write per branch.
        Window semantics here are PER-EPOCH (each poll's batch windows
        independently — the reference's per-capsule batch model);
        cross-epoch event-time windows with watermarks and open-window
        state carry are StreamingWindowedJob (streaming/job.py). Returns
        the output lineage."""
        from vaero_ray.runner import apply_steps

        # read_parquet itself takes io.DATASET_BUILD_LOCK (taking it here
        # too would deadlock — threading.Lock is not reentrant).
        # materialize ONCE: every branch below consumes src, and an
        # un-materialized plan would re-read + re-decode the epoch's
        # files once per branch; one epoch is bounded by
        # max_files_per_epoch and spills if large.
        src = _read_pq(c.files, **self.extra_read_kw).materialize()
        out = {}
        for i, branch in enumerate(self.plan.branches):
            bkey, ts_key, fmt = _sink_route(i, branch)

            def prefix_only(tbl: pa.Table, ts_key=ts_key, fmt=fmt) -> pa.Table:
                return derive_prefix(tbl, ts_key, fmt)

            def write_prefix(tbl: pa.Table, bkey=bkey, out_dir=c.out_dir, epoch=c.epoch) -> pa.Table:
                # one prefix per group: one file
                [(_, key, entry)] = Write("out", tbl, bkey, bkey + "/", by=PREFIX_COL).write(out_dir, epoch)
                return pa.table({"key": [key], "rows": [entry["rows"]], "path": entry["files"], "sha256": entry["sha256"]})

            staged = apply_steps(src, branch).map_batches(prefix_only, batch_format="pyarrow", zero_copy_batch=True)
            for r in staged.groupby(PREFIX_COL).map_groups(write_prefix, batch_format="pyarrow").take_all():
                out[r["key"]] = lineage_entry(r["rows"], r["path"], r["sha256"])
        return out

    def committed_output(self, branch_key: str | None = None) -> rd.Dataset:
        return read_committed(self.store.committed_output_files("" if branch_key is None else branch_key + "/"))
