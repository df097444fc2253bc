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

Every epoch is one keyed step (driver.py ``KeyedStep``) at any size. A
plain branch runs its chain and sink prefix in the map tasks, and its
rows meet by (branch, prefix). A branch with relational steps (window,
join, dedup, ``filter_expr``, limit) sends its input rows under the
route "{branch key}/" to one reduce task, which runs the steps on Arrow
with per-epoch semantics, as the reference's per-capsule batches have
(``_rel_step``), then the sink prefix. Its prefix is known only after
the steps, so a finer route would give a file two writers. Every
branch's rows are one ``sink.Write`` split by the sink prefix: one file
per (branch, prefix) at ``{branch key}/{prefix}/epoch-{k}.parquet``
under the manifest key "{branch key}/{prefix}".

Batch-vs-time sink flushing (batch_max_bytes / batch_max_time,
sinkNode.go:105-131) degenerates naturally: an epoch IS the flush unit —
max_files_per_epoch bounds bytes, the poll cadence bounds time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# _read_pq is unused here: perfbench's tracer wraps it by name, and a
# traced run fails on a missing one
from vaero_ray.io import read_parquet as _read_pq  # noqa: F401
from vaero_ray.planner import Branch, Plan, Planner, RelStep
from vaero_ray.sinks.parquet_sink import PREFIX_COL, derive_prefix, s3_uri_and_fs
from vaero_ray.stages.dedup import exact_dedup_table
from vaero_ray.stages.windows import AggSpec, aggregate_table
from vaero_ray.streaming.checkpoint import EpochManifest
from vaero_ray.streaming.driver import Claim, EpochDriver, KeyedStep, Source, StepResult, read_committed
from vaero_ray.streaming.sink import Write
from vaero_ray.transforms import TransformFn, compile_chain


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


def _rel_step(s: RelStep) -> TransformFn:
    """One relational step as a table function, with the per-epoch
    semantics ``runner.apply_steps`` gives it over one epoch's rows."""
    a = s.args
    if s.op == "window":
        aggs = [AggSpec(*agg) for agg in a["aggs"]]
        kw = {k: a[k] for k in ("ts_col", "size_s", "window_col") if k in a}
        return partial(aggregate_table, keys=list(a["keys"]), aggs=aggs, **kw)
    if s.op == "filter":  # parsed as Dataset.filter(expr=) parses it
        from ray.data._internal.planner.plan_expression.expression_evaluator import ExpressionEvaluator

        expr = ExpressionEvaluator.get_filters(expression=a["expr"])
        return lambda t: t.filter(expr)
    if s.op == "limit":
        return lambda t: t.slice(0, int(a["n"]))
    if s.op == "dedup":
        return partial(exact_dedup_table, text_col=a.get("path", "text"), id_col=a.get("id_path", "doc_id"))
    if s.op == "join":  # against the side plan, read once per call
        src = s.right.source
        path, fs = s3_uri_and_fs(src.args)
        if src.op not in ("parquet", "s3") or src.args.get("format", "parquet") != "parquet" or not path:
            raise ValueError(f"join: side source {src.op!r} is not a parquet path; a streaming join reads parquet")
        side_fn, columns = _rel_fn(s.right.branches[0]), src.args.get("columns")
        how = a.get("how", "inner").replace("_", " ").split()[0]  # inner/left/right/full
        how = how if how == "inner" else how + " outer"

        def join(tbl: pa.Table) -> pa.Table:
            side = side_fn(pq.read_table(path, columns=columns, filesystem=fs))
            return tbl.join(side, list(a["on"]), join_type=how, right_suffix=a.get("suffix", "_r"))

        return join
    raise ValueError(f"unsupported rel op: {s.op!r}")


def _rel_fn(branch: Branch) -> TransformFn:
    """A branch's steps, transform chains and relational, as one function."""
    fns = [_rel_step(s) if isinstance(s, RelStep) else compile_chain(s[1]) for s in branch.steps]
    return lambda tbl: reduce(lambda t, fn: fn(t), fns, tbl)


# the (branch key, prefix) a route map task tags each row with
ROUTE_COL = "__route"


def _route_rows(routes: list) -> Callable:
    """A ``Source.live`` function running every plain branch's chain and
    sink prefix over one table. ``routes`` holds (branch key, compiled
    steps, timestamp_key, prefix format, relational?) per branch: a
    relational branch's steps run in a reduce task (``_branch_writes``).
    The branches' rows go into one table, each branch's columns named
    "{branch key}:{column}", with the route a row is written under in
    ``ROUTE_COL``: "{branch key}/{prefix}", or "{branch key}/" for a
    relational branch's input rows."""

    def live(tbl: pa.Table, prev_wm: int) -> tuple[pa.Table, int, None]:
        parts = []
        for bkey, fn, ts_key, fmt, rel in routes:
            if rel:
                staged, route = tbl, pa.repeat(pa.scalar(bkey + "/"), tbl.num_rows)
            else:
                staged = derive_prefix(fn(tbl), ts_key, fmt)
                route = pc.binary_join_element_wise(bkey, staged.column(PREFIX_COL), "/")
            staged = staged.rename_columns([f"{bkey}:{c}" for c in staged.column_names])
            parts.append(staged.append_column(ROUTE_COL, route))
        return pa.concat_tables(parts, promote_options="permissive"), 0, None

    return live


def _branch_writes(routes: list) -> Callable:
    """A route reduce task's ``per_task``: each branch's rows, with the
    branch's own columns (a relational branch's after its steps and sink
    prefix), as a ``Write`` split by the sink prefix."""
    rels = {bkey: (fn, ts_key, fmt) for bkey, fn, ts_key, fmt, rel in routes if rel}

    def per_task(tbl: pa.Table, wm: int) -> list[Write]:
        route = tbl.column(ROUTE_COL)
        bkeys = sorted({r.split("/", 1)[0] for r in pc.unique(route).to_pylist()})
        writes = []
        for bkey in bkeys:
            cols = [c for c in tbl.column_names if c.startswith(bkey + ":")]
            rows = tbl.select(cols).rename_columns([c[len(bkey) + 1 :] for c in cols])
            if len(bkeys) > 1:
                rows = rows.filter(pc.starts_with(route, bkey + "/"))
            if bkey in rels:
                fn, ts_key, fmt = rels[bkey]
                rows = derive_prefix(fn(rows), ts_key, fmt)
            writes.append(Write("out", rows, bkey, bkey + "/", by=PREFIX_COL))
        return writes

    return per_task


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
        self.routes = []
        for i, branch in enumerate(self.plan.branches):
            bkey, ts_key, fmt = _sink_route(i, branch)
            cols = _known_output_cols(branch)
            if cols is not None and ts_key not in cols:
                raise ValueError(
                    f"branch {i}: sink timestamp_key {ts_key!r} is not a column of the branch "
                    f"output {sorted(cols)}; a .window() step replaces the event-time column, "
                    "so point the sink's timestamp_key at its window column"
                )
            rel = any(isinstance(s, RelStep) for s in branch.steps)
            self.routes.append((bkey, _rel_fn(branch), ts_key, fmt, rel))
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
        live = Source(c.files, live=_route_rows(self.routes), columns=self.read_columns, per_file=False)
        return KeyedStep(c, [live], ROUTE_COL).reduce(_branch_writes(self.routes), 0)

    def committed_output(self, branch_key: str | None = None):
        return read_committed(self.store.committed_output_files("" if branch_key is None else branch_key + "/"))
