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

An epoch whose input footers fit ``step.SMALL_EPOCH_BYTES`` runs
``route_step`` over pyarrow tables in the job's own process, with no Ray
task; a larger epoch, a relational branch (window/join/dedup) or a read
option besides ``columns`` runs the Ray Data plan (``_dataset_step``).
Both write the same bytes.

Batch-vs-time sink flushing (batch_max_bytes / batch_max_time,
sinkNode.go:105-131) degenerates naturally: an epoch IS the flush unit —
max_files_per_epoch bounds bytes, the poll cadence bounds time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from vaero_ray.io import read_parquet as _read_pq

from vaero_ray.planner import Branch, Plan, Planner, RelStep
from vaero_ray.sinks.parquet_sink import PREFIX_COL, derive_prefix
from vaero_ray.streaming import step
from vaero_ray.streaming.checkpoint import EpochManifest, lineage_entry
from vaero_ray.streaming.driver import Claim, EpochDriver, StepResult, read_committed
from vaero_ray.streaming.sink import write_canonical_file


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


def write_prefix_file(tbl: pa.Table, bdir: str, epoch: int) -> dict:
    """One prefix group's canonical file, written DIRECTLY at its
    prefix-derived path (concurrent prefix groups run in separate Ray
    workers, so no shared intermediate is allowed); returns its lineage
    row."""
    pdir_safe = str(tbl.column(PREFIX_COL)[0].as_py()).replace("/", "-")
    final = os.path.join(bdir, pdir_safe, f"epoch-{epoch:08d}.parquet")
    _, sha, rows = write_canonical_file(tbl.drop_columns([PREFIX_COL]), final)
    return {"partition": pdir_safe, "rows": rows, "path": final, "sha256": sha}


def _partitions(lineage: list) -> dict:
    """Manifest lineage keyed "{branch key}/{prefix}" from (branch key,
    lineage row) pairs."""
    return {f"{bkey}/{r['partition']}": lineage_entry(r["rows"], r["path"], r["sha256"]) for bkey, r in lineage}


def route_step(
    *, epoch: int, files: list[str], budget: int, columns: list[str] | None, routes: list, out_dir: str
) -> StepResult | None:
    """One route epoch over pyarrow tables in one process (step.py):
    read -> each branch's compiled chain -> sink prefix -> one file per
    (branch, prefix). ``routes`` holds (branch key, chain, timestamp_key,
    prefix format) per branch. Returns None, having read no data, when
    the footers of ``files`` exceed ``budget`` bytes."""
    timer = step.PhaseTimer()
    with timer("read_s"):
        pfs = step.open_files(files)
        counts = step.footer_counts(pfs)
        if counts["bytes_in"] > budget:
            return None
        tbl = step.read_table(pfs, columns)
    lineage = []
    for bkey, fused, ts_key, fmt in routes:
        with timer("compute_s"):
            staged = derive_prefix(fused(tbl), ts_key, fmt)
            prefix = staged.column(PREFIX_COL)
            values = pc.unique(prefix)
            groups = [staged] if len(values) == 1 else [staged.filter(pc.equal(prefix, p)) for p in values.to_pylist()]
        with timer("write_s"):
            lineage.extend((bkey, write_prefix_file(g, os.path.join(out_dir, bkey), epoch)) for g in groups)
    return StepResult(0, _partitions(lineage), **counts, step="task", phases=timer.report())


@dataclass
class StreamingTransformJob(EpochDriver):
    input_dir: str
    out_dir: str
    ckpt_dir: str
    graph: list  # Vaero task-graph IR (the DSL's Vaero.start() output)
    max_files_per_epoch: int = 1
    extra_read_kw: dict = field(default_factory=dict)

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
        # relational branches (window/join/dedup steps) and read options
        # other than columns run as Dataset plans, so their epochs take
        # the Dataset step
        if step.task_reads(self.extra_read_kw) and not any(b.has_rel for b in self.plan.branches):
            routes = []
            for i, branch in enumerate(self.plan.branches):
                bkey, ts_key, fmt = _sink_route(i, branch)
                routes.append((bkey, branch.compile(), ts_key, fmt))
            res = route_step(
                epoch=c.epoch, files=c.files, budget=step.SMALL_EPOCH_BYTES,
                columns=self.extra_read_kw.get("columns"), routes=routes, out_dir=self.out_dir,
            )
            if res is not None:
                return res
        counts = step.footer_counts(c.files)
        return StepResult(0, _partitions(self._dataset_step(c.epoch, c.files)), **counts)

    def _dataset_step(self, epoch: int, files: list[str]) -> list:
        """route_step as Ray Data plans, one prefix-grouped write per
        branch; the only step for relational branches."""
        # read_parquet itself takes io.DATASET_BUILD_LOCK (taking it here
        # too would deadlock — threading.Lock is not reentrant).
        # materialize ONCE: every branch below consumes src, and an
        # un-materialized plan would re-read + re-decode the epoch's
        # files once per branch; one epoch is bounded by
        # max_files_per_epoch and spills if large.
        src = _read_pq(files, **self.extra_read_kw).materialize()
        out = []
        for i, branch in enumerate(self.plan.branches):
            bkey, ts_key, fmt = _sink_route(i, branch)
            bdir = os.path.join(self.out_dir, bkey)

            def prefix_only(tbl: pa.Table, ts_key=ts_key, fmt=fmt) -> pa.Table:
                return derive_prefix(tbl, ts_key, fmt)

            def write_prefix(tbl: pa.Table, bdir=bdir) -> pa.Table:
                return pa.Table.from_pylist([write_prefix_file(tbl, bdir, epoch)])

            if branch.has_rel:
                # relational branch: the epoch's materialized src IS the
                # bounded batch; apply the step plan then derive the sink
                # prefix in its own zero-copy pass. Window semantics here
                # are PER-EPOCH (each poll's batch windows independently —
                # the reference's per-capsule batch model); cross-epoch
                # event-time windows with watermarks and open-window state
                # carry are StreamingWindowedJob (streaming/job.py).
                from vaero_ray.runner import apply_steps

                staged = apply_steps(src, branch)
            else:
                staged = src.map_batches(branch.compile(), batch_format="pyarrow", zero_copy_batch=True)
            staged = staged.map_batches(prefix_only, batch_format="pyarrow", zero_copy_batch=True)
            lineage = staged.groupby(PREFIX_COL).map_groups(write_prefix, batch_format="pyarrow").take_all()
            out.extend((bkey, r) for r in lineage)
        return out

    def committed_output(self, branch_key: str | None = None) -> rd.Dataset:
        return read_committed(self.store.committed_output_files("" if branch_key is None else branch_key + "/"))
