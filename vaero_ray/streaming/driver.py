"""The epoch driver every streaming job runs on (SURVEY.md §3.4).

A streaming job is a loop of micro-batch epochs over a growing directory
of Parquet files — the reference's single ``RunJob`` loop
(reference ``execute/execute.go:35-47``) with an exactly-once commit.
One epoch is:

  claim     the next unconsumed input files of each input directory
            in sorted order, a pure function of the committed manifests
  previous  the last manifest: next epoch number, watermark, and the
            exact state files to restore (its lineage, never a glob)
  step      the job's own work (``EpochDriver.epoch_step``): read,
            compute, and write every output and state file through
            ``sink.Write``, at a path derived from (epoch, partition)
            only. The step that opens the input and state files reports
            their footer counts (``rows_in``, ``bytes_in``,
            ``state_bytes_in``); the loop itself opens no Parquet file
  commit    the manifest, fsync'd and atomically renamed into place
            (checkpoint.py) — THE commit point
  metrics   one ``metrics.jsonl`` record per committed epoch

Every file a step writes is a canonically sorted pure function of the
epoch's inputs and the previous state, so a kill anywhere before the
manifest rename makes the rerun rewrite the same bytes, and a kill after
it means the epoch is done (tests/test_epoch_driver.py kills every job
at four points and checks byte identity). After a kill between the
rename and the metrics append, the next ``run_epoch`` back-fills the
epoch's ``metrics.jsonl`` record from its manifest.

A job subclasses ``EpochDriver`` (a plain class: the job's dataclass
fields and their order are its own) and supplies ``op`` and
``epoch_step``. Every job but a route job with a relational branch
builds its step from sources, a watermark rule and ``per_task``
(``KeyedStep``: map and reduce tasks over pyarrow, run in the job's
process when the epoch is one of each), at every epoch size. A reduce
task calls ``per_task`` once on its whole Arrow table and writes each
``sink.Write`` it returns, under the ``Claim``'s output or state dir: as
one file per hash bucket, as many buckets as the row rule
``file_partitions`` gives, or one file per sink prefix. The task counts
do not change the bytes, except that a windowed epoch's float ``sum``
or ``mean`` may differ in its last bits at another map-task count (its
map tasks compute partials over all of their files at once).
"""

from __future__ import annotations

import glob
import itertools
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from vaero_ray.io import read_parquet
from vaero_ray.stages.keyed import hash_bucket
from vaero_ray.stages.windows import US
from vaero_ray.streaming import step
from vaero_ray.streaming.checkpoint import CheckpointStore, EpochManifest
from vaero_ray.streaming.sink import ROW_GROUP_ROWS

WM_FINAL = 1 << 62  # watermark value marking end-of-stream finalization
WM_MIN = -(1 << 62)  # watermark before the first epoch


def advance_watermark(prev_wm: int, epoch_max_ts: int | None, allowed_lateness_s: int, finalize: bool) -> int:
    """wm_k = max(wm_{k-1}, max event ts in epoch k - allowed lateness)."""
    if finalize:
        return WM_FINAL
    if epoch_max_ts is None:
        return prev_wm
    return max(prev_wm, epoch_max_ts - allowed_lateness_s * US)


@dataclass
class Claim:
    """One epoch as the driver claimed it: what a job's step reads."""

    epoch: int
    inputs: list[list[str]]  # per input directory, its claimed files, sorted; none on a finalize epoch
    last: EpochManifest | None  # the previous committed epoch; its lineage names the state files
    finalize: bool
    out_dir: str  # where the epoch's "out" writes go
    state_dir: str  # where its "state" writes go

    @property
    def files(self) -> list[str]:
        """Every claimed input file, directory by directory."""
        return [f for fs in self.inputs for f in fs]

    @property
    def prev_wm(self) -> int:
        return WM_MIN if self.last is None else self.last.watermark_us

    def state_files(self, prefix: str = "") -> list[str]:
        """The carried state files whose partition key starts with
        ``prefix`` — exactly the previous manifest's lineage."""
        return [] if self.last is None else self.last.state_files(prefix)

    def lineage_rows(self) -> dict[str, int]:
        """The rows the previous manifest's lineage recorded per carried
        state file (a state partition is one file): a step that opens a
        state file checks its footer against them (``step.open_files``)."""
        if self.last is None:
            return {}
        return {f: p["rows"] for p in self.last.state_partitions.values() for f in p["files"]}


@dataclass
class StepResult:
    """What one epoch's step wrote and decided; the driver commits it."""

    watermark_us: int  # event-time watermark after this epoch
    partitions: dict = field(default_factory=dict)  # output lineage
    state_partitions: dict = field(default_factory=dict)  # state lineage
    rows_late: int = 0
    # footer counts of the files the step opened: input rows, and the
    # uncompressed row-group bytes of the input and carried state files
    rows_in: int = 0
    bytes_in: int = 0
    state_bytes_in: int = 0
    epoch_max_ts: int | None = None  # max event time seen, for watermark_lag_us
    extra: dict = field(default_factory=dict)  # job-specific manifest fields
    # "task": the pyarrow step, in the job's process or in Ray tasks;
    # "dataset": a Ray Data plan
    step: str = "dataset"
    phases: dict | None = None  # step.PHASES seconds of a task step


def input_files(input_dir: str) -> list[str]:
    """The Parquet files in ``input_dir``, sorted. The directory name is
    matched literally: a ``[`` in it is no glob class."""
    return sorted(glob.glob(os.path.join(glob.escape(input_dir), "*.parquet")))


def _files(lineage: dict) -> int:
    return sum(len(p["files"]) for p in lineage.values())


def read_committed(files: list[str]) -> rd.Dataset:
    if not files:
        raise ValueError("no committed output yet")
    return read_parquet(files)


class EpochDriver:
    """claim -> previous state -> step -> manifest -> commit -> metrics.

    Subclasses are dataclasses with ``input_dir``, ``out_dir``,
    ``ckpt_dir``, ``max_files_per_epoch`` and ``extra_read_kw`` fields;
    they set ``op`` and implement ``epoch_step``. ``extra_read_kw`` is
    checked once, here: its ``columns`` (``read_columns``) is the only
    read option a task read honours. A job with other inputs (join: two
    input dirs) overrides ``input_dirs``."""

    op: str  # manifest ``extra.op`` and metrics ``op``
    # per-epoch hook (the reference re-checks secret staleness each poll,
    # execute.go:84-96); jobs with a ``secret_refresh`` field override it
    secret_refresh: Callable[[], None] | None = None

    def __post_init__(self):
        self.store = CheckpointStore(self.ckpt_dir)
        self._metrics_checked = False
        for k in self.extra_read_kw:
            if k != "columns":
                raise ValueError(f"extra_read_kw: {k!r} is not supported by the task read (only 'columns')")
        self.read_columns: list[str] | None = self.extra_read_kw.get("columns")

    def epoch_step(self, c: Claim) -> StepResult:
        raise NotImplementedError

    # -- epoch planning (pure function of committed manifests) ---------
    @property
    def input_dirs(self) -> list[str]:
        return [self.input_dir]

    def pending_files(self) -> list[list[str]]:
        """Per input directory, its unconsumed files in sorted order."""
        consumed = self.store.consumed_files()
        return [[f for f in input_files(d) if f not in consumed] for d in self.input_dirs]

    # -- one epoch ------------------------------------------------------
    def run_epoch(self, finalize: bool = False) -> EpochManifest | None:
        t0 = time.perf_counter()
        if self.secret_refresh is not None:
            self.secret_refresh()
        last = self.store.last()
        if not self._metrics_checked:
            # a kill between the manifest rename and the metrics append
            # left the last committed epoch without its record
            self._metrics_checked = True
            if last is not None and self.store.last_metrics_epoch() != last.epoch:
                self.store.append_metrics(self._metrics_record(last))
        if last is not None and last.watermark_us >= WM_FINAL:
            return None  # stream already finalized
        # a finalize epoch claims no input
        pending = [[] for _ in self.input_dirs] if finalize else self.pending_files()
        inputs = [fs[: self.max_files_per_epoch] for fs in pending]
        if not any(inputs) and not finalize:
            return None  # nothing to do
        epoch = 0 if last is None else last.epoch + 1
        c = Claim(epoch, inputs, last, finalize, self.out_dir, self.store.state_path_for(epoch))
        res = self.epoch_step(c)

        manifest = EpochManifest(
            epoch=epoch,
            input_files=c.files,
            watermark_us=res.watermark_us,
            rows_in=res.rows_in,
            rows_late=res.rows_late,
            rows_out=sum(p["rows"] for p in res.partitions.values()),
            partitions=res.partitions,
            state_rows=sum(p["rows"] for p in res.state_partitions.values()),
            state_path=c.state_dir if res.state_partitions else None,
            state_partitions=res.state_partitions,
            extra={"op": self.op, **res.extra},
        )
        self.store.commit(manifest)
        lag = None if res.epoch_max_ts is None else res.epoch_max_ts - res.watermark_us
        self.store.append_metrics(
            self._metrics_record(
                manifest,
                step=res.step,
                bytes_in=res.bytes_in,
                state_bytes_in=res.state_bytes_in,
                watermark_lag_us=lag,
                **(res.phases or {}),
                wall_s=round(time.perf_counter() - t0, 3),
            )
        )
        return manifest

    def _metrics_record(self, m: EpochManifest, **measured) -> dict:
        """Epoch ``m``'s ``metrics.jsonl`` record: its counters come from
        the manifest; what only the run measured is null unless given."""
        return {
            "epoch": m.epoch,
            "op": self.op,
            "step": None,
            "rows_in": m.rows_in,
            "bytes_in": None,
            "state_bytes_in": None,
            "rows_late": m.rows_late,
            "rows_out": m.rows_out,
            "state_rows": m.state_rows,
            "watermark_us": m.watermark_us,
            "watermark_lag_us": None,
            "n_partitions_out": len(m.partitions),
            "files_written": _files(m.partitions) + _files(m.state_partitions),
            **dict.fromkeys(step.PHASES),
            "wall_s": None,
            **measured,
        }

    # -- drive to completion -------------------------------------------
    def run(self, max_epochs: int | None = None, finalize: bool = True) -> list[EpochManifest]:
        out: list[EpochManifest] = []
        while max_epochs is None or len(out) < max_epochs:
            m = self.run_epoch()
            if m is None:
                break
            out.append(m)
        # the finalize epoch consumes no input, so it does not count
        # against max_epochs — a stream that drains in EXACTLY
        # max_epochs epochs must still flush its open windows
        if finalize and not any(self.pending_files()):
            m = self.run_epoch(finalize=True)
            if m is not None:
                out.append(m)
        return out

    # -- exactly-once read view ----------------------------------------
    def committed_output(self) -> rd.Dataset:
        return read_committed(self.store.committed_output_files())



# -- the keyed step: map and reduce tasks over pyarrow -------------------
def file_partitions(rows_in: int, lineage_rows: dict) -> int:
    """How many hash-bucket files hold each table an epoch writes: one
    per ``ROW_GROUP_ROWS`` rows of input (``rows_in``, from the footers)
    plus carried state (``lineage_rows``, path -> rows), at least one.
    ``KeyedStep`` knows both before reading any data, so the split never
    depends on the task counts."""
    rows = rows_in + sum(lineage_rows.values())
    return max(1, -(-rows // ROW_GROUP_ROWS))


def event_us(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Event times as int64 microseconds (an integer column already is)."""
    if pa.types.is_timestamp(col.type):
        col = pc.cast(col, pa.timestamp("us"), safe=False)
    return pc.cast(col, pa.int64())


def event_rows(ts_col: str, transform: Callable[[pa.Table], pa.Table] | None = None) -> Callable:
    """A ``Source.live`` function for rows with an event time: run
    ``transform``, take the maximum of ``ts_col``, then drop and count the
    late rows (event time at or below the previous watermark; a null time
    is late)."""

    def live(tbl: pa.Table, prev_wm: int) -> tuple[pa.Table, int, int | None]:
        if transform is not None:
            tbl = transform(tbl)
        ts = event_us(tbl.column(ts_col))
        kept = tbl.filter(pc.fill_null(pc.greater(ts, prev_wm), False))
        return kept, tbl.num_rows - kept.num_rows, pc.max(ts).as_py()

    return live


@dataclass
class Source:
    """Files a keyed step reads, and how its map tasks prepare their rows.
    A live source runs ``live(tbl, prev_wm) -> (rows kept, late count,
    maximum event time or None)`` (``event_rows`` for most jobs); every
    source then runs ``prep``. A map task reads and prepares each file on
    its own, so a prep that combines rows (session fragments) gives the
    same rows however files are grouped into tasks, or, with ``per_file``
    False, all of its files of the source at once."""

    files: list[str]
    prep: Callable[[pa.Table], pa.Table] | None = None
    live: Callable[[pa.Table, int], tuple[pa.Table, int, int | None]] | None = None
    columns: list[str] | None = None
    per_file: bool = True


def _batches(sources: list[Source], files: list[tuple]) -> list[tuple[int, list]]:
    """``files`` ((source index, file) pairs, in source order) as the
    (source index, files) batches a map task reads at once."""
    out = []
    for i, group in itertools.groupby(files, key=lambda f: f[0]):
        fs = [f for _, f in group]
        out += [(i, [f]) for f in fs] if sources[i].per_file else [(i, fs)]
    return out


def _map_task(
    sources: list[Source], files: list[tuple], prev_wm: int, key: str, n_files: int, n_reduce: int
) -> tuple:
    """Read and prepare ``files`` ((source index, path or opened file))
    batch by batch (``_batches``); split the rows into one piece per
    reduce task by ``hash_bucket(key, n_files) % n_reduce``, so each
    file's rows reach exactly one reduce task. Returns ((per-batch source
    index, late rows, maximum event time), phase seconds), *pieces."""
    timer = step.PhaseTimer()
    stats, parts = [], []
    for i, batch in _batches(sources, files):
        src = sources[i]
        with timer("read_s"):
            tbl = step.read_table(batch, src.columns)
        with timer("compute_s"):
            late, mx = 0, None
            if src.live is not None:
                tbl, late, mx = src.live(tbl, prev_wm)
            if src.prep is not None:
                tbl = src.prep(tbl)
            parts.append(tbl.replace_schema_metadata(None))
        stats.append((i, late, mx))
    with timer("compute_s"):
        tbl = pa.concat_tables(parts, promote_options="permissive")
        if n_reduce == 1:
            pieces = [tbl]
        else:
            buckets = np.asarray(hash_bucket(tbl.column(key), n_files)) % n_reduce
            pieces = [tbl.filter(pa.array(buckets == r)) for r in range(n_reduce)]
    return (stats, timer.report()), *pieces


def _reduce_task(
    per_task: Callable, watermark_us: int, epoch: int, n_files: int, dirs: dict, *pieces: pa.Table
) -> tuple:
    """Concatenate one reduce task's pieces, call ``per_task(tbl,
    watermark_us)`` once on them, and write each ``sink.Write`` it
    returns under ``dirs[kind]``. Returns (lineage records, phase
    seconds)."""
    timer = step.PhaseTimer()
    records = []
    with timer("compute_s"):
        writes = per_task(pa.concat_tables(pieces, promote_options="permissive"), watermark_us)
    with timer("write_s"):
        for w in writes:
            records += w.write(dirs[w.kind], epoch, n_files)
    return records, timer.report()


def _task_groups(sources: list[Source], lineage_rows: dict) -> tuple[list[list[tuple]], dict]:
    """The sources' files, in order, cut into map-task groups of at most
    ``step.SMALL_EPOCH_BYTES`` footer bytes (a larger file is a group of
    its own). Opens each footer once, checking carried state files
    against ``lineage_rows``; returns (groups of (source index, path,
    opened file), ``StepResult`` footer counts: ``rows_in`` and
    ``bytes_in`` of the live sources, ``state_bytes_in`` of the others)."""
    groups: list[list[tuple]] = []
    counts = dict.fromkeys(("rows_in", "bytes_in", "state_bytes_in"), 0)
    size = 0
    for i, src in enumerate(sources):
        for f, pf in zip(src.files, step.open_files(src.files, lineage_rows)):
            rows, nbytes = step.footer_stats([pf])
            if not groups or size + nbytes > step.SMALL_EPOCH_BYTES:
                groups.append([])
                size = 0
            groups[-1].append((i, f, pf))
            size += nbytes
            if src.live is None:
                counts["state_bytes_in"] += nbytes
            else:
                counts["rows_in"] += rows
                counts["bytes_in"] += nbytes
    return groups, counts


class KeyedStep:
    """One keyed epoch as map and reduce tasks over pyarrow (the shuffle
    as tasks). Constructing it runs the map tasks (``_map_task``); only
    their small stats reach the driver: ``maxima``, each source's maximum
    event time (None without rows), and ``rows_late``. The job computes
    its watermark from them and calls ``reduce``.

    Everything is sized from the footers, which the job's process reads
    once per file (``_task_groups``): a map task reads at most
    ``step.SMALL_EPOCH_BYTES``; each written table is split into
    ``file_partitions`` hash-bucket files (its rows are the live rows,
    times ``fanout`` for a job whose rows multiply, plus the carried
    state rows); the epoch's bytes over the map budget set the number of
    reduce tasks, up to that file count. A small epoch is one map and one
    reduce task, and the job's process calls both itself on the files it
    opened; a larger one runs them as Ray tasks. Every reduce task holds
    all rows of its keys, so ``per_task`` sees whole keys, and each file
    has one writer and the same bytes however many tasks ran, except
    for the windowed job: its live source is not ``per_file`` and
    computes partials over all of a map task's files at once, so a float
    sum may round otherwise at another map-task count."""

    def __init__(self, c: Claim, sources: list[Source], key: str, fanout: int = 1):
        t0 = time.perf_counter()
        lineage_rows = c.lineage_rows()
        groups, self.counts = _task_groups(sources, lineage_rows)
        self._phases: Counter = Counter(read_s=time.perf_counter() - t0)
        total = self.counts["bytes_in"] + self.counts["state_bytes_in"]
        self.epoch, self.dirs = c.epoch, {"out": c.out_dir, "state": c.state_dir}
        self.n_files = file_partitions(self.counts["rows_in"] * fanout, lineage_rows)
        self.n_reduce = max(1, min(self.n_files, -(-total // max(step.SMALL_EPOCH_BYTES, 1))))
        # a task round trip buys nothing when there is one task per stage
        self._inline = len(groups) <= 1 and self.n_reduce == 1
        args = (c.prev_wm, key, self.n_files, self.n_reduce)
        if self._inline:
            self._maps = [_map_task(sources, [(i, pf) for i, _, pf in g], *args) for g in groups]
            map_stats = [m[0] for m in self._maps]
        else:
            map_task = step.remote(_map_task).options(num_returns=self.n_reduce + 1)
            self._maps = [map_task.remote(sources, [(i, f) for i, f, _ in g], *args) for g in groups]
            map_stats = ray.get([m[0] for m in self._maps])
        self.maxima: list[int | None] = [None] * len(sources)
        self.rows_late = 0
        for stats, phases in map_stats:
            self._phases.update(phases)
            for i, late, mx in stats:
                self.rows_late += late
                if mx is not None and (self.maxima[i] is None or mx > self.maxima[i]):
                    self.maxima[i] = mx

    def reduce(self, per_task: Callable, watermark_us: int, extra: dict | None = None) -> StepResult:
        """Call ``per_task(tbl, watermark_us) -> list[sink.Write]`` once in
        every reduce task, on all of its rows; the task writes the
        tables and only lineage comes back."""
        known = [m for m in self.maxima if m is not None]
        res = StepResult(
            watermark_us,
            rows_late=self.rows_late,
            **self.counts,
            epoch_max_ts=max(known, default=None),
            extra=extra or {},
            step="task",
        )
        args = [
            (per_task, watermark_us, self.epoch, self.n_files, self.dirs, *[m[1 + r] for m in self._maps])
            for r in (range(self.n_reduce) if self._maps else ())
        ]
        if self._inline:
            reduced = [_reduce_task(*a) for a in args]
        else:
            reduce_task = step.remote(_reduce_task)
            reduced = ray.get([reduce_task.remote(*a) for a in args])
        for records, phases in reduced:
            self._phases.update(phases)
            for kind, partition, entry in records:
                (res.partitions if kind == "out" else res.state_partitions)[partition] = entry
        res.phases = {k: round(self._phases[k], 4) for k in step.PHASES}
        return res
