"""The epoch driver every streaming job runs on (SURVEY.md §3.4).

A streaming job is a loop of micro-batch epochs over a growing directory
of Parquet files — the reference's single ``RunJob`` loop
(reference ``execute/execute.go:35-47``) with an exactly-once commit.
One epoch is:

  claim     the next unconsumed input files in sorted order, a pure
            function of the committed manifests
  previous  the last manifest: next epoch number, watermark, and the
            exact state files to restore (its lineage, never a glob)
  step      the job's own work (``EpochDriver.epoch_step``): read,
            compute, and write every output and state file at a path
            derived from (epoch, partition) only
  commit    the manifest, fsync'd and atomically renamed into place
            (checkpoint.py) — THE commit point
  metrics   one ``metrics.jsonl`` record per committed epoch

Every file a step writes is a canonically sorted pure function of the
epoch's inputs and the previous state, so a kill anywhere before the
manifest rename makes the rerun rewrite the same bytes, and a kill after
it means the epoch is done (tests/test_epoch_driver.py kills every job
at three points and checks byte identity).

A job subclasses ``EpochDriver`` (a plain class: the job's dataclass
fields and their order are its own) and supplies ``op`` and
``epoch_step``. The stitch, session, fold and join jobs run their step as
one keyed pandas shuffle (``bucket_step``).
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import pandas as pd
import pyarrow as pa
import ray.data as rd

from vaero_ray.io import read_parquet
from vaero_ray.stages.keyed import BUCKET_COL, hash_bucket
from vaero_ray.stages.windows import US
from vaero_ray.streaming import step
from vaero_ray.streaming.checkpoint import CheckpointStore, EpochManifest, lineage_entry
from vaero_ray.streaming.sink import write_partition_file

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
    files: list[str]  # input files, sorted; none on a finalize epoch
    last: EpochManifest | None  # the previous committed epoch
    finalize: bool
    rows_in: int  # input rows, from the footers
    nbytes: int  # uncompressed input + carried state bytes, from the footers

    @property
    def prev_wm(self) -> int:
        return WM_MIN if self.last is None else self.last.watermark_us

    def state_files(self, prefix: str = "") -> list[str]:
        """The carried state files whose partition key starts with
        ``prefix`` — exactly the previous manifest's lineage."""
        return [] if self.last is None else self.last.state_files(prefix)


@dataclass
class StepResult:
    """What one epoch's step wrote and decided; the driver commits it."""

    watermark_us: int  # event-time watermark after this epoch
    partitions: dict = field(default_factory=dict)  # output lineage
    state_partitions: dict = field(default_factory=dict)  # state lineage
    rows_late: int = 0
    epoch_max_ts: int | None = None  # max event time seen, for watermark_lag_us
    extra: dict = field(default_factory=dict)  # job-specific manifest fields
    step: str = "dataset"  # "task": one Ray task over pyarrow; "dataset": a Ray Data plan
    phases: dict | None = None  # step.PHASES seconds of a task step


def _files(lineage: dict) -> int:
    return sum(len(p["files"]) for p in lineage.values())


def read_committed(files: list[str]) -> rd.Dataset:
    if not files:
        raise ValueError("no committed output yet")
    return read_parquet(files)


class EpochDriver:
    """claim -> previous state -> step -> manifest -> commit -> metrics.

    Subclasses are dataclasses with ``input_dir``, ``out_dir``,
    ``ckpt_dir`` and ``max_files_per_epoch`` fields; they set ``op`` and
    implement ``epoch_step``. A job with other inputs (join: two input
    dirs) overrides ``pending_files`` and ``_claim``."""

    op: str  # manifest ``extra.op`` and metrics ``op``
    # per-epoch hook (the reference re-checks secret staleness each poll,
    # execute.go:84-96); jobs with a ``secret_refresh`` field override it
    secret_refresh: Callable[[], None] | None = None

    def __post_init__(self):
        self.store = CheckpointStore(self.ckpt_dir)

    def epoch_step(self, c: Claim) -> StepResult:
        raise NotImplementedError

    # -- epoch planning (pure function of committed manifests) ---------
    def _unconsumed(self, input_dir: str) -> list[str]:
        consumed = self.store.consumed_files()
        return [f for f in sorted(glob.glob(os.path.join(input_dir, "*.parquet"))) if f not in consumed]

    def pending_files(self) -> list[str]:
        return self._unconsumed(self.input_dir)

    def _claim(self, finalize: bool) -> list[str]:
        """The next epoch's input files; a finalize epoch claims none."""
        return [] if finalize else self.pending_files()[: self.max_files_per_epoch]

    # -- one epoch ------------------------------------------------------
    def run_epoch(self, finalize: bool = False) -> EpochManifest | None:
        t0 = time.perf_counter()
        if self.secret_refresh is not None:
            self.secret_refresh()
        last = self.store.last()
        if last is not None and last.watermark_us >= WM_FINAL:
            return None  # stream already finalized
        files = self._claim(finalize)
        if not files and not finalize:
            return None  # nothing to do
        epoch = 0 if last is None else last.epoch + 1
        rows_in, bytes_in = step.footer_stats(files)
        _, state_bytes_in = step.footer_stats(last.state_files() if last else [])
        res = self.epoch_step(Claim(epoch, files, last, finalize, rows_in, bytes_in + state_bytes_in))

        manifest = EpochManifest(
            epoch=epoch,
            input_files=files,
            watermark_us=res.watermark_us,
            rows_in=rows_in,
            rows_late=res.rows_late,
            rows_out=sum(p["rows"] for p in res.partitions.values()),
            partitions=res.partitions,
            state_rows=sum(p["rows"] for p in res.state_partitions.values()),
            state_path=self.store.state_path_for(epoch) if res.state_partitions else None,
            state_partitions=res.state_partitions,
            extra={"op": self.op, **res.extra},
        )
        self.store.commit(manifest)
        lag = None if res.epoch_max_ts is None else res.epoch_max_ts - res.watermark_us
        self.store.append_metrics(
            {
                "epoch": epoch,
                "op": self.op,
                "step": res.step,
                "rows_in": rows_in,
                "bytes_in": bytes_in,
                "state_bytes_in": state_bytes_in,
                "rows_late": res.rows_late,
                "rows_out": manifest.rows_out,
                "state_rows": manifest.state_rows,
                "watermark_us": res.watermark_us,
                "watermark_lag_us": lag,
                "n_partitions_out": len(res.partitions),
                "files_written": _files(res.partitions) + _files(res.state_partitions),
                **(res.phases or dict.fromkeys(step.PHASES)),
                "wall_s": round(time.perf_counter() - t0, 3),
            }
        )
        return manifest

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
        if finalize and not self.pending_files():
            m = self.run_epoch(finalize=True)
            if m is not None:
                out.append(m)
        return out

    # -- exactly-once read view ----------------------------------------
    def committed_output(self) -> rd.Dataset:
        return read_committed(self.store.committed_output_files())


# -- the keyed pandas step ------------------------------------------------
_LINEAGE_COLS = ["kind", "partition", "rows", "path", "sha256"]


def write_frame(kind: str, df: pd.DataFrame, base_dir: str, bucket: int, epoch: int, partition: str = "") -> tuple:
    """Canonical in-task write of one bucket's frame; returns its lineage
    record. ``kind`` is "out" or "state"; ``partition`` is the manifest
    key (default: the bucket)."""
    path, sha, rows = write_partition_file(pa.Table.from_pandas(df, preserve_index=False), base_dir, bucket, epoch)
    return kind, partition or str(bucket), rows, path, sha


def late_record(n: int) -> tuple:
    return "late", "", n, "", ""


def bucket_step(
    parts: list[rd.Dataset],
    key: str,
    num_partitions: int,
    per_bucket: Callable[[pd.DataFrame, int], list[tuple]],
) -> tuple[dict, dict, int]:
    """One keyed shuffle: union ``parts``, hash-partition the rows on
    ``key``, and call ``per_bucket(df, bucket)`` once per bucket inside a
    Ray task. It writes its files there (``write_frame``) and returns
    lineage records, so only those reach the driver. Returns (output
    lineage, state lineage, late rows)."""
    if not parts:
        return {}, {}, 0
    unioned = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])

    def tag(tbl: pa.Table) -> pa.Table:
        # every part converts to pandas the same way, whatever schema
        # metadata (pandas index, dtypes) its input files carry
        if tbl.schema.metadata:
            tbl = tbl.replace_schema_metadata(None)
        return tbl.append_column(BUCKET_COL, pa.array(hash_bucket(tbl.column(key), num_partitions)))

    def run_bucket(df: pd.DataFrame) -> pd.DataFrame:
        bucket = int(df[BUCKET_COL].iloc[0])
        return pd.DataFrame(per_bucket(df.drop(columns=[BUCKET_COL]), bucket), columns=_LINEAGE_COLS)

    records = (
        unioned.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(BUCKET_COL)
        .map_groups(run_bucket, batch_format="pandas")
        .take_all()  # lineage rows only — never data
    )
    out: dict = {}
    state: dict = {}
    late = 0
    for r in records:
        if r["kind"] == "late":
            late += r["rows"]
        else:
            lineage = out if r["kind"] == "out" else state
            lineage[r["partition"]] = lineage_entry(r["rows"], r["path"], r["sha256"])
    return out, state, late
