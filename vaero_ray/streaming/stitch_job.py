"""Streaming stateful turn-sequence join: buffer out-of-order turns per
conversation until the watermark says the conversation is complete, then
emit ONE stitched record per conversation (north_star: "a stateful
turn-sequence join that stitches user/assistant/tool turns per
conversation").

Model (same epoch/commit machinery as StreamingWindowedJob):

- state = the raw buffered turns of every OPEN conversation (hash-
  partitioned Parquet snapshot per epoch; bounded by the number of
  conversations still inside the completion gap);
- a conversation CLOSES when ``wm >= max(conv ts) + gap`` — no turn can
  still arrive for it without being late (session-complete rule);
- per epoch, ONE bucketed shuffle: union(state, new turns) grouped by
  hash(conv_id) bucket; each bucket task stitches its closed
  conversations (turn-ordered concat, per-role counts — semantics of
  stages/stitch.py stitch_conversations) and writes BOTH its output file
  and its state partition deterministically in-task; only lineage rows
  reach the driver;
- late turns (ts <= previous watermark) are dropped and counted. A
  conversation re-appearing after its close necessarily implies an
  event-time gap > ``gap_s``, so it is emitted as a NEW segment of the
  same conv_id (distinguishable by first_ts) — standard session
  semantics.

Resume/exactly-once: identical protocol to job.py — deterministic epoch
composition, canonical in-task writes, fsync'd manifest commit.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from vaero_ray.io import read_parquet as _read_pq

from vaero_ray.stages.keyed import BUCKET_COL, hash_bucket
from vaero_ray.stages.windows import US
from vaero_ray.streaming.checkpoint import CheckpointStore, EpochManifest
from vaero_ray.streaming.job import WM_FINAL
from vaero_ray.streaming.sink import write_partition_file

TURN_COLS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def stitch_convs_df(df: pd.DataFrame, sep: str = "\n") -> pd.DataFrame:
    """Vectorized conversation-stitch over every conversation in ``df``
    (same output schema as stages/stitch.py stitch_conversations)."""
    df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
    keys = df["conv_id"]
    line = df["role"].str.cat(df["text"], sep=": ")
    g = df.groupby("conv_id", sort=False)
    out = pd.DataFrame(
        {
            "n_turns": g.size().astype("int64"),
            "n_user": df["role"].eq("user").groupby(keys, sort=False).sum().astype("int64"),
            "n_assistant": df["role"].eq("assistant").groupby(keys, sort=False).sum().astype("int64"),
            "n_tool": df["role"].eq("tool").groupby(keys, sort=False).sum().astype("int64"),
            "transcript": line.groupby(keys, sort=False).agg(sep.join),
            "first_ts": g["ts"].min().astype("datetime64[us]"),
            "last_ts": g["ts"].max().astype("datetime64[us]"),
        }
    )
    out.index.name = "conv_id"
    return out.reset_index()


@dataclass
class StreamingStitchJob:
    input_dir: str
    out_dir: str
    ckpt_dir: str
    gap_s: int = 1800  # completion gap: conv closes when wm passes last ts + gap
    allowed_lateness_s: int = 0
    # emitter: closed conversations' buffered turns -> output rows.
    # Default stitches whole conversations; pass any vectorized
    # per-bucket fn (e.g. session aggregates) for other session-window
    # outputs — the buffering/close/commit machinery is shared.
    emitter: Callable[[pd.DataFrame], pd.DataFrame] | None = None
    # per-epoch ROW-PRESERVING table function on the live input (column
    # derivation/casts only — rows_in/rows_late accounting assumes the
    # transform keeps the row count; see session_job/job contract)
    transform: Callable[[pa.Table], pa.Table] | None = None
    num_partitions: int = 8
    max_files_per_epoch: int = 1
    extra_read_kw: dict = field(default_factory=dict)

    def __post_init__(self):
        self.store = CheckpointStore(self.ckpt_dir)

    def pending_files(self) -> list[str]:
        consumed = self.store.consumed_files()
        files = sorted(glob.glob(os.path.join(self.input_dir, "*.parquet")))
        return [f for f in files if f not in consumed]

    def _prev(self) -> tuple[int, int, list[str]]:
        """(next_epoch, prev_wm_us, prev_state_files) — state from the
        manifest's exact lineage (glob fallback for legacy manifests)."""
        last = self.store.last()
        if last is None:
            return 0, -(1 << 62), []
        state_files = last.state_files()
        if not state_files and last.state_path and os.path.isdir(last.state_path):
            state_files = sorted(
                glob.glob(os.path.join(last.state_path, "**", "*.parquet"), recursive=True)
            )
        return last.epoch + 1, last.watermark_us, state_files

    def run_epoch(self, finalize: bool = False) -> EpochManifest | None:
        t0 = time.perf_counter()
        epoch, prev_wm, prev_state = self._prev()
        if prev_wm >= WM_FINAL:
            return None
        files = [] if finalize else self.pending_files()[: self.max_files_per_epoch]
        if not files and not finalize:
            return None

        gap_us = self.gap_s * US
        parts: list[rd.Dataset] = []
        rows_in = 0
        # __st marks carried state rows: they pre-date the watermark by
        # construction and must NOT be counted/dropped as late
        def mark(val: int):
            def fn(tbl: pa.Table) -> pa.Table:
                return tbl.append_column("__st", pa.repeat(pa.scalar(val, pa.int8()), tbl.num_rows))

            return fn

        if files:
            rows_in = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
            ds = _read_pq(files, **self.extra_read_kw)
            if self.transform is not None:
                ds = ds.map_batches(self.transform, batch_format="pyarrow", zero_copy_batch=True)
            # materialize ONCE: the live side is consumed twice (watermark
            # max below + the union shuffle) and would otherwise re-read
            # and re-decode the epoch's files per consumer; one epoch's
            # turns are bounded by max_files_per_epoch and spill if large
            parts.append(
                ds.select_columns(TURN_COLS)
                .map_batches(mark(0), batch_format="pyarrow", zero_copy_batch=True)
                .materialize()
            )
        if prev_state:
            parts.append(
                _read_pq(prev_state)
                .select_columns(TURN_COLS)
                .map_batches(mark(1), batch_format="pyarrow", zero_copy_batch=True)
            )

        if not parts:
            m = self._commit_empty(epoch, prev_wm, t0, finalize)
            return m

        unioned = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])

        # watermark from the LIVE rows only (state maxima are <= prev_wm
        # + gap by construction and can't advance the clock)
        live_max = parts[0].max("ts") if files else None
        if live_max is not None:  # None: 0-row input file — wm holds
            live_max_us = int(pa.scalar(live_max).cast(pa.int64()).as_py())
            new_wm = max(prev_wm, live_max_us - self.allowed_lateness_s * US)
        else:
            new_wm = prev_wm
        if finalize:
            new_wm = WM_FINAL

        out_dir, state_dir = self.out_dir, self.store.state_path_for(epoch)
        P = self.num_partitions

        def tag(tbl: pa.Table) -> pa.Table:
            return tbl.append_column(
                BUCKET_COL, pa.array(hash_bucket(tbl.column("conv_id"), P))
            )

        def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
            bucket = int(df[BUCKET_COL].iloc[0])
            df = df.drop(columns=[BUCKET_COL])
            # normalize to datetime64[us] FIRST (session_job does the
            # same): a pandas batch can carry ts as [ns]/[s] through the
            # shuffle, and a bare astype(int64) would then be off 1000x
            # vs the microsecond watermark (nothing closes / all late)
            df = df.assign(
                __tsus=df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
            )
            late = (df["__tsus"] <= prev_wm) & (df["__st"] == 0)
            n_late = int(late.sum())
            df = df[~late].drop(columns=["__st"])
            recs = []
            if len(df):
                conv_max = df.groupby("conv_id", sort=False)["__tsus"].transform("max")
                closed_mask = (conv_max + gap_us) <= new_wm
                closed, open_ = (
                    df[closed_mask].drop(columns=["__tsus"]),
                    df[~closed_mask].drop(columns=["__tsus"]),
                )
                if len(closed):
                    stitched = (self.emitter or stitch_convs_df)(closed)
                    path, sha, rows = write_partition_file(
                        pa.Table.from_pandas(stitched, preserve_index=False), out_dir, bucket, epoch
                    )
                    recs.append(("out", bucket, rows, path, sha))
                if len(open_):
                    path, sha, rows = write_partition_file(
                        pa.Table.from_pandas(open_, preserve_index=False), state_dir, bucket, epoch
                    )
                    recs.append(("state", bucket, rows, path, sha))
            return pd.DataFrame(
                recs + [("late", bucket, n_late, "", "")],
                columns=["kind", "partition", "rows", "path", "sha256"],
            )

        lineage = (
            unioned.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
            .groupby(BUCKET_COL)
            .map_groups(per_bucket, batch_format="pandas")
            .take_all()
        )
        rows_late = sum(r["rows"] for r in lineage if r["kind"] == "late")
        outs = [r for r in lineage if r["kind"] == "out"]
        states = [r for r in lineage if r["kind"] == "state"]
        manifest = EpochManifest(
            epoch=epoch,
            input_files=files,
            watermark_us=new_wm,
            rows_in=rows_in,
            rows_late=rows_late,
            rows_out=sum(r["rows"] for r in outs),
            partitions={
                str(r["partition"]): {"rows": r["rows"], "files": [r["path"]], "sha256": [r["sha256"]]}
                for r in outs
            },
            state_rows=sum(r["rows"] for r in states),
            state_path=state_dir,
            state_partitions={
                str(r["partition"]): {"rows": r["rows"], "files": [r["path"]], "sha256": [r["sha256"]]}
                for r in states
            },
            extra={"op": "stitch"},
        )
        self.store.commit(manifest)
        self.store.append_metrics(
            {
                "epoch": epoch,
                "op": "stitch",
                "rows_in": rows_in,
                "rows_late": rows_late,
                "rows_out": manifest.rows_out,
                "state_rows": manifest.state_rows,
                "watermark_us": new_wm,
                "wall_s": round(time.perf_counter() - t0, 3),
            }
        )
        return manifest

    def _commit_empty(self, epoch, prev_wm, t0, finalize) -> EpochManifest:
        wm = WM_FINAL if finalize else prev_wm
        m = EpochManifest(epoch, [], wm, 0, 0, 0, {}, 0, None)
        self.store.commit(m)
        self.store.append_metrics(
            {"epoch": epoch, "op": "stitch", "rows_in": 0, "rows_late": 0, "rows_out": 0,
             "state_rows": 0, "watermark_us": wm, "wall_s": round(time.perf_counter() - t0, 3)}
        )
        return m

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

    def committed_output(self) -> rd.Dataset:
        files = self.store.committed_output_files()
        if not files:
            raise ValueError("no committed output yet")
        return _read_pq(files)
