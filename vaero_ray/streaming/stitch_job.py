"""Streaming stateful turn-sequence join: buffer out-of-order turns per
conversation until the watermark says the conversation is complete, then
emit ONE stitched record per conversation (north_star: "a stateful
turn-sequence join that stitches user/assistant/tool turns per
conversation").

Model (the epoch loop, claim, commit and metrics are driver.py's):

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

Resume/exactly-once: driver.py's protocol — deterministic epoch
composition, canonical in-task writes, fsync'd manifest commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pandas as pd
import pyarrow as pa

from vaero_ray.io import read_parquet as _read_pq

from vaero_ray.stages.windows import US
from vaero_ray.streaming.driver import (
    Claim,
    EpochDriver,
    StepResult,
    advance_watermark,
    bucket_step,
    late_record,
    write_frame,
)

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


def _mark(val: int):
    """Tag rows with ``__st``: 1 marks carried state rows, which pre-date
    the watermark by construction and must NOT be counted/dropped as late."""

    def fn(tbl: pa.Table) -> pa.Table:
        return tbl.append_column("__st", pa.repeat(pa.scalar(val, pa.int8()), tbl.num_rows))

    return fn


@dataclass
class StreamingStitchJob(EpochDriver):
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

    op = "stitch"

    def epoch_step(self, c: Claim) -> StepResult:
        parts = []
        if c.files:
            ds = _read_pq(c.files, **self.extra_read_kw)
            if self.transform is not None:
                ds = ds.map_batches(self.transform, batch_format="pyarrow", zero_copy_batch=True)
            # materialize ONCE: the live side is consumed twice (watermark
            # max below + the union shuffle) and would otherwise re-read
            # and re-decode the epoch's files per consumer; one epoch's
            # turns are bounded by max_files_per_epoch and spill if large
            parts.append(
                ds.select_columns(TURN_COLS)
                .map_batches(_mark(0), batch_format="pyarrow", zero_copy_batch=True)
                .materialize()
            )
        state_files = c.state_files()
        if state_files:
            parts.append(
                _read_pq(state_files)
                .select_columns(TURN_COLS)
                .map_batches(_mark(1), batch_format="pyarrow", zero_copy_batch=True)
            )

        # watermark from the LIVE rows only (state maxima are <= prev_wm
        # + gap by construction and can't advance the clock); None: no
        # input or a 0-row input file — the watermark holds
        live_max = parts[0].max("ts") if c.files else None
        epoch_max_ts = None if live_max is None else int(pa.scalar(live_max).cast(pa.int64()).as_py())
        prev_wm = c.prev_wm
        new_wm = advance_watermark(prev_wm, epoch_max_ts, self.allowed_lateness_s, c.finalize)

        gap_us, emit = self.gap_s * US, self.emitter or stitch_convs_df
        epoch, out_dir, state_dir = c.epoch, self.out_dir, self.store.state_path_for(c.epoch)

        def per_bucket(df: pd.DataFrame, bucket: int) -> list[tuple]:
            # normalize to datetime64[us] FIRST (session_job does the
            # same): a pandas batch can carry ts as [ns]/[s] through the
            # shuffle, and a bare astype(int64) would then be off 1000x
            # vs the microsecond watermark (nothing closes / all late)
            df = df.assign(__tsus=df["ts"].to_numpy().astype("datetime64[us]").astype("int64"))
            late = (df["__tsus"] <= prev_wm) & (df["__st"] == 0)
            recs = [late_record(int(late.sum()))]
            df = df[~late].drop(columns=["__st"])
            if len(df):
                conv_max = df.groupby("conv_id", sort=False)["__tsus"].transform("max")
                closed_mask = (conv_max + gap_us) <= new_wm
                closed, open_ = df[closed_mask].drop(columns=["__tsus"]), df[~closed_mask].drop(columns=["__tsus"])
                if len(closed):
                    recs.append(write_frame("out", emit(closed), out_dir, bucket, epoch))
                if len(open_):
                    recs.append(write_frame("state", open_, state_dir, bucket, epoch))
            return recs

        partitions, state_partitions, rows_late = bucket_step(parts, "conv_id", self.num_partitions, per_bucket)
        return StepResult(new_wm, partitions, state_partitions, rows_late, epoch_max_ts)
