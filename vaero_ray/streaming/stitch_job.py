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
- per epoch, one keyed step (driver.py ``KeyedStep``): new turns and
  state meet by hash(conv_id) bucket; per bucket, a reduce task stitches
  the closed conversations (turn-ordered concat, per-role counts —
  semantics of stages/stitch.py stitch_conversations) and writes BOTH
  its output file and its state partition deterministically in-task;
  only lineage reaches the driver;
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
from operator import methodcaller
from typing import Callable

import pandas as pd
import pyarrow as pa

from vaero_ray.stages.windows import US
from vaero_ray.streaming import step
from vaero_ray.streaming.driver import (
    Claim,
    EpochDriver,
    KeyedStep,
    Source,
    StepResult,
    Write,
    advance_watermark,
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

    def __post_init__(self):
        super().__post_init__()
        step.task_read_columns(self.extra_read_kw)

    def epoch_step(self, c: Claim) -> StepResult:
        turns = methodcaller("select", TURN_COLS)
        live = Source(c.files, turns, "ts", self.transform, step.task_read_columns(self.extra_read_kw))
        ks = KeyedStep(c, [live, Source(c.state_files(), turns)], "conv_id", self.num_partitions)
        # the watermark advances on the live rows only: state maxima are
        # <= prev_wm + gap by construction and can't advance the clock
        new_wm = advance_watermark(c.prev_wm, ks.maxima[0], self.allowed_lateness_s, c.finalize)
        gap_us, emit = self.gap_s * US, self.emitter or stitch_convs_df
        out_dir, state_dir = self.out_dir, self.store.state_path_for(c.epoch)

        def per_bucket(df: pd.DataFrame, bucket: int, wm: int) -> list[Write]:
            # normalize to datetime64[us] FIRST (session_job does the
            # same): a bare astype(int64) of a [ns]/[s] column would be
            # off 1000x vs the microsecond watermark
            tsus = pd.Series(df["ts"].to_numpy().astype("datetime64[us]").astype("int64"), index=df.index)
            closed_mask = (tsus.groupby(df["conv_id"], sort=False).transform("max") + gap_us) <= wm
            closed, open_ = df[closed_mask], df[~closed_mask]
            writes = []
            if len(closed):
                writes.append(Write("out", emit(closed), out_dir))
            if len(open_):
                writes.append(Write("state", open_, state_dir))
            return writes

        return ks.reduce(per_bucket, new_wm)
