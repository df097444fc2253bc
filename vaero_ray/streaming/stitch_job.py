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
  state meet by hash(conv_id) bucket; each reduce task stitches the
  closed conversations of all its buckets in one pyarrow call
  (turn-ordered concat, per-role counts — semantics of stages/stitch.py
  stitch_conversations) and writes BOTH the output and the state files
  of each bucket deterministically in-task; only lineage reaches the
  driver;
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

import pyarrow as pa
import pyarrow.compute as pc

from vaero_ray.stages.windows import US
from vaero_ray.streaming.driver import (
    Claim,
    EpochDriver,
    KeyedStep,
    Source,
    StepResult,
    advance_watermark,
    event_rows,
    event_us,
)
from vaero_ray.streaming.sink import Write

TURN_COLS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
_ROLES = ("user", "assistant", "tool")


def stitch_convs(tbl: pa.Table, sep: str = "\n") -> pa.Table:
    """Stitch every conversation in ``tbl`` into one row (same output
    schema as stages/stitch.py stitch_conversations): its turns as
    ``role: text`` lines in turn order, ties in input order."""
    tbl = tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    role, text = (tbl.column(c).cast(pa.string()) for c in ("role", "text"))
    cols = {
        "conv_id": tbl.column("conv_id"),
        "line": pc.binary_join_element_wise(role, text, ": "),
        "ts": pc.cast(tbl.column("ts"), pa.timestamp("us"), safe=False),
    }
    for r in _ROLES:
        cols[f"n_{r}"] = pc.fill_null(pc.equal(role, r), False).cast(pa.int64())
    # single-threaded: the list aggregate keeps each group's row order
    g = pa.table(cols).group_by("conv_id", use_threads=False).aggregate(
        [([], "count_all"), *[(f"n_{r}", "sum") for r in _ROLES], ("line", "list"), ("ts", "min"), ("ts", "max")]
    )
    return pa.table({
        "conv_id": g.column("conv_id"),
        "n_turns": g.column("count_all"),
        **{f"n_{r}": g.column(f"n_{r}_sum") for r in _ROLES},
        "transcript": pc.binary_join(g.column("line_list"), sep),
        "first_ts": g.column("ts_min"),
        "last_ts": g.column("ts_max"),
    })


@dataclass
class StreamingStitchJob(EpochDriver):
    input_dir: str
    out_dir: str
    ckpt_dir: str
    gap_s: int = 1800  # completion gap: conv closes when wm passes last ts + gap
    allowed_lateness_s: int = 0
    # emitter: closed conversations' buffered turns -> output rows, a
    # table whose first column is conv_id. Default stitches whole
    # conversations; pass any vectorized table fn (e.g. session
    # aggregates) for other session-window outputs — the
    # buffering/close/commit machinery is shared.
    emitter: Callable[[pa.Table], pa.Table] | None = None
    # per-epoch ROW-PRESERVING table function on the live input (column
    # derivation/casts only — rows_in/rows_late accounting assumes the
    # transform keeps the row count; see session_job/job contract)
    transform: Callable[[pa.Table], pa.Table] | None = None
    max_files_per_epoch: int = 1
    extra_read_kw: dict = field(default_factory=dict)

    op = "stitch"

    def epoch_step(self, c: Claim) -> StepResult:
        turns = methodcaller("select", TURN_COLS)
        live = Source(c.files, turns, event_rows("ts", self.transform), self.read_columns)
        ks = KeyedStep(c, [live, Source(c.state_files(), turns)], "conv_id")
        # the watermark advances on the live rows only: state maxima are
        # <= prev_wm + gap by construction and can't advance the clock
        new_wm = advance_watermark(c.prev_wm, ks.maxima[0], self.allowed_lateness_s, c.finalize)
        gap_us, emit = self.gap_s * US, self.emitter or stitch_convs

        def per_task(tbl: pa.Table, wm: int) -> list[Write]:
            # event_us normalizes to microseconds FIRST: a bare int64
            # cast of a [ns]/[s] column would be off 1000x vs the watermark
            last = pa.table({"conv_id": tbl.column("conv_id"), "ts": event_us(tbl.column("ts"))})
            last = last.group_by("conv_id", use_threads=False).aggregate([("ts", "max")])
            done = last.filter(pc.less_equal(pc.add(last.column("ts_max"), gap_us), wm)).column("conv_id")
            closed = pc.is_in(tbl.column("conv_id"), done)
            writes = [Write("state", tbl.filter(pc.invert(closed)))]
            if len(done):
                writes.append(Write("out", emit(tbl.filter(closed))))
            return writes

        return ks.reduce(per_task, new_wm)
