"""Streaming ordered per-key fold with carried state — the streaming
form of the NON-mergeable per-entity recurrences (EWMA and friends)
that no keyed aggregate can express.

Model (the epoch loop, claim, commit and metrics are driver.py's):

- the fold e_t = step(v_t, e_{t-1}) must consume each key's events in
  EVENT-TIME order, so an event is foldable only once the watermark
  proves nothing earlier can still arrive: per epoch, events with
  ``ts <= new_wm`` are MATURE and fold; later events buffer;
- state = (a) the buffered immature events and (b) one carried fold row
  per key seen so far: ``(key, acc, n)``. Both are hash-partitioned
  Parquet snapshots per epoch (``state/buf``, ``state/fold``), bounded
  by the watermark horizon and the live key count respectively;
- per epoch one keyed step (driver.py ``KeyedStep``) over live,
  buffered and fold rows on hash(key) — a key's events and its carried
  accumulator always meet in the same reduce task, which folds its
  mature events (seeded by the carried accumulator) in numpy, writes
  the new buf/fold state files in-task, and returns lineage only;
- rows are emitted at FINALIZE (wm = infinity folds everything and the
  per-key accumulators become the output — exactly the batch
  ``cep.ordered_ewma`` rows, giving stream == batch parity). A live
  deployment reads the committed ``state/fold`` snapshot instead — it
  is the current per-entity signal, updated every epoch.

The union rides ONE all-int64 schema (key, tsus, tie, v, acc, n, kind)
with zeros instead of nulls, so every column reaches the fold as an
exact int64 numpy array.

Fold step is the integer EWMA ``(a*v + (d-a)*e) // d`` (see
stages/cep.ordered_ewma for the exactness contract); the rank-step
vectorization is the same, extended with per-key seeding.

Resume/exactly-once: driver.py's protocol — deterministic epoch
composition from the manifest lineage, canonical in-task writes,
fsync'd manifest commit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
import pyarrow as pa

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

_EV_COLS = ["key", "tsus", "tie", "v"]
_FOLD_COLS = ["key", "acc", "n"]
_UNION_COLS = ["key", "tsus", "tie", "v", "acc", "n", "kind"]


def _union_rows(kind: int, tbl: pa.Table) -> pa.Table:
    """Rows -> the all-int64 union schema; columns the rows lack are 0.
    ``kind`` 0 = event, 1 = carried fold row."""

    def col(c: str):
        if c in tbl.column_names:
            return tbl.column(c)
        return pa.repeat(pa.scalar(kind if c == "kind" else 0, pa.int64()), tbl.num_rows)

    return pa.table({c: col(c) for c in _UNION_COLS})


@dataclass
class StreamingFoldJob(EpochDriver):
    input_dir: str
    out_dir: str
    ckpt_dir: str
    key_col: str
    ts_col: str
    tie_col: str
    val_col: str
    alpha_num: int = 30
    alpha_den: int = 100
    out_val: str = "ewma"
    allowed_lateness_s: int = 0
    num_partitions: int = 8
    max_files_per_epoch: int = 1
    # row-preserving per-epoch table function on the live input (derive
    # the int64 value column etc.; rows_in/rows_late accounting assumes
    # the row count is preserved — same contract as stitch_job/session_job)
    transform: Callable[[pa.Table], pa.Table] | None = None
    extra_read_kw: dict = field(default_factory=dict)

    op = "fold"

    def __post_init__(self):
        if not (0 < self.alpha_num <= self.alpha_den):
            raise ValueError("StreamingFoldJob: need 0 < alpha_num <= alpha_den")
        super().__post_init__()
        step.task_read_columns(self.extra_read_kw)

    # ------------------------------------------------------------ fold math

    def _fold_seeded(self, ev: dict, folds: dict) -> dict:
        """Fold mature events (``_EV_COLS`` arrays) in (key, tsus, tie)
        order, seeded by the carried fold rows (``_FOLD_COLS`` arrays);
        returns the fold arrays for EVERY key seen (touched or not)."""
        a, d = self.alpha_num, self.alpha_den
        b = d - a
        order = np.lexsort((ev["tie"], ev["tsus"], ev["key"]))
        key, v = ev["key"][order], ev["v"][order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]) if len(key) else np.array([], np.int64)
        lens = np.diff(np.r_[starts, len(key)]).astype(np.int64)
        seg_keys = key[starts]

        # carried seeds, looked up in int64 (no float round trip)
        corder = np.argsort(folds["key"], kind="stable")
        ckey = folds["key"][corder]
        pos = np.searchsorted(ckey, seg_keys)
        seeded = pos < len(ckey)
        seeded[seeded] = ckey[pos[seeded]] == seg_keys[seeded]
        hit = corder[pos[seeded]]
        state, seed_n = v[starts], np.zeros(len(seg_keys), np.int64)
        state[seeded], seed_n[seeded] = folds["acc"][hit], folds["n"][hit]
        for r in range(int(lens.max()) if len(lens) else 0):
            # seeded keys fold from their first event; unseeded keys start
            # AT their first event (e_0 = v_0), so they skip r == 0
            apply = (lens > r) & (seeded | (r >= 1))
            idx = starts[apply] + r
            state[apply] = (a * v[idx] + b * state[apply]) // d
        untouched = ~np.isin(folds["key"], seg_keys)
        return {
            "key": np.r_[seg_keys, folds["key"][untouched]],
            "acc": np.r_[state, folds["acc"][untouched]],
            "n": np.r_[seed_n + lens, folds["n"][untouched]],
        }

    # ------------------------------------------------------------ epochs

    def epoch_step(self, c: Claim) -> StepResult:
        kc, tc, ic, vc = self.key_col, self.ts_col, self.tie_col, self.val_col

        def events(tbl: pa.Table) -> pa.Table:
            columns = {
                "key": tbl.column(kc).cast(pa.int64()),
                "tsus": tbl.column(tc).cast(pa.timestamp("us")).cast(pa.int64()),
                "tie": tbl.column(ic).cast(pa.int64()),
                "v": tbl.column(vc).cast(pa.int64()),
            }
            return _union_rows(0, pa.table(columns))

        # state partitions: "b{bucket}" buffered events, "f{bucket}" folds
        sources = [
            Source(c.files, events, tc, self.transform, step.task_read_columns(self.extra_read_kw)),
            Source(c.state_files("b"), partial(_union_rows, 0)),
            Source(c.state_files("f"), partial(_union_rows, 1)),
        ]
        ks = KeyedStep(c, sources, "key", self.num_partitions)
        new_wm = advance_watermark(c.prev_wm, ks.maxima[0], self.allowed_lateness_s, c.finalize)
        finalize, out_dir, state_dir = c.finalize, self.out_dir, self.store.state_path_for(c.epoch)
        key_out, val_out = self.key_col, self.out_val
        fold_fn = self._fold_seeded

        def per_task(tbl: pa.Table, wm: int) -> list[Write]:
            col = {c: tbl.column(c).to_numpy() for c in _UNION_COLS}
            ev = col["kind"] == 0
            mature, future = ev & (col["tsus"] <= wm), ev & (col["tsus"] > wm)
            fold_rows = col["kind"] == 1
            folds = fold_fn({c: col[c][mature] for c in _EV_COLS}, {c: col[c][fold_rows] for c in _FOLD_COLS})
            if finalize:
                out = pa.table({key_out: folds["key"], "n_events": folds["n"], val_out: folds["acc"]})
                return [Write("out", out, out_dir)]
            return [
                Write("state", pa.table(folds), os.path.join(state_dir, "fold"), "f"),
                Write("state", tbl.select(_EV_COLS).filter(pa.array(future)), os.path.join(state_dir, "buf"), "b"),
            ]

        return ks.reduce(per_task, new_wm)
