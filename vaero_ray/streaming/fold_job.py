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
  accumulator always meet in the same bucket, whose reduce task folds
  its mature events (seeded by the carried accumulator), writes the new
  buf/fold state partitions in-task, and returns lineage only;
- rows are emitted at FINALIZE (wm = infinity folds everything and the
  per-key accumulators become the output — exactly the batch
  ``cep.ordered_ewma`` rows, giving stream == batch parity). A live
  deployment reads the committed ``state/fold`` snapshot instead — it
  is the current per-entity signal, updated every epoch.

The union rides ONE all-int64 schema (key, tsus, tie, v, acc, n, kind)
with zeros instead of nulls — a padded mixed-schema union would degrade
int64 to float64 in the pandas bucket kernels (the join_job
state-snapshot trap).

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
import pandas as pd
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

    def _fold_seeded(
        self, ev: pd.DataFrame, folds: pd.DataFrame
    ) -> pd.DataFrame:
        """Fold (key, tsus, tie)-sorted mature events seeded by carried
        (key, acc, n); returns the updated fold table for EVERY key seen
        (touched or not)."""
        a, d = self.alpha_num, self.alpha_den
        b = d - a
        ev = ev.sort_values(["key", "tsus", "tie"], kind="mergesort")
        key = ev["key"].to_numpy()
        v = ev["v"].to_numpy()
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]]) if len(key) else np.array([], np.int64)
        lens = np.diff(np.r_[starts, len(key)]).astype(np.int64)
        seg_keys = key[starts] if len(key) else np.array([], np.int64)

        carried = folds.set_index("key") if len(folds) else None
        if carried is not None:
            seed_acc = carried["acc"].reindex(seg_keys)
            seeded = seed_acc.notna().to_numpy()
            seed_n = carried["n"].reindex(seg_keys).fillna(0).to_numpy().astype(np.int64)
            seed_acc = seed_acc.to_numpy()
        else:
            seeded = np.zeros(len(seg_keys), dtype=bool)
            seed_n = np.zeros(len(seg_keys), dtype=np.int64)
            seed_acc = np.zeros(len(seg_keys))

        state = np.where(seeded, np.nan_to_num(seed_acc), v[starts] if len(key) else 0).astype(
            np.int64
        )
        for r in range(int(lens.max()) if len(lens) else 0):
            # seeded keys fold from their first event; unseeded keys start
            # AT their first event (e_0 = v_0), so they skip r == 0
            apply = (lens > r) & (seeded | (r >= 1))
            idx = starts[apply] + r
            state[apply] = (a * v[idx] + b * state[apply]) // d
        touched = pd.DataFrame({"key": seg_keys, "acc": state, "n": seed_n + lens})
        if carried is None:
            return touched
        untouched = folds[~folds["key"].isin(set(seg_keys))][_FOLD_COLS]
        return pd.concat([touched, untouched], ignore_index=True)

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

        def per_bucket(df: pd.DataFrame, bucket: int, wm: int) -> list[Write]:
            ev = df[df["kind"] == 0]
            mature_mask = ev["tsus"] <= wm
            mature, future = ev[mature_mask][_EV_COLS], ev[~mature_mask][_EV_COLS]
            new_folds = fold_fn(mature, df[df["kind"] == 1][_FOLD_COLS])
            if finalize:
                if not len(new_folds):
                    return []
                out = pd.DataFrame(
                    {
                        key_out: new_folds["key"].to_numpy(),
                        "n_events": new_folds["n"].to_numpy(),
                        val_out: new_folds["acc"].to_numpy(),
                    }
                )
                return [Write("out", out, out_dir)]
            writes = []
            if len(new_folds):
                writes.append(Write("state", new_folds, os.path.join(state_dir, "fold"), f"f{bucket}"))
            if len(future):
                writes.append(Write("state", future, os.path.join(state_dir, "buf"), f"b{bucket}"))
            return writes

        return ks.reduce(per_bucket, new_wm)
