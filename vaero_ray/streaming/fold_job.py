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
- per epoch ONE bucketed shuffle: union(live, buffered, fold rows) on
  hash(key) — a key's events and its carried accumulator always meet in
  the same bucket task, which folds its mature events (seeded by the
  carried accumulator), writes the new buf/fold state partitions
  in-task, and returns lineage rows only;
- rows are emitted at FINALIZE (wm = infinity folds everything and the
  per-key accumulators become the output — exactly the batch
  ``cep.ordered_ewma`` rows, giving stream == batch parity). A live
  deployment reads the committed ``state/fold`` snapshot instead — it
  is the current per-entity signal, updated every epoch.

The union rides ONE all-int64 schema (key, tsus, tie, v, acc, n, kind,
st) with sentinels instead of nulls — a padded mixed-schema union would
degrade int64 to float64 in the pandas bucket kernels (the join_job
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
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

from vaero_ray.io import read_parquet as _read_pq

from vaero_ray.streaming.driver import (
    Claim,
    EpochDriver,
    StepResult,
    advance_watermark,
    bucket_step,
    late_record,
    write_frame,
)

_EV_COLS = ["key", "tsus", "tie", "v"]
_FOLD_COLS = ["key", "acc", "n"]
_TS_SENTINEL = -(1 << 61)
_UNION_COLS = ["key", "tsus", "tie", "v", "acc", "n", "kind", "st"]


def _union_rows(kind: int, st: int):
    """Rows -> the all-int64 union schema. Columns the rows lack are 0
    (``tsus``: a sentinel); ``kind`` 0 = event, 1 = carried fold row;
    ``st`` 1 = carried state."""
    fill = {"tsus": _TS_SENTINEL, "kind": kind, "st": st}

    def fn(tbl: pa.Table) -> pa.Table:
        def col(c: str):
            if c in tbl.column_names:
                return tbl.column(c)
            return pa.repeat(pa.scalar(fill.get(c, 0), pa.int64()), tbl.num_rows)

        return pa.table({c: col(c) for c in _UNION_COLS})

    return fn


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
        # state partitions: "b{bucket}" buffered events, "f{bucket}" folds
        buf_files, fold_files = c.state_files("b"), c.state_files("f")
        parts = []
        if c.files:
            kc, tc, ic, vc = self.key_col, self.ts_col, self.tie_col, self.val_col

            def live_rows(tbl: pa.Table) -> pa.Table:
                return _union_rows(0, 0)(
                    pa.table(
                        {
                            "key": tbl.column(kc).cast(pa.int64()),
                            "tsus": tbl.column(tc).cast(pa.timestamp("us")).cast(pa.int64()),
                            "tie": tbl.column(ic).cast(pa.int64()),
                            "v": tbl.column(vc).cast(pa.int64()),
                        }
                    )
                )

            ds = _read_pq(c.files, **self.extra_read_kw)
            if self.transform is not None:
                ds = ds.map_batches(self.transform, batch_format="pyarrow", zero_copy_batch=True)
            # one materialize: consumed by the watermark max AND the shuffle
            parts.append(ds.map_batches(live_rows, batch_format="pyarrow", zero_copy_batch=True).materialize())
        for files, kind in ((buf_files, 0), (fold_files, 1)):
            if files:
                parts.append(
                    _read_pq(files).map_batches(_union_rows(kind, 1), batch_format="pyarrow", zero_copy_batch=True)
                )

        live_max = parts[0].max("tsus") if c.files else None
        epoch_max_ts = None if live_max is None else int(live_max)
        prev_wm, finalize, epoch = c.prev_wm, c.finalize, c.epoch
        new_wm = advance_watermark(prev_wm, epoch_max_ts, self.allowed_lateness_s, finalize)

        out_dir = self.out_dir
        state_dir = self.store.state_path_for(epoch)
        key_out, val_out = self.key_col, self.out_val
        fold_fn = self._fold_seeded

        def per_bucket(df: pd.DataFrame, bucket: int) -> list[tuple]:
            ev = df[df["kind"] == 0]
            folds = df[df["kind"] == 1][_FOLD_COLS]
            late = (ev["tsus"] <= prev_wm) & (ev["st"] == 0)
            recs = [late_record(int(late.sum()))]
            ev = ev[~late]
            mature_mask = ev["tsus"] <= new_wm
            mature, future = ev[mature_mask][_EV_COLS], ev[~mature_mask][_EV_COLS]
            new_folds = fold_fn(mature, folds)
            if finalize:
                if len(new_folds):
                    out = pd.DataFrame(
                        {
                            key_out: new_folds["key"].to_numpy(),
                            "n_events": new_folds["n"].to_numpy(),
                            val_out: new_folds["acc"].to_numpy(),
                        }
                    )
                    recs.append(write_frame("out", out, out_dir, bucket, epoch))
            else:
                if len(new_folds):
                    fold_dir = os.path.join(state_dir, "fold")
                    recs.append(write_frame("state", new_folds, fold_dir, bucket, epoch, f"f{bucket}"))
                if len(future):
                    buf_dir = os.path.join(state_dir, "buf")
                    recs.append(write_frame("state", future, buf_dir, bucket, epoch, f"b{bucket}"))
            return recs

        partitions, state_partitions, rows_late = bucket_step(parts, "key", self.num_partitions, per_bucket)
        return StepResult(new_wm, partitions, state_partitions, rows_late, epoch_max_ts)
