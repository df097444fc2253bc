"""Streaming stream-stream windowed equi-join: two live input streams
joined on a key within an event-time window, with per-side watermarks,
watermark-bounded state buffers, and the exactly-once commit protocol.

The canonical hard streaming operator (Spark's watermarked stream-stream
inner join): neither side is a static table, so BOTH sides buffer —
bounded by the time window and the watermark, never by stream length.

Semantics (inner join): emit ``(l, r)`` where ``l.key == r.key`` and
``l.ts <= r.ts <= l.ts + within_s`` — the "B happens within T after A"
shape (views -> purchase-within-window). Output equals the batch
interval join over all non-late rows; the parity is exact because a
pair is emitted exactly once, in the epoch its LATER side arrives:

- per epoch, new pairs = (new_L x (buf_R U new_R)) U (buf_L x new_R);
  buffers hold only PRIOR epochs' rows, so no pair is counted twice;
- a left row is evicted once ``ts_l + within <= wm`` — any future
  non-late right row has ``ts_r > wm >= ts_l + within`` and cannot
  match; a right row is evicted once ``ts_r <= wm`` — any future left
  row has ``ts_l > wm >= ts_r`` and cannot match. No pair is lost.

Watermark: per-side ``wm_side = max(prev, max live ts - lateness)``
persisted in the manifest; the GLOBAL watermark is ``min(wm_L, wm_R)``
(a side that lags holds the clock back — the standard multi-input
rule), so a slow side never causes the fast side's matches to be
evicted early. New rows at or below the previous global watermark are
LATE: dropped and counted.

Epoch mechanics (driver.py's epoch loop, commit protocol and keyed
step): one ``KeyedStep`` per epoch — map tasks drop late rows and pad
new rows of both sides plus both state buffers to the union schema with
typed nulls, tagged ``__side``/``__st``; each reduce task converts its
rows to pandas once, joins them with the pandas kernel below (the one
keyed kernel not yet ported to Arrow), and writes each bucket's output
file and state partitions deterministically; only lineage reaches the
driver. fsync'd manifest = the commit point; a SIGKILL anywhere reruns
the epoch byte-identically.

Scale: state per key is bounded by the rows inside ``within + lateness``
of the watermark (the contract every watermarked stream-stream join
has); the per-epoch exchange carries one epoch's arrivals + the live
buffers, hash-partitioned on the join key.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from vaero_ray.stages.windows import US
from vaero_ray.streaming import step
from vaero_ray.streaming.driver import (
    WM_MIN,
    Claim,
    EpochDriver,
    KeyedStep,
    Source,
    StepResult,
    Write,
    advance_watermark,
)


@dataclass
class StreamingJoinJob(EpochDriver):
    left_dir: str
    right_dir: str
    out_dir: str
    ckpt_dir: str
    key: str
    within_s: int  # join window: l.ts <= r.ts <= l.ts + within_s
    left_cols: list  # payload columns (besides key/ts); disjoint from right_cols
    right_cols: list
    ts_col: str = "ts"
    allowed_lateness_s: int = 0
    num_partitions: int = 8
    max_files_per_epoch: int = 1  # per side
    extra_read_kw: dict = field(default_factory=dict)
    # "inner" | "left_outer". Outer: a left row that never matched emits
    # ONCE with a null right side — at EVICTION time, when the watermark
    # proves no future right row can match it (the Spark outer
    # stream-stream-join rule: outer results wait for the watermark).
    # Requires left_id_col (a unique id among left_cols) so the matched
    # flag tracks identity across epochs in the state snapshot.
    join_type: str = "inner"
    left_id_col: "str | None" = None

    op = "join"

    def __post_init__(self):
        super().__post_init__()
        step.task_read_columns(self.extra_read_kw)
        if set(self.left_cols) & set(self.right_cols):
            raise ValueError("left_cols and right_cols must be disjoint")
        if self.join_type not in ("inner", "left_outer"):
            raise ValueError(f"unknown join_type {self.join_type!r}")
        if self.join_type == "left_outer":
            if self.left_id_col is None or self.left_id_col not in self.left_cols:
                raise ValueError("left_outer requires left_id_col (one of left_cols)")
        # footer schemas, read ONCE at init: (a) the union-schema types
        # for null-padding (a finalize epoch may see only ONE side's
        # state snapshot, which cannot define the other side's columns),
        # (b) which payload columns are ints, for exact dtype restoration
        # after the padded union (typed nulls degrade int64 -> float64
        # inside the pandas kernel)
        self._int_cols: set = set()
        self._types: dict = {}
        for d, cols in ((self.left_dir, self.left_cols), (self.right_dir, self.right_cols)):
            fs = sorted(glob.glob(os.path.join(d, "*.parquet")))
            if fs:
                sch = pq.read_schema(fs[0])
                for c in [self.key, self.ts_col] + list(cols):
                    if c in sch.names and c not in self._types:
                        self._types[c] = sch.field(c).type
                for c in cols:
                    if c in sch.names and pa.types.is_integer(sch.field(c).type):
                        self._int_cols.add(c)

    # -- epoch plumbing: two input directories -------------------------
    def pending_files(self) -> list:
        return self._unconsumed(self.left_dir) + self._unconsumed(self.right_dir)

    def _claim(self, finalize: bool) -> list:
        if finalize:
            return []
        n = self.max_files_per_epoch
        return self._unconsumed(self.left_dir)[:n] + self._unconsumed(self.right_dir)[:n]

    def _pad(self, side: int, st: int, all_cols: list, types: dict):
        """Stateless pad-to-union-schema + side/state tags (typed nulls
        keep Arrow ints int — the pandas degradation is handled in the
        reduce via the footer-schema int restore)."""

        def fn(tbl: pa.Table) -> pa.Table:
            if tbl.schema.metadata:
                tbl = tbl.replace_schema_metadata(None)
            n = tbl.num_rows
            cols = {}
            for c in all_cols:
                if c in tbl.column_names:
                    cols[c] = tbl.column(c)
                else:
                    cols[c] = pa.nulls(n, types[c])
            cols["__side"] = pa.repeat(pa.scalar(side, pa.int8()), n)
            cols["__st"] = pa.repeat(pa.scalar(st, pa.int8()), n)
            return pa.table(cols)

        return fn

    def epoch_step(self, c: Claim) -> StepResult:
        # per-side watermarks ride the manifest's extra; each side's buffer
        # snapshot keeps its NATIVE schema (separate files, "L:"/"R:"
        # partition keys): a padded mixed-side state file would write the
        # null-padded int columns as float64 and poison the next epoch's
        # schema union
        extra = c.last.extra if c.last is not None else {}
        wm_l, wm_r = extra.get("wm_l", WM_MIN), extra.get("wm_r", WM_MIN)
        lf, rf = _in_dir(c.files, self.left_dir), _in_dir(c.files, self.right_dir)
        state_l, state_r = c.state_files("L:"), c.state_files("R:")
        finalize, epoch = c.finalize, c.epoch
        within_us = self.within_s * US
        outer = self.join_type == "left_outer"
        all_cols = [self.key, self.ts_col] + list(self.left_cols) + list(self.right_cols)
        # union-schema types: init-time footer schemas, backfilled from
        # this epoch's files for any column the init dirs lacked
        types: dict = dict(self._types)
        if any(col not in types for col in all_cols):
            for f in lf + state_l + rf + state_r:
                sch = pq.read_schema(f)
                for col in all_cols:
                    if col in sch.names and col not in types:
                        types[col] = sch.field(col).type
        if outer:
            # matched-ever flag: null-padded on live left rows (-> 0),
            # carried natively in the L state snapshot across epochs
            all_cols = all_cols + ["__matched"]
            types["__matched"] = pa.int8()
        columns = step.task_read_columns(self.extra_read_kw)
        sources = [Source(f, self._pad(side, 0, all_cols, types), self.ts_col, None, columns)
                   for side, f in enumerate((lf, rf))]
        sources += [Source(f, self._pad(side, 1, all_cols, types)) for side, f in enumerate((state_l, state_r))]
        ks = KeyedStep(c, sources, self.key, self.num_partitions)
        # per-side watermarks advance on live maxima only
        wm_l = advance_watermark(wm_l, ks.maxima[0], self.allowed_lateness_s, finalize)
        wm_r = advance_watermark(wm_r, ks.maxima[1], self.allowed_lateness_s, finalize)

        key, ts_col = self.key, self.ts_col
        lcols, rcols = list(self.left_cols), list(self.right_cols)
        int_cols, left_id_col = self._int_cols, self.left_id_col
        out_dir, state_dir = self.out_dir, self.store.state_path_for(epoch)

        def per_task(tbl: pa.Table, new_wm: int) -> list[Write]:
            df = tbl.to_pandas()
            df = df.assign(__tsus=df[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64))
            writes = []

            def side_frame(side: int, cols: list) -> pd.DataFrame:
                sub = df[df["__side"] == side][[key, "__tsus"] + cols].copy()
                for c in cols:
                    if c in int_cols:
                        sub[c] = sub[c].astype("int64")  # undo null-pad float64
                return sub

            l_all = side_frame(0, lcols)
            r_all = side_frame(1, rcols)
            if outer:
                # live left rows were null-padded -> NaN; state carries 0/1
                mcol = df[df["__side"] == 0]["__matched"]
                l_all = l_all.assign(__matched=mcol.fillna(0).astype(np.int8).to_numpy())
            new_m = (df["__st"] == 0).to_numpy()
            l_new = l_all[new_m[df["__side"].to_numpy() == 0]]
            r_new = r_all[new_m[df["__side"].to_numpy() == 1]]
            l_buf = l_all[~new_m[df["__side"].to_numpy() == 0]]
            r_buf = r_all[~new_m[df["__side"].to_numpy() == 1]]

            def join(lf_: pd.DataFrame, rf_: pd.DataFrame) -> pd.DataFrame:
                if not len(lf_) or not len(rf_):
                    return pd.DataFrame()
                if outer:
                    lf_ = lf_.drop(columns=["__matched"])

                def one(chunk: pd.DataFrame) -> pd.DataFrame:
                    m = chunk.merge(rf_, on=key, suffixes=("_l", "_r"))
                    d = m["__tsus_r"] - m["__tsus_l"]
                    return m[(d >= 0) & (d <= within_us)]

                # hot-key guard (range_join's bounded-temporaries rule): a
                # celebrity key makes the UNFILTERED merge product blow up
                # even when the time filter keeps little; chunk the left
                # side so each temp stays ~CAND_CAP candidate rows. Output
                # exact regardless (chunks are a partition of lf_).
                rcnt = rf_[key].value_counts()
                est = int(lf_[key].map(rcnt).fillna(0).sum())
                CAND_CAP = 4_000_000
                if est <= CAND_CAP:
                    return one(lf_)
                n_chunks = -(-est // CAND_CAP)
                step = -(-len(lf_) // n_chunks)
                return pd.concat(
                    [one(lf_.iloc[i : i + step]) for i in range(0, len(lf_), step)],
                    ignore_index=True,
                )

            pairs = pd.concat(
                [join(l_new, pd.concat([r_buf, r_new], ignore_index=True)), join(l_buf, r_new)],
                ignore_index=True,
            )
            out_frames = []
            if len(pairs):
                out = pd.DataFrame({key: pairs[key]})
                out["ts_l"] = pairs["__tsus_l"].to_numpy().astype("datetime64[us]")
                out["ts_r"] = pairs["__tsus_r"].to_numpy().astype("datetime64[us]")
                for c in lcols + rcols:
                    out[c] = pairs[c].to_numpy()
                out_frames.append(out)

            # eviction under the NEW global watermark; each side's
            # snapshot keeps its NATIVE schema (no null padding on disk)
            l_keep_all = pd.concat([l_buf, l_new], ignore_index=True)
            if outer and len(l_keep_all):
                # a left row is its (key, id): a reduce task holds many keys
                ids = [key, left_id_col]
                hit = pd.MultiIndex.from_frame(l_keep_all[ids]).isin(
                    pd.MultiIndex.from_frame(pairs[ids]) if len(pairs) else []
                )
                l_keep_all = l_keep_all.assign(
                    __matched=(l_keep_all["__matched"].astype(bool) | hit).astype(np.int8)
                )
            for tag_, frame, keep_cols in (
                ("L", l_keep_all, lcols + (["__matched"] if outer else [])),
                ("R", pd.concat([r_buf, r_new], ignore_index=True), rcols),
            ):
                if tag_ == "L":
                    keep = frame["__tsus"] + within_us > new_wm
                    if outer:
                        # outer result: left rows proven unmatchable emit
                        # ONCE, with a null right side, at eviction time
                        ev = frame[~keep & (frame["__matched"] == 0)]
                        if len(ev):
                            out = pd.DataFrame({key: ev[key]})
                            out["ts_l"] = ev["__tsus"].to_numpy().astype("datetime64[us]")
                            out["ts_r"] = pd.Series(pd.NaT, index=ev.index, dtype="datetime64[us]").to_numpy()
                            for c in lcols:
                                out[c] = ev[c].to_numpy()
                            for c in rcols:
                                out[c] = None
                            out_frames.append(out)
                    frame = frame[keep]
                else:
                    frame = frame[frame["__tsus"] > new_wm]
                if len(frame):
                    snap = pd.DataFrame({key: frame[key]})
                    snap[ts_col] = frame["__tsus"].to_numpy().astype("datetime64[us]")
                    for c in keep_cols:
                        snap[c] = frame[c].to_numpy()
                    snap = pa.Table.from_pandas(snap, preserve_index=False)
                    writes.append(Write("state", snap, os.path.join(state_dir, tag_), f"{tag_}:"))
            if out_frames:
                out = pd.concat(out_frames, ignore_index=True)
                if outer:
                    # nullable Int64 keeps right ints int64-typed in Arrow
                    # (NaN-degraded float64 would change the output schema)
                    for c in rcols:
                        if c in int_cols:
                            out[c] = out[c].astype("Int64")
                writes.append(Write("out", pa.Table.from_pandas(out, preserve_index=False), out_dir))
            return writes

        return ks.reduce(per_task, min(wm_l, wm_r), extra={"wm_l": wm_l, "wm_r": wm_r})


def _in_dir(files: list, d: str) -> list:
    """The files ``_unconsumed(d)`` listed: the glob's own spelling of ``d``."""
    d = os.path.dirname(os.path.join(d, "*.parquet"))
    return [f for f in files if os.path.dirname(f) == d]
