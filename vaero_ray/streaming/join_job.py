"""Streaming stream-stream windowed equi-join: two live input streams
joined on a key within an event-time window, with per-side watermarks,
watermark-bounded state buffers, and the exactly-once commit protocol.

The canonical hard streaming operator (Spark's watermarked stream-stream
inner join): neither side is a static table, so BOTH sides buffer —
bounded by the time window and the watermark, never by stream length.

Semantics (inner join): emit ``(l, r)`` where ``l.key == r.key`` and
``l.ts <= r.ts <= l.ts + within_s`` — the "B happens within T after A"
shape (views -> purchase-within-window). A null key equals nothing, as
in SQL, so a null-key row never matches. Output equals the batch
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
typed nulls, tagged ``__side``/``__st``; each reduce task matches its
rows once (``interval_pairs``: both sides get dense key codes, the right
rows are sorted by (code, ts) and two binary searches per left row give
its exact ``[ts_l, ts_l + within]`` range, so only true pairs are
built), then writes its output and both sides' state with the
canonical writer; only lineage reaches the driver. fsync'd manifest =
the commit point; a SIGKILL anywhere reruns the epoch byte-identically.

Scale: state per key is bounded by the rows inside ``within + lateness``
of the watermark (the contract every watermarked stream-stream join
has); the per-epoch exchange carries one epoch's arrivals + the live
buffers, hash-partitioned on the join key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
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
    event_us,
    input_files,
)


def _key_codes(col: pa.ChunkedArray) -> np.ndarray:
    """Dense int64 codes of ``col``'s values; a null gets -1."""
    return pc.fill_null(pc.dictionary_encode(col.combine_chunks()).indices, -1).to_numpy().astype(np.int64)


def interval_pairs(
    codes: np.ndarray, ts: np.ndarray, left: np.ndarray, right: np.ndarray, within_us: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of the row indices ``left`` x ``right`` with equal key
    codes (-1, a null key, matches nothing) and ``ts[l] <= ts[r] <=
    ts[l] + within_us``, as (left rows, right rows). The right rows are
    sorted by (code, ts) and two binary searches per left row find its
    range, so no pair outside the window is ever built."""
    left, right = left[codes[left] >= 0], right[codes[right] >= 0]
    nl, nr = len(left), len(right)
    # (code, ts) as one exact int64: code * n + the rank of ts among
    # every right time and left bound
    vals, rank = np.unique(np.concatenate([ts[right], ts[left], ts[left] + within_us]), return_inverse=True)
    rkey = codes[right] * len(vals) + rank[:nr]
    order = np.argsort(rkey, kind="stable")
    rkey, lkey = rkey[order], codes[left] * len(vals)
    lo = np.searchsorted(rkey, lkey + rank[nr : nr + nl], "left")
    cnt = np.searchsorted(rkey, lkey + rank[nr + nl :], "right") - lo
    pos = np.arange(cnt.sum()) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    return np.repeat(left, cnt), right[order[pos]]


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
        # union-schema types from the footer schemas, read ONCE at init:
        # a finalize epoch may see only ONE side's state snapshot, which
        # cannot define the other side's columns
        self._types: dict = {}
        for d, cols in ((self.left_dir, self.left_cols), (self.right_dir, self.right_cols)):
            fs = input_files(d)
            if fs:
                sch = pq.read_schema(fs[0])
                for c in [self.key, self.ts_col] + list(cols):
                    if c in sch.names and c not in self._types:
                        self._types[c] = sch.field(c).type

    # -- epoch plumbing: two input directories -------------------------
    def pending_files(self) -> list:
        return self._unconsumed(self.left_dir) + self._unconsumed(self.right_dir)

    def _claim(self, finalize: bool) -> list:
        if finalize:
            return []
        n = self.max_files_per_epoch
        return self._unconsumed(self.left_dir)[:n] + self._unconsumed(self.right_dir)[:n]

    def _pad(self, side: int, st: int, all_cols: list, types: dict):
        """Stateless pad-to-union-schema + side/state tags; typed nulls
        keep every column's type."""

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
        # partition keys)
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
        lcols, rcols, left_id_col = list(self.left_cols), list(self.right_cols), self.left_id_col
        out_dir, state_dir = self.out_dir, self.store.state_path_for(epoch)

        def per_task(tbl: pa.Table, new_wm: int) -> list[Write]:
            codes, ts = _key_codes(tbl.column(key)), event_us(tbl.column(ts_col)).to_numpy()
            left, new = tbl.column("__side").to_numpy() == 0, tbl.column("__st").to_numpy() == 0
            l_all, r_all = np.flatnonzero(left), np.flatnonzero(~left)
            # new_L x (buf_R U new_R), then buf_L x new_R
            l1, r1 = interval_pairs(codes, ts, np.flatnonzero(left & new), r_all, within_us)
            l2, r2 = interval_pairs(codes, ts, np.flatnonzero(left & ~new), np.flatnonzero(~left & new), within_us)
            li, ri = np.concatenate([l1, l2]), np.concatenate([r1, r2])
            # eviction under the NEW global watermark
            evict = ts[l_all] + within_us <= new_wm
            l_keep, r_keep = l_all[~evict], r_all[ts[r_all] > new_wm]
            if outer:
                # a left row is its (key, id): a reduce task holds many keys
                ident = codes * (len(tbl) + 1) + _key_codes(tbl.column(left_id_col)) + 1
                matched = pc.fill_null(tbl.column("__matched"), 0).to_numpy().astype(bool) | np.isin(ident, ident[li])
                # outer result: left rows proven unmatchable emit ONCE,
                # with a null right side, at eviction time
                lone = l_all[evict & ~matched[l_all]]
                li, ri = np.concatenate([li, lone]), np.concatenate([ri, np.full(len(lone), -1)])

            def take(col: str, rows: np.ndarray) -> pa.ChunkedArray:
                return tbl.column(col).take(pa.array(rows, mask=rows < 0))  # row -1: null

            def times(rows: np.ndarray) -> pa.Array:
                return pa.array(ts[rows], pa.timestamp("us"), mask=rows < 0)

            def state(rows: np.ndarray, cols: list) -> dict:
                return {key: take(key, rows), ts_col: times(rows), **{c: take(c, rows) for c in cols}}

            # each side's snapshot keeps its NATIVE schema (no null padding)
            l_state = state(l_keep, lcols)
            if outer:
                l_state["__matched"] = pa.array(matched[l_keep].astype(np.int8))
            out = {key: take(key, li), "ts_l": times(li), "ts_r": times(ri)}
            out.update({c: take(c, li) for c in lcols})
            out.update({c: take(c, ri) for c in rcols})
            return [
                Write("state", pa.table(l_state), os.path.join(state_dir, "L"), "L:"),
                Write("state", pa.table(state(r_keep, rcols)), os.path.join(state_dir, "R"), "R:"),
                Write("out", pa.table(out), out_dir),
            ]

        return ks.reduce(per_task, min(wm_l, wm_r), extra={"wm_l": wm_l, "wm_r": wm_r})


def _in_dir(files: list, d: str) -> list:
    """The files ``_unconsumed(d)`` listed. The glob may spell ``d``
    otherwise (``a//b`` as ``a/b``), so both sides are normalized."""
    d = os.path.normpath(d)
    return [f for f in files if os.path.normpath(os.path.dirname(f)) == d]
