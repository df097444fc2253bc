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

Epoch mechanics (same commit protocol as job.py/stitch_job.py): ONE
bucketed shuffle per epoch — new rows of both sides plus both state
buffers, tagged ``__side``/``__st``, padded to the union schema with
typed nulls — then each bucket task joins, writes its output file and
its state partition deterministically in-task, and only lineage rows
reach the driver. fsync'd manifest = the commit point; a SIGKILL
anywhere reruns the epoch byte-identically.

Scale: state per key is bounded by the rows inside ``within + lateness``
of the watermark (the contract every watermarked stream-stream join
has); the per-epoch exchange carries one epoch's arrivals + the live
buffers, hash-partitioned on the join key.
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field

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

_NEG_INF = -(1 << 62)


@dataclass
class StreamingJoinJob:
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

    def __post_init__(self):
        self.store = CheckpointStore(self.ckpt_dir)
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
        # inside pandas buckets)
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

    # -- epoch plumbing -------------------------------------------------
    def _pending(self, d: str) -> list:
        consumed = self.store.consumed_files()
        return [f for f in sorted(glob.glob(os.path.join(d, "*.parquet"))) if f not in consumed]

    def pending_files(self) -> list:
        return self._pending(self.left_dir) + self._pending(self.right_dir)

    def _prev(self):
        """(next_epoch, wm_l, wm_r, state_left_files, state_right_files)
        — each side's buffer snapshot keeps its NATIVE schema (separate
        files, ``L:``/``R:`` partition keys): a padded mixed-side state
        file would write the null-padded int columns as float64 and
        poison the next epoch's schema union."""
        last = self.store.last()
        if last is None:
            return 0, _NEG_INF, _NEG_INF, [], []
        wm_l = last.extra.get("wm_l", _NEG_INF)
        wm_r = last.extra.get("wm_r", _NEG_INF)
        sl = [f for k, p in last.state_partitions.items() if k.startswith("L:") for f in p["files"]]
        sr = [f for k, p in last.state_partitions.items() if k.startswith("R:") for f in p["files"]]
        return last.epoch + 1, wm_l, wm_r, sl, sr

    def _pad(self, side: int, st: int, all_cols: list, types: dict):
        """Stateless pad-to-union-schema + side/state tags (typed nulls
        keep Arrow ints int — the pandas degradation is handled per
        bucket via the footer-schema int restore)."""

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

    def run_epoch(self, finalize: bool = False) -> "EpochManifest | None":
        t0 = time.perf_counter()
        epoch, wm_l, wm_r, state_l, state_r = self._prev()
        prev_wm = min(wm_l, wm_r)
        if prev_wm >= WM_FINAL:
            return None
        lf = [] if finalize else self._pending(self.left_dir)[: self.max_files_per_epoch]
        rf = [] if finalize else self._pending(self.right_dir)[: self.max_files_per_epoch]
        if not lf and not rf and not finalize:
            return None

        within_us = self.within_s * US
        lat_us = self.allowed_lateness_s * US
        outer = self.join_type == "left_outer"
        all_cols = [self.key, self.ts_col] + list(self.left_cols) + list(self.right_cols)
        # union-schema types: init-time footer schemas, backfilled from
        # this epoch's files for any column the init dirs lacked
        types: dict = dict(self._types)
        if any(c not in types for c in all_cols):
            for f in lf + state_l + rf + state_r:
                sch = pq.read_schema(f)
                for c in all_cols:
                    if c in sch.names and c not in types:
                        types[c] = sch.field(c).type
        if outer:
            # matched-ever flag: null-padded on live left rows (-> 0),
            # carried natively in the L state snapshot across epochs
            all_cols = all_cols + ["__matched"]
            types["__matched"] = pa.int8()
        parts: list = []
        rows_in = 0
        live: dict = {}
        for side, files in ((0, lf), (1, rf)):
            if not files:
                continue
            rows_in += sum(pq.ParquetFile(f).metadata.num_rows for f in files)
            ds = _read_pq(files, **self.extra_read_kw)
            # materialize: consumed twice (side max + the join shuffle)
            live[side] = ds.map_batches(
                self._pad(side, 0, all_cols, types), batch_format="pyarrow", zero_copy_batch=True
            ).materialize()
            parts.append(live[side])
        for side, files in ((0, state_l), (1, state_r)):
            if files:
                parts.append(
                    _read_pq(files).map_batches(
                        self._pad(side, 1, all_cols, types),
                        batch_format="pyarrow",
                        zero_copy_batch=True,
                    )
                )

        # per-side watermarks advance on live maxima only
        for side, wm_attr in ((0, "wm_l"), (1, "wm_r")):
            if side in live:
                mx = live[side].max(self.ts_col)
                if mx is not None:
                    mx_us = int(pa.scalar(mx).cast(pa.int64()).as_py())
                    if side == 0:
                        wm_l = max(wm_l, mx_us - lat_us)
                    else:
                        wm_r = max(wm_r, mx_us - lat_us)
        if finalize:
            wm_l = wm_r = WM_FINAL
        new_wm = min(wm_l, wm_r)

        if not parts:
            m = self._commit(epoch, lf + rf, wm_l, wm_r, 0, 0, 0, [], [], t0)
            return m

        unioned = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
        key, ts_col = self.key, self.ts_col
        lcols, rcols = list(self.left_cols), list(self.right_cols)
        int_cols, left_id_col = self._int_cols, self.left_id_col
        out_dir, state_dir = self.out_dir, self.store.state_path_for(epoch)

        def tag(tbl: pa.Table) -> pa.Table:
            return tbl.append_column(
                BUCKET_COL, pa.array(hash_bucket(tbl.column(key), self.num_partitions))
            )

        def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
            bucket = int(df[BUCKET_COL].iloc[0])
            df = df.drop(columns=[BUCKET_COL])
            tsus = df[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
            df = df.assign(__tsus=tsus)
            late = (df["__tsus"] <= prev_wm) & (df["__st"] == 0)
            n_late = int(late.sum())
            df = df[~late]

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
            recs = []
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
                hit = l_keep_all[left_id_col].isin(pairs[left_id_col].unique() if len(pairs) else [])
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
                    path, sha, rows = write_partition_file(
                        pa.Table.from_pandas(snap, preserve_index=False),
                        os.path.join(state_dir, tag_), bucket, epoch
                    )
                    recs.append((f"state{tag_}", bucket, rows, path, sha))
            if out_frames:
                out = pd.concat(out_frames, ignore_index=True)
                if outer:
                    # nullable Int64 keeps right ints int64-typed in Arrow
                    # (NaN-degraded float64 would change the output schema)
                    for c in rcols:
                        if c in int_cols:
                            out[c] = out[c].astype("Int64")
                path, sha, rows = write_partition_file(
                    pa.Table.from_pandas(out, preserve_index=False), out_dir, bucket, epoch
                )
                recs.append(("out", bucket, rows, path, sha))
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
        states = [r for r in lineage if r["kind"].startswith("state")]
        return self._commit(
            epoch, lf + rf, wm_l, wm_r, rows_in, rows_late,
            sum(r["rows"] for r in outs), outs, states, t0,
            state_dir if states else None,
        )

    def _commit(self, epoch, files, wm_l, wm_r, rows_in, rows_late, rows_out, outs, states, t0, state_dir=None):
        manifest = EpochManifest(
            epoch=epoch,
            input_files=files,
            watermark_us=min(wm_l, wm_r),
            rows_in=rows_in,
            rows_late=rows_late,
            rows_out=rows_out,
            partitions={
                str(r["partition"]): {"rows": r["rows"], "files": [r["path"]], "sha256": [r["sha256"]]}
                for r in outs
            },
            state_rows=sum(r["rows"] for r in states),
            state_path=state_dir,
            state_partitions={
                # "L:3" / "R:3": side-qualified keys — _prev restores each
                # side's buffer from exactly these files
                f'{r["kind"][-1]}:{r["partition"]}': {
                    "rows": r["rows"], "files": [r["path"]], "sha256": [r["sha256"]]
                }
                for r in states
            },
            extra={"op": "join", "wm_l": wm_l, "wm_r": wm_r},
        )
        self.store.commit(manifest)
        self.store.append_metrics(
            {
                "epoch": epoch,
                "op": "join",
                "rows_in": rows_in,
                "rows_late": rows_late,
                "rows_out": rows_out,
                "state_rows": manifest.state_rows,
                "watermark_us": manifest.watermark_us,
                "wall_s": round(time.perf_counter() - t0, 3),
            }
        )
        return manifest

    def run(self, max_epochs: "int | None" = None, finalize: bool = True) -> list:
        out = []
        while max_epochs is None or len(out) < max_epochs:
            m = self.run_epoch()
            if m is None:
                break
            out.append(m)
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
