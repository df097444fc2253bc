"""Streaming ordered per-key fold with carried state — the streaming
form of the NON-mergeable per-entity recurrences (EWMA and friends)
that no keyed aggregate can express.

Model (same epoch/commit machinery as job.py / stitch_job.py):

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

Resume/exactly-once: identical protocol to job.py — deterministic epoch
composition from the manifest lineage, canonical in-task writes,
fsync'd manifest commit.
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

_EV_COLS = ["key", "tsus", "tie", "v"]
_FOLD_COLS = ["key", "acc", "n"]
_TS_SENTINEL = -(1 << 61)


@dataclass
class StreamingFoldJob:
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

    def __post_init__(self):
        if not (0 < self.alpha_num <= self.alpha_den):
            raise ValueError("StreamingFoldJob: need 0 < alpha_num <= alpha_den")
        self.store = CheckpointStore(self.ckpt_dir)

    # ------------------------------------------------------------ plumbing

    def pending_files(self) -> list[str]:
        consumed = self.store.consumed_files()
        files = sorted(glob.glob(os.path.join(self.input_dir, "*.parquet")))
        return [f for f in files if f not in consumed]

    def _prev(self) -> tuple[int, int, list[str], list[str]]:
        """(next_epoch, prev_wm, buffered-event files, fold-state files)."""
        last = self.store.last()
        if last is None:
            return 0, -(1 << 62), [], []
        buf = [f for f in last.state_files() if f"{os.sep}buf{os.sep}" in f]
        fold = [f for f in last.state_files() if f"{os.sep}fold{os.sep}" in f]
        return last.epoch + 1, last.watermark_us, buf, fold

    def _canon(self, st: int):
        """Live/buffered events -> the canonical all-int64 union frame."""
        kc, tc, ic, vc = self.key_col, self.ts_col, self.tie_col, self.val_col

        def fn(tbl: pa.Table) -> pa.Table:
            n = tbl.num_rows
            ts = tbl.column(tc).cast(pa.timestamp("us")).cast(pa.int64())
            return pa.table(
                {
                    "key": tbl.column(kc).cast(pa.int64()),
                    "tsus": ts,
                    "tie": tbl.column(ic).cast(pa.int64()),
                    "v": tbl.column(vc).cast(pa.int64()),
                    "acc": pa.repeat(pa.scalar(0, pa.int64()), n),
                    "n": pa.repeat(pa.scalar(0, pa.int64()), n),
                    "kind": pa.repeat(pa.scalar(0, pa.int64()), n),
                    "st": pa.repeat(pa.scalar(st, pa.int64()), n),
                }
            )

        return fn

    @staticmethod
    def _canon_fold(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        z = pa.repeat(pa.scalar(0, pa.int64()), n)
        return pa.table(
            {
                "key": tbl.column("key"),
                "tsus": pa.repeat(pa.scalar(_TS_SENTINEL, pa.int64()), n),
                "tie": z,
                "v": z,
                "acc": tbl.column("acc"),
                "n": tbl.column("n"),
                "kind": pa.repeat(pa.scalar(1, pa.int64()), n),
                "st": pa.repeat(pa.scalar(1, pa.int64()), n),
            }
        )

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

    def run_epoch(self, finalize: bool = False) -> EpochManifest | None:
        t0 = time.perf_counter()
        epoch, prev_wm, buf_files, fold_files = self._prev()
        if prev_wm >= WM_FINAL:
            return None
        files = [] if finalize else self.pending_files()[: self.max_files_per_epoch]
        if not files and not finalize and not (buf_files or fold_files):
            return None
        if not files and not finalize:
            return None

        parts: list[rd.Dataset] = []
        rows_in = 0
        if files:
            rows_in = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
            ds = _read_pq(files, **self.extra_read_kw)
            if self.transform is not None:
                ds = ds.map_batches(self.transform, batch_format="pyarrow", zero_copy_batch=True)
            # one materialize: consumed by the watermark max AND the shuffle
            parts.append(
                ds.map_batches(self._canon(0), batch_format="pyarrow", zero_copy_batch=True)
                .materialize()
            )
        if buf_files:
            parts.append(
                _read_pq(buf_files).map_batches(
                    self._canon_buffered, batch_format="pyarrow", zero_copy_batch=True
                )
            )
        if fold_files:
            parts.append(
                _read_pq(fold_files).map_batches(
                    self._canon_fold, batch_format="pyarrow", zero_copy_batch=True
                )
            )
        if not parts:
            m = self._commit_empty(epoch, prev_wm, t0, finalize)
            return m

        unioned = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])

        if files:
            live_max = parts[0].max("tsus")
            if live_max is not None:
                new_wm = max(prev_wm, int(live_max) - self.allowed_lateness_s * US)
            else:
                new_wm = prev_wm
        else:
            new_wm = prev_wm
        if finalize:
            new_wm = WM_FINAL

        out_dir = self.out_dir
        state_dir = self.store.state_path_for(epoch)
        P = self.num_partitions
        key_out, val_out = self.key_col, self.out_val
        fold_fn = self._fold_seeded

        def tag(tbl: pa.Table) -> pa.Table:
            return tbl.append_column(
                BUCKET_COL, pa.array(hash_bucket(tbl.column("key"), P))
            )

        def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
            bucket = int(df[BUCKET_COL].iloc[0])
            df = df.drop(columns=[BUCKET_COL])
            ev = df[df["kind"] == 0]
            folds = df[df["kind"] == 1][_FOLD_COLS]
            late = (ev["tsus"] <= prev_wm) & (ev["st"] == 0)
            n_late = int(late.sum())
            ev = ev[~late]
            mature_mask = ev["tsus"] <= new_wm
            mature, future = ev[mature_mask][_EV_COLS], ev[~mature_mask][_EV_COLS]
            new_folds = fold_fn(mature, folds)
            recs = []
            if finalize:
                if len(new_folds):
                    out = pd.DataFrame(
                        {
                            key_out: new_folds["key"].to_numpy(),
                            "n_events": new_folds["n"].to_numpy(),
                            val_out: new_folds["acc"].to_numpy(),
                        }
                    )
                    path, sha, rows = write_partition_file(
                        pa.Table.from_pandas(out, preserve_index=False), out_dir, bucket, epoch
                    )
                    recs.append(("out", bucket, rows, path, sha))
            else:
                if len(new_folds):
                    path, sha, rows = write_partition_file(
                        pa.Table.from_pandas(new_folds, preserve_index=False),
                        os.path.join(state_dir, "fold"), bucket, epoch
                    )
                    recs.append(("fold", bucket, rows, path, sha))
                if len(future):
                    path, sha, rows = write_partition_file(
                        pa.Table.from_pandas(future, preserve_index=False),
                        os.path.join(state_dir, "buf"), bucket, epoch
                    )
                    recs.append(("buf", bucket, rows, path, sha))
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
        states = [r for r in lineage if r["kind"] in ("buf", "fold")]
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
                f"{r['kind'][0]}{r['partition']}": {
                    "rows": r["rows"], "files": [r["path"]], "sha256": [r["sha256"]]
                }
                for r in states
            },
            extra={"op": "fold"},
        )
        self.store.commit(manifest)
        self.store.append_metrics(
            {
                "epoch": epoch,
                "op": "fold",
                "rows_in": rows_in,
                "rows_late": rows_late,
                "rows_out": manifest.rows_out,
                "state_rows": manifest.state_rows,
                "watermark_us": new_wm,
                "wall_s": round(time.perf_counter() - t0, 3),
            }
        )
        return manifest

    @staticmethod
    def _canon_buffered(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        z = pa.repeat(pa.scalar(0, pa.int64()), n)
        return pa.table(
            {
                "key": tbl.column("key"),
                "tsus": tbl.column("tsus"),
                "tie": tbl.column("tie"),
                "v": tbl.column("v"),
                "acc": z,
                "n": z,
                "kind": z,
                "st": pa.repeat(pa.scalar(1, pa.int64()), n),
            }
        )

    def _commit_empty(self, epoch, prev_wm, t0, finalize) -> EpochManifest:
        wm = WM_FINAL if finalize else prev_wm
        m = EpochManifest(epoch, [], wm, 0, 0, 0, {}, 0, None)
        self.store.commit(m)
        self.store.append_metrics(
            {"epoch": epoch, "op": "fold", "rows_in": 0, "rows_late": 0, "rows_out": 0,
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
