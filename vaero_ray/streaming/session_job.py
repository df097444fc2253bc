"""Streaming SESSION windows: gap-based per-key sessions closed by the
event-time watermark, completing the windows x {batch, streaming} matrix
(tumbling/sliding stream through job.py, sessions through this driver;
batch sessions live in stages/windows.py sessionize/session_aggregate).

Unlike the stitch job (which buffers RAW turns of open conversations),
state here is one MERGEABLE FRAGMENT PARTIAL per open session fragment:
``(key, start_us, end_us, __n, partial agg cols)``. A raw event is a
degenerate fragment; per-block sessionization pre-collapses each block's
events into fragments BEFORE the shuffle (the keyed combiner pattern), so
the exchange and the state snapshot are bounded by the number of open
sessions — not buffered events — which is what lets an always-active key
stream for a week without growing state.

Correctness of fragment merging: two events belong to one session iff
they chain with inter-event gaps <= gap_s. Block-local fragments are
sub-chains; the per-bucket merge sorts fragments by (key, start) and
chains fragment i into the running session when
``start_i - cummax(end_0..end_{i-1}) <= gap`` (cummax handles
out-of-order overlap between state and live fragments) — exactly the
transitive closure, so stream == batch output for the same input and
watermark (parity-gated by ``streaming_session_stats``).

Close rule: a merged session CLOSES when ``wm >= session_end + gap`` —
any event that could still extend it would have ``ts <= session_end +
gap <= wm`` and be late by definition. Late events (ts <= previous
watermark) are dropped and counted, same contract as job.py/stitch_job.

Epoch protocol, exactly-once commit, resume and metrics are driver.py's:
deterministic epoch composition from committed manifests, canonical
in-task partition writes (both output and state), fsync'd manifest
commit; only lineage/metadata rows ever reach the driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from vaero_ray.io import read_parquet as _read_pq

from vaero_ray.stages.windows import US, AggSpec
from vaero_ray.streaming.driver import (
    WM_MIN,
    Claim,
    EpochDriver,
    StepResult,
    advance_watermark,
    bucket_step,
    write_frame,
)

_BASE_COLS = ["start_us", "end_us", "__n"]


def _seg_cummax(vals: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Cummax within segments (C-implemented grouped cummax, no loop)."""
    if not len(vals):
        return vals.copy()
    return pd.Series(vals).groupby(np.cumsum(seg_starts)).cummax().to_numpy()


@dataclass
class StreamingSessionJob(EpochDriver):
    input_dir: str
    out_dir: str
    ckpt_dir: str
    key: str
    aggs: list[AggSpec]
    ts_col: str = "ts"
    # EXTENT mode (streaming interval union): when set, each row is an
    # explicit [ts_col, end_col] extent instead of a point event —
    # fragments are the rows themselves (block-local pre-merge via the
    # same chain rule), components merge when a new extent's start is
    # within gap_s of the running max end (gap_s=0 -> touching-union,
    # i.e. the streaming form of stages/cep.merge_intervals), and the
    # watermark advances from the max raw START (an extent's end lies
    # arbitrarily far ahead of event time; anchoring the watermark there
    # would wrongly lateness-drop the next orderly arrivals). Close rule
    # is unchanged: wm >= end + gap proves no future extent can chain.
    end_col: "str | None" = None
    gap_s: int = 1800
    allowed_lateness_s: int = 0
    num_partitions: int = 8
    max_files_per_epoch: int = 1
    extra_read_kw: dict = field(default_factory=dict)
    # per-epoch ROW-PRESERVING table function on the live input (same hook as
    # job.py/stitch_job) — e.g. fixed-pointing money columns to integers
    # BEFORE the fragment partials so sums are order/shard-invariant.
    # Must keep the row count: late accounting is rows_in (parquet
    # metadata, pre-transform) minus kept rows (post-transform), so a
    # row-collapsing/expanding transform corrupts rows_late silently.
    transform: "object | None" = None  # Callable[[pa.Table], pa.Table]
    secret_refresh: "object | None" = None  # Callable[[], None]

    op = "session"

    def __post_init__(self):
        super().__post_init__()
        for a in self.aggs:
            if a.fn not in ("count", "sum", "min", "max", "mean"):
                raise ValueError(f"unsupported session agg fn: {a.fn}")

    # -- partial-column plan -------------------------------------------
    def _pcols(self, ts_aliases: set) -> list[tuple[str, str, str, str]]:
        """(alias, fn, src_col, partial_col) for value-carrying aggs;
        count rides the shared __n. Timestamp-sourced partials get the
        __pt_ prefix (int64 microseconds) so finalize restores dtype."""
        out = []
        for a in self.aggs:
            if a.fn == "count" or a.col is None:
                continue
            prefix = "__pt_" if a.alias in ts_aliases else "__p_"
            out.append((a.alias, a.fn, a.col, prefix + a.alias))
        return out

    def _fragment_cols(self, ts_aliases: set) -> list[str]:
        return [self.key] + _BASE_COLS + [p for _, _, _, p in self._pcols(ts_aliases)]

    def _ts_aliases_from(self, files: list[str], prev_state: list[str]) -> set:
        """Aliases whose source column is timestamp-typed — from an input
        file footer (metadata only), else from state partial names."""
        if files:
            try:
                schema = pq.read_schema(files[0])
            except Exception:
                return set()
            return {
                a.alias
                for a in self.aggs
                if a.col is not None and a.col in schema.names
                and pa.types.is_timestamp(schema.field(a.col).type)
            }
        out = set()
        for f in prev_state or []:
            try:
                schema = pq.read_schema(f)
            except Exception:
                continue
            out |= {n[len("__pt_"):] for n in schema.names if n.startswith("__pt_")}
            break
        return out

    # -- fragment construction (per-block combiner) --------------------
    @staticmethod
    def _col_us(series: "pd.Series") -> np.ndarray:
        arr = series.to_numpy()
        if np.issubdtype(arr.dtype, np.datetime64):
            return arr.astype("datetime64[us]").astype(np.int64)
        return arr.astype(np.int64)

    def _extent_fragments(self, df: pd.DataFrame, prev_wm: int, ts_aliases: set) -> pd.DataFrame:
        """Extent mode: each kept row IS a fragment; block-local
        pre-merge via the shared chain rule. ``__smax`` (the block's max
        raw start) rides the live fragments only, for the watermark."""
        s = self._col_us(df[self.ts_col])
        e = self._col_us(df[self.end_col])
        if (e < s).any():
            raise ValueError(f"{self.end_col} < {self.ts_col}: reversed extent")
        keep = s > prev_wm
        df, s, e = df[keep], s[keep], e[keep]
        frame = pd.DataFrame(
            {
                self.key: df[self.key].to_numpy(),
                "start_us": s,
                "end_us": e,
                "__n": np.ones(len(df), dtype=np.int64),
            }
        )
        for alias, fn, col, pcol in self._pcols(ts_aliases):
            if pcol.startswith("__pt_"):
                frame[pcol] = df[col].to_numpy().astype("datetime64[us]").astype(np.int64)
            else:
                frame[pcol] = df[col].to_numpy()
        merged = self._merge_fragments(frame, ts_aliases)
        merged["__smax"] = int(s.max()) if len(s) else np.int64(WM_MIN)
        return merged

    def _fragment_block(self, df: pd.DataFrame, prev_wm: int, ts_aliases: set) -> pd.DataFrame:
        """Drop late events, sessionize the block per key, emit one
        partial row per block-local fragment (vectorized; degenerate
        1-event fragments included)."""
        if self.end_col is not None:
            return self._extent_fragments(df, prev_wm, ts_aliases)
        gap_us = self.gap_s * US
        ts = df[self.ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        df = df[ts > prev_wm]
        df = df.sort_values([self.key, self.ts_col], kind="mergesort").reset_index(drop=True)
        ts = df[self.ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        df = df.assign(__ts_us=ts)
        # factorized key codes (null keys get a REAL code — pandas
        # eq/groupby on raw keys silently drops NULL-keyed events AND
        # miscounts them as late; same fix class as cep._shifted_ts).
        # Sort order == appearance order, so codes are segment-monotone.
        codes = pd.factorize(df[self.key], use_na_sentinel=False)[0].astype(np.int64)
        same_key = np.zeros(len(df), dtype=bool)
        if len(df) > 1:
            same_key[1:] = codes[1:] == codes[:-1]
        brk = ((pd.Series(ts).diff() > gap_us).to_numpy() & same_key).astype(np.int64)
        df = df.assign(
            __kc=codes,
            __frag=pd.Series(brk).groupby(codes, sort=False).cumsum().to_numpy(),
        )
        for alias, fn, col, pcol in self._pcols(ts_aliases):
            if pcol.startswith("__pt_"):
                df = df.assign(
                    **{pcol: df[col].to_numpy().astype("datetime64[us]").astype(np.int64)}
                )
            else:
                df = df.assign(**{pcol: df[col]})
        g = df.groupby(["__kc", "__frag"], sort=False)
        out = pd.DataFrame(
            {
                self.key: g[self.key].first(),
                "start_us": g["__ts_us"].min(),
                "end_us": g["__ts_us"].max(),
                "__n": g.size().astype("int64"),
            }
        )
        for alias, fn, col, pcol in self._pcols(ts_aliases):
            red = "sum" if fn in ("sum", "mean") else fn
            out[pcol] = getattr(g[pcol], red)()
        return out.reset_index(drop=True)[self._fragment_cols(ts_aliases)]

    # -- fragment merge (per bucket) ------------------------------------
    def _merge_fragments(self, df: pd.DataFrame, ts_aliases: set) -> pd.DataFrame:
        gap_us = self.gap_s * US
        df = df.sort_values([self.key, "start_us", "end_us"], kind="mergesort").reset_index(drop=True)
        start = df["start_us"].to_numpy()
        end = df["end_us"].to_numpy()
        # factorized codes: NULL-keyed fragments form ONE group (raw
        # eq(shift) is False for NaN==NaN, splitting every null fragment
        # into its own never-merged segment)
        codes = pd.factorize(df[self.key], use_na_sentinel=False)[0].astype(np.int64)
        key_change = np.ones(len(df), dtype=bool)
        if len(df) > 1:
            key_change[1:] = codes[1:] != codes[:-1]
        run_end = _seg_cummax(end, key_change)
        prev_run_end = np.empty_like(run_end)
        if len(run_end):
            prev_run_end[0] = 0
            prev_run_end[1:] = run_end[:-1]
        brk = key_change | (start - prev_run_end > gap_us)
        df = df.assign(__seg=np.cumsum(brk.astype(np.int64)))
        g = df.groupby("__seg", sort=False)
        out = pd.DataFrame(
            {
                self.key: g[self.key].first(),
                "start_us": g["start_us"].min(),
                "end_us": g["end_us"].max(),
                "__n": g["__n"].sum(),
            }
        )
        for alias, fn, col, pcol in self._pcols(ts_aliases):
            red = "sum" if fn in ("sum", "mean") else fn
            out[pcol] = getattr(g[pcol], red)()
        return out.reset_index(drop=True)

    def _finalize(self, df: pd.DataFrame, ts_aliases: set) -> pd.DataFrame:
        out = pd.DataFrame({self.key: df[self.key]})
        pmap = {a: (f, p) for a, f, _, p in self._pcols(ts_aliases)}
        for a in self.aggs:
            if a.fn == "count":
                out[a.alias] = df["__n"].astype("int64")
                continue
            fn, pcol = pmap[a.alias]
            if a.fn == "mean":
                out[a.alias] = df[pcol] / df["__n"]
            elif pcol.startswith("__pt_"):
                out[a.alias] = df[pcol].astype("int64").astype("datetime64[us]")
            else:
                out[a.alias] = df[pcol]
        return out.reset_index(drop=True)

    # -- one epoch ------------------------------------------------------
    def epoch_step(self, c: Claim) -> StepResult:
        prev_wm, state_files = c.prev_wm, c.state_files()
        ts_aliases = self._ts_aliases_from(c.files, state_files)
        cols = self._fragment_cols(ts_aliases)
        rows_late = 0
        epoch_max_ts = None
        parts = []
        if c.files:
            ds = _read_pq(c.files, **self.extra_read_kw)
            if self.transform is not None:
                ds = ds.map_batches(self.transform, batch_format="pyarrow", zero_copy_batch=True)
            frag = self._fragment_block
            # ONE pass over the epoch's input: fragment partials are small
            # (bounded by open sessions + per-block fragment count), so
            # materialize them once and derive the watermark + late
            # accounting FROM the partials (job.py's forced-__wm_ts
            # pattern) instead of a second full meta scan of the files.
            # Late rows = rows_in - sum(__n) (the fragmenter drops them);
            # max(end_us) over kept rows equals the true epoch max unless
            # EVERY row is late, in which case the old max was <= prev_wm
            # and the watermark wouldn't have advanced either way.
            live_frags = ds.map_batches(
                lambda df: frag(df, prev_wm, ts_aliases), batch_format="pandas"
            ).materialize()
            kept = int(live_frags.sum("__n") or 0)
            rows_late = c.rows_in - kept
            # extent mode anchors the watermark at the max raw START (an
            # extent's end is not its event time); point mode keeps max ts
            wm_col = "__smax" if self.end_col is not None else "end_us"
            epoch_max_ts = int(live_frags.max(wm_col)) if kept else None
            parts.append(live_frags.select_columns(cols))
        if state_files:
            parts.append(_read_pq(state_files).select_columns(cols))
        new_wm = advance_watermark(prev_wm, epoch_max_ts, self.allowed_lateness_s, c.finalize)

        gap_us, epoch = self.gap_s * US, c.epoch
        out_dir, state_dir = self.out_dir, self.store.state_path_for(epoch)
        merge_fn, fin_fn = self._merge_fragments, self._finalize

        def per_bucket(df: pd.DataFrame, bucket: int) -> list[tuple]:
            merged = merge_fn(df, ts_aliases)
            closed_mask = (merged["end_us"] + gap_us) <= new_wm
            closed, open_ = merged[closed_mask], merged[~closed_mask]
            recs = []
            if len(closed):
                recs.append(write_frame("out", fin_fn(closed, ts_aliases), out_dir, bucket, epoch))
            if len(open_):
                recs.append(write_frame("state", open_[cols], state_dir, bucket, epoch))
            return recs

        partitions, state_partitions, _ = bucket_step(parts, self.key, self.num_partitions, per_bucket)
        return StepResult(new_wm, partitions, state_partitions, rows_late, epoch_max_ts)
