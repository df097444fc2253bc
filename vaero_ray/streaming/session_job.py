"""Streaming SESSION windows: gap-based per-key sessions closed by the
event-time watermark, completing the windows x {batch, streaming} matrix
(tumbling/sliding stream through job.py, sessions through this driver;
batch sessions live in stages/windows.py sessionize/session_aggregate).

Unlike the stitch job (which buffers RAW turns of open conversations),
state here is one MERGEABLE FRAGMENT PARTIAL per open session fragment:
``(key, start_us, end_us, __n, partial agg cols)``. A raw event is a
degenerate fragment; the map tasks pre-collapse each input file's events
into fragments before the exchange (the keyed combiner pattern), so the
exchange and the state snapshot are bounded by the number of open
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

Epoch protocol, exactly-once commit, resume and metrics are driver.py's,
and so is the keyed step (``KeyedStep``: map tasks fragment, reduce
tasks merge, close and write both output and state in-task); only
lineage and per-task stats ever reach the driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import methodcaller

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from vaero_ray.stages.windows import US, AggSpec
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
    # Must keep the row count: rows_in comes from the parquet footers.
    transform: "object | None" = None  # Callable[[pa.Table], pa.Table]
    secret_refresh: "object | None" = None  # Callable[[], None]

    op = "session"

    def __post_init__(self):
        super().__post_init__()
        step.task_read_columns(self.extra_read_kw)
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
            schema = pq.read_schema(files[0])
            return {
                a.alias
                for a in self.aggs
                if a.col in schema.names and pa.types.is_timestamp(schema.field(a.col).type)
            }
        names = pq.read_schema(prev_state[0]).names if prev_state else []
        return {n[len("__pt_"):] for n in names if n.startswith("__pt_")}

    # -- fragment construction (per-block combiner) --------------------
    @staticmethod
    def _col_us(series: "pd.Series") -> np.ndarray:
        arr = series.to_numpy()
        if np.issubdtype(arr.dtype, np.datetime64):
            return arr.astype("datetime64[us]").astype(np.int64)
        return arr.astype(np.int64)

    def _fragments(self, df: pd.DataFrame, ts_aliases: set) -> pd.DataFrame:
        """Each row is a fragment — ``[ts, ts]``, or ``[ts, end]`` in
        extent mode — pre-merged by the shared chain rule: one partial
        row per block-local fragment."""
        s = self._col_us(df[self.ts_col])
        e = s if self.end_col is None else self._col_us(df[self.end_col])
        if (e < s).any():
            raise ValueError(f"{self.end_col} < {self.ts_col}: reversed extent")
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
        return self._merge_fragments(frame, ts_aliases)

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
        state_files = c.state_files()
        ts_aliases = self._ts_aliases_from(c.files, state_files)
        cols = self._fragment_cols(ts_aliases)
        frag = self._fragments

        def fragments(tbl: pa.Table) -> pa.Table:
            return pa.Table.from_pandas(frag(tbl.to_pandas(), ts_aliases), preserve_index=False).select(cols)

        # extent mode's ts_col is the extent START: the watermark advances
        # on it (an extent's end is not its event time)
        live = Source(c.files, fragments, self.ts_col, self.transform, step.task_read_columns(self.extra_read_kw))
        ks = KeyedStep(c, [live, Source(state_files, methodcaller("select", cols))], self.key, self.num_partitions)
        new_wm = advance_watermark(c.prev_wm, ks.maxima[0], self.allowed_lateness_s, c.finalize)
        gap_us, out_dir, state_dir = self.gap_s * US, self.out_dir, self.store.state_path_for(c.epoch)
        merge_fn, fin_fn = self._merge_fragments, self._finalize

        def per_bucket(df: pd.DataFrame, bucket: int, wm: int) -> list[Write]:
            merged = merge_fn(df, ts_aliases)
            closed_mask = (merged["end_us"] + gap_us) <= wm
            closed, open_ = merged[closed_mask], merged[~closed_mask]
            writes = []
            if len(closed):
                writes.append(Write("out", fin_fn(closed, ts_aliases), out_dir))
            if len(open_):
                writes.append(Write("state", open_[cols], state_dir))
            return writes

        return ks.reduce(per_bucket, new_wm)
