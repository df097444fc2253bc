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
sub-chains; the per-task merge sorts fragments by (key, start) and
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
lineage and per-task stats ever reach the driver. Fragments, merge and
finalize run on pyarrow tables and numpy arrays (``_seg_reduce`` states
the null rules of a partial).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from vaero_ray.stages.windows import US, AggSpec
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

_BASE_COLS = ["start_us", "end_us", "__n"]
_PT = "__pt_"  # prefix of a partial of a timestamp column, as int64 microseconds
_NAT = np.iinfo(np.int64).min  # a null time, as int64 microseconds
_MAX_US = np.iinfo(np.int64).max


def _ts_aliases(names: list[str]) -> set:
    """The aliases whose partial columns among ``names`` are timestamps."""
    return {n[len(_PT) :] for n in names if n.startswith(_PT)}


def _us(col: pa.ChunkedArray) -> np.ndarray:
    """Times as int64 microseconds, a null as ``_NAT``."""
    return pc.fill_null(event_us(col), _NAT).to_numpy()


def _seg_cummax(vals: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Cummax within segments, exact for int64: dense ranks offset by
    segment, so one running max never carries across a segment start."""
    if not len(vals):
        return vals.copy()
    uniq, rank = np.unique(vals, return_inverse=True)
    offset = (np.cumsum(seg_starts) - 1) * len(uniq)
    return uniq[np.maximum.accumulate(rank + offset) - offset]


def _seg_reduce(red: str, col: pa.ChunkedArray, seg: np.ndarray, times: bool = False):
    """``red`` (sum, min or max) of ``col`` over the segments starting at
    ``seg``, skipping nulls and NaN: a sum of none is 0, a min or max of
    none is NaN (numbers) or null (``_NAT`` for ``times``, int64
    microseconds with ``_NAT`` for null)."""
    vals = col.to_numpy()
    if times and red == "min":
        low = np.minimum.reduceat(np.where(vals == _NAT, _MAX_US, vals), seg)
        return np.where(low == _MAX_US, _NAT, low)
    if vals.dtype.kind in "iuf":
        if red == "sum":
            return np.add.reduceat(np.where(np.isnan(vals), 0, vals) if vals.dtype.kind == "f" else vals, seg)
        return getattr(np, "f" + red).reduceat(vals, seg)
    ids = np.repeat(np.arange(len(seg)), np.diff(np.r_[seg, len(vals)]))
    return pa.table({"s": ids, "v": col}).group_by("s", use_threads=False).aggregate([("v", red)]).column(f"v_{red}")


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
        for a in self.aggs:
            if a.fn not in ("count", "sum", "min", "max", "mean"):
                raise ValueError(f"unsupported session agg fn: {a.fn}")

    # -- partial-column plan -------------------------------------------
    def _pcols(self, ts_aliases: set) -> list[tuple[str, str, str, str]]:
        """(alias, fn, src_col, partial_col) for value-carrying aggs;
        count rides the shared __n. The partial of an alias in
        ``ts_aliases`` (a timestamp column's) gets the ``_PT`` prefix, as
        int64 microseconds, so finalize restores the type."""
        out = []
        for a in self.aggs:
            if a.fn == "count" or a.col is None:
                continue
            prefix = _PT if a.alias in ts_aliases else "__p_"
            out.append((a.alias, a.fn, a.col, prefix + a.alias))
        return out

    # -- fragment construction (per-block combiner) --------------------
    def _fragments(self, tbl: pa.Table) -> pa.Table:
        """Each row is a fragment — ``[ts, ts]``, or ``[ts, end]`` in
        extent mode — pre-merged by the shared chain rule: one partial
        row per block-local fragment. A partial is a timestamp partial
        when its source column in ``tbl`` is a timestamp."""
        s = _us(tbl.column(self.ts_col))
        e = s if self.end_col is None else _us(tbl.column(self.end_col))
        if (e < s).any():
            raise ValueError(f"{self.end_col} < {self.ts_col}: reversed extent")
        schema = tbl.schema
        ts_aliases = {
            a.alias for a in self.aggs if a.col in schema.names and pa.types.is_timestamp(schema.field(a.col).type)
        }
        cols = {self.key: tbl.column(self.key), "start_us": s, "end_us": e, "__n": np.ones(len(s), np.int64)}
        for alias, fn, col, pcol in self._pcols(ts_aliases):
            cols[pcol] = _us(tbl.column(col)) if pcol.startswith(_PT) else tbl.column(col)
        return self._merge_fragments(pa.table(cols))

    # -- fragment merge (per task) ---------------------------------------
    def _merge_fragments(self, tbl: pa.Table) -> pa.Table:
        if not tbl.num_rows:
            return tbl
        gap_us = self.gap_s * US
        tbl = tbl.sort_by([(self.key, "ascending"), ("start_us", "ascending"), ("end_us", "ascending")])
        start, end = tbl.column("start_us").to_numpy(), tbl.column("end_us").to_numpy()
        # dictionary codes: NULL-keyed fragments form ONE group (raw
        # comparison is null for null == null, splitting every null
        # fragment into its own never-merged segment)
        key = tbl.column(self.key)
        codes = pc.dictionary_encode(key.combine_chunks(), null_encoding="encode").indices.to_numpy()
        brk = np.r_[True, codes[1:] != codes[:-1]]
        run_end = _seg_cummax(end, brk)
        brk[1:] |= start[1:] - run_end[:-1] > gap_us
        seg = np.flatnonzero(brk)
        out = {
            self.key: key.take(seg),
            "start_us": start[seg],
            "end_us": np.maximum.reduceat(end, seg),
            "__n": np.add.reduceat(tbl.column("__n").to_numpy(), seg),
        }
        for alias, fn, col, pcol in self._pcols(_ts_aliases(tbl.column_names)):
            red = "sum" if fn in ("sum", "mean") else fn
            out[pcol] = _seg_reduce(red, tbl.column(pcol), seg, times=pcol.startswith(_PT))
        return pa.table(out)

    def _finalize(self, tbl: pa.Table) -> pa.Table:
        n = tbl.column("__n")
        out = {self.key: tbl.column(self.key)}
        pmap = {a: (f, p) for a, f, _, p in self._pcols(_ts_aliases(tbl.column_names))}
        for a in self.aggs:
            if a.fn == "count":
                out[a.alias] = n
                continue
            fn, pcol = pmap[a.alias]
            if a.fn == "mean":
                out[a.alias] = tbl.column(pcol).to_numpy() / n.to_numpy()
            elif pcol.startswith(_PT):
                us = tbl.column(pcol).to_numpy()
                out[a.alias] = pa.array(us, mask=us == _NAT).cast(pa.timestamp("us"))
            else:
                out[a.alias] = tbl.column(pcol)
        return pa.table(out)

    # -- one epoch ------------------------------------------------------
    def epoch_step(self, c: Claim) -> StepResult:
        # extent mode's ts_col is the extent START: the watermark advances
        # on it (an extent's end is not its event time). State files hold
        # merged fragments, read as they are.
        live = Source(c.files, self._fragments, event_rows(self.ts_col, self.transform), self.read_columns)
        ks = KeyedStep(c, [live, Source(c.state_files())], self.key)
        new_wm = advance_watermark(c.prev_wm, ks.maxima[0], self.allowed_lateness_s, c.finalize)
        gap_us, merge_fn, fin_fn = self.gap_s * US, self._merge_fragments, self._finalize

        def per_task(tbl: pa.Table, wm: int) -> list[Write]:
            merged = merge_fn(tbl)
            closed = pa.array(merged.column("end_us").to_numpy() + gap_us <= wm)
            return [
                Write("out", fin_fn(merged.filter(closed))),
                Write("state", merged.filter(pc.invert(closed))),
            ]

        return ks.reduce(per_task, new_wm)
