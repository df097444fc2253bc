"""Streaming SESSION windows: gap-based per-key sessions closed by the
event-time watermark, completing the windows x {batch, streaming} matrix
(tumbling/sliding stream through job.py, sessions through this driver;
batch sessions live in stages/windows.py sessionize/session_aggregate).

Sessions run on the window partial kernels of stages/windows.py, with
their null and NaN rules. Unlike the stitch job (which buffers RAW
turns), state is one MERGEABLE PARTIAL per open session fragment (a
slice): the key, the bounds ``__start_min``/``__end_max`` (int64
microseconds) and the ``partial_table`` columns. Map tasks chain each
input file's rows into fragments, one ``partial_table`` row each, so
the exchange and the state grow with open sessions, not events. Reduce
tasks chain the live and carried fragments again, merge each session's
partials (``merge_partial_tables``) and finalize the closed ones
(``finalize_table``).

Chain rule: two events belong to one session iff they chain with
inter-event gaps <= gap_s. Fragments sorted by (key, start, end) chain
into the running session when ``start_i - cummax(end_0..end_{i-1}) <=
gap`` (cummax handles out-of-order overlap between state and live
fragments) — exactly the transitive closure, so stream == batch output
for the same input and watermark (parity-gated by
``streaming_session_stats``).

Close rule: a merged session CLOSES when ``wm >= session_end + gap`` —
any event that could still extend it would have ``ts <= session_end +
gap <= wm`` and be late by definition. Late events (ts <= previous
watermark) are dropped and counted, same contract as job.py/stitch_job;
so are extents without an end.

Epoch protocol, exactly-once commit, resume and metrics are driver.py's,
and so is the keyed step (``KeyedStep``). An older version's
``__n``/``__p_*`` session state fails with an error naming its file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from vaero_ray.stages.windows import US, AggSpec, finalize_table, merge_partial_tables, partial_table
from vaero_ray.streaming.driver import (
    Claim,
    EpochDriver,
    KeyedStep,
    Source,
    StepResult,
    advance_watermark,
    event_rows,
    event_us,
    slice_state,
)
from vaero_ray.streaming.sink import Write

START, END = "__start_min", "__end_max"  # a fragment's bounds, as partials
_SID = "__sid"  # a row's session, within one chained table


def _seg_cummax(vals: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Cummax within segments, exact for int64: dense ranks offset by
    segment, so one running max never carries across a segment start."""
    if not len(vals):
        return vals.copy()
    uniq, rank = np.unique(vals, return_inverse=True)
    offset = (np.cumsum(seg_starts) - 1) * len(uniq)
    return uniq[np.maximum.accumulate(rank + offset) - offset]


def _collapse(tbl: pa.Table, key: str, start: str, end: str, gap_us: int, reduce) -> pa.Table:
    """Chain ``tbl``'s rows, sorted by (key, start, end), into sessions
    and collapse each to one row led by its key: ``reduce(rows, [_SID])``
    groups on the session alone, an integer, not on (key, session)."""
    tbl = tbl.sort_by([(key, "ascending"), (start, "ascending"), (end, "ascending")])
    s, e = tbl.column(start).to_numpy(), tbl.column(end).to_numpy()
    # dictionary codes: NULL-keyed rows form ONE group (raw comparison is
    # null for null == null, splitting every null row into its own session)
    codes = pc.dictionary_encode(tbl.column(key).combine_chunks(), null_encoding="encode").indices.to_numpy()
    brk = np.r_[True, codes[1:] != codes[:-1]][: len(s)]
    run_end = _seg_cummax(e, brk)
    brk[1:] |= s[1:] - run_end[:-1] > gap_us
    out = reduce(tbl.append_column(_SID, pa.array(np.cumsum(brk) - 1)), [_SID])
    keys = tbl.column(key).take(pa.array(np.flatnonzero(brk))).take(out.column(_SID))
    return out.drop_columns([_SID]).add_column(0, key, keys)


@dataclass
class StreamingSessionJob(EpochDriver):
    input_dir: str
    out_dir: str
    ckpt_dir: str
    key: str
    aggs: list[AggSpec]
    ts_col: str = "ts"
    # EXTENT mode (streaming interval union): each row is an extent
    # [ts_col, end_col]; extents chain when a start is within gap_s of
    # the running max end (gap_s=0: touching union, the streaming
    # stages/cep.merge_intervals). The watermark advances from the max
    # START: an extent's end can lie far ahead of event time.
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
        self._state_aggs = list(self.aggs) + [AggSpec("__start", "min", START), AggSpec("__end", "max", END)]

    def _extents(self, tbl: pa.Table) -> pa.Table:
        """Extent mode's transform: the job's, then a null time for a row
        without an end, so ``event_rows`` drops it as late."""
        if self.transform is not None:
            tbl = self.transform(tbl)
        ts = pc.if_else(pc.is_null(tbl.column(self.end_col)), None, tbl.column(self.ts_col))
        return tbl.set_column(tbl.schema.get_field_index(self.ts_col), self.ts_col, ts)

    def _fragments(self, tbl: pa.Table) -> pa.Table:
        """Each row is a fragment — ``[ts, ts]``, or ``[ts, end]`` in
        extent mode — chained into one partial row per file-local
        session."""
        s = event_us(tbl.column(self.ts_col))
        e = s if self.end_col is None else event_us(tbl.column(self.end_col))
        if pc.any(pc.less(e, s)).as_py():
            raise ValueError(f"{self.end_col} < {self.ts_col}: reversed extent")
        tbl = tbl.append_column("__start", s).append_column("__end", e)
        aggs, gap_us = self._state_aggs, self.gap_s * US
        return _collapse(tbl, self.key, "__start", "__end", gap_us, lambda t, g: partial_table(t, g, aggs, size_s=None))

    def _merge_fragments(self, tbl: pa.Table) -> pa.Table:
        """Fragments chained into sessions, one merged partial row each."""
        aggs = self._state_aggs
        return _collapse(tbl, self.key, START, END, self.gap_s * US, lambda t, g: merge_partial_tables([t], g, aggs))

    # -- one epoch ------------------------------------------------------
    def epoch_step(self, c: Claim) -> StepResult:
        extra = slice_state(c, "session state in the __n/__p_* layout of an older version")
        transform = self.transform if self.end_col is None else self._extents
        live = Source(c.files, self._fragments, event_rows(self.ts_col, transform), self.read_columns)
        ks = KeyedStep(c, [live, Source(c.state_files())], self.key)
        new_wm = advance_watermark(c.prev_wm, ks.maxima[0], self.allowed_lateness_s, c.finalize)
        key, aggs, gap_us, merge_fn = self.key, self.aggs, self.gap_s * US, self._merge_fragments

        def per_task(tbl: pa.Table, wm: int) -> list[Write]:
            merged = merge_fn(tbl)
            closed = pc.less_equal(pc.add(merged.column(END), gap_us), wm)
            return [
                Write("out", finalize_table(merged.filter(closed), [key], aggs)),
                Write("state", merged.filter(pc.invert(closed))),
            ]

        return ks.reduce(per_task, new_wm, extra)
