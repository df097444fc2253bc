"""Window / aggregate oracles: brute-force pandas implementations vs the
Ray stages (SURVEY.md §5.2 item 3)."""

from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from vaero_ray.sources import make_transcripts
from vaero_ray.stages import (
    assign_sliding,
    assign_tumbling,
    sessionize,
    windowed_aggregate,
)
from vaero_ray.stages.windows import US, AggSpec

TBL = make_transcripts(40, 12, seed=5, disorder_frac=0.2)
PDF = TBL.to_pandas()


def test_tumbling_assignment():
    out = assign_tumbling(TBL, "ts", 60).to_pandas()
    want = PDF.ts.astype("int64") // (60 * US) * (60 * US)
    assert (out.window_start.astype("int64") == want).all()


def test_sliding_assignment_brute_force():
    size_s, slide_s = 300, 60
    out = assign_sliding(TBL, "ts", size_s, slide_s).to_pandas()
    # brute force: every (row, window) pair where window covers ts
    rows = []
    for _, r in PDF.iterrows():
        t = int(pd.Timestamp(r.ts).value // 1000)  # us
        last = t // (slide_s * US) * (slide_s * US)
        for k in range(size_s // slide_s):
            w = last - k * slide_s * US
            if w >= 0 and w <= t < w + size_s * US:
                rows.append((r.conv_id, r.turn_idx, w))
    want = pd.DataFrame(rows, columns=["conv_id", "turn_idx", "w"]).sort_values(
        ["conv_id", "turn_idx", "w"]
    )
    got = out[["conv_id", "turn_idx", "window_start"]].copy()
    got["window_start"] = got.window_start.astype("int64")
    got = got.sort_values(["conv_id", "turn_idx", "window_start"])
    assert got.values.tolist() == want.values.tolist()


def test_sliding_row_multiplicity():
    out = assign_sliding(TBL, "ts", 300, 60)
    # every row appears exactly size/slide times (ts >> size here)
    assert out.num_rows == TBL.num_rows * 5


def test_sessionize_against_brute_force():
    gap_s = 12
    ds = rd.from_arrow(TBL)
    got = sessionize(ds, "conv_id", "ts", gap_s).to_pandas()

    def brute(g):
        g = g.sort_values("ts", kind="mergesort")
        sid = (g.ts.astype("int64").diff().fillna(0) > gap_s * US).astype("int64").cumsum()
        g = g.copy()
        g["want_sid"] = sid
        return g

    want = PDF.groupby("conv_id", group_keys=False)[PDF.columns.tolist()].apply(brute)
    merged = got.merge(want, on=["conv_id", "turn_idx"], suffixes=("", "_w"))
    assert len(merged) == len(got) == len(PDF)
    assert (merged.session_id == merged.want_sid).all()
    # sessions are non-trivial with this gap
    assert got.session_id.max() > 0


def test_windowed_aggregate_two_phase_matches_pandas():
    ds = rd.from_arrow(TBL)
    ds = ds.map_batches(
        lambda t: t.append_column("n_chars", pa.compute.utf8_length(t.column("text"))),
        batch_format="pyarrow",
    )
    out = windowed_aggregate(
        ds,
        keys=["role"],
        aggs=[
            AggSpec(None, "count", "n_turns"),
            AggSpec("n_chars", "sum", "sum_chars"),
            AggSpec("n_chars", "max", "max_chars"),
            AggSpec("n_chars", "mean", "avg_chars"),
        ],
        ts_col="ts",
        size_s=600,
    ).to_pandas()

    pdf = PDF.copy()
    pdf["n_chars"] = pdf.text.str.len()
    pdf["window_start"] = pd.to_datetime(pdf.ts.astype("int64") // (600 * US) * (600 * US) * 1000)
    want = (
        pdf.groupby(["role", "window_start"])
        .agg(n_turns=("n_chars", "size"), sum_chars=("n_chars", "sum"), max_chars=("n_chars", "max"), avg_chars=("n_chars", "mean"))
        .reset_index()
    )
    got = out.sort_values(["role", "window_start"]).reset_index(drop=True)
    want = want.sort_values(["role", "window_start"]).reset_index(drop=True)
    assert len(got) == len(want)
    assert (got.role == want.role).all()
    assert (got.n_turns == want.n_turns).all()
    assert (got.sum_chars == want.sum_chars).all()
    assert (got.max_chars == want.max_chars).all()
    assert np.allclose(got.avg_chars, want.avg_chars)


def test_unwindowed_aggregate():
    ds = rd.from_arrow(TBL)
    out = windowed_aggregate(
        ds, keys=["conv_id"], aggs=[AggSpec(None, "count", "n_turns")], size_s=None
    ).to_pandas()
    want = PDF.groupby("conv_id").size()
    got = out.set_index("conv_id").n_turns
    assert got.sort_index().equals(want.sort_index().astype("int64"))


def test_aggspec_validation():
    with pytest.raises(ValueError):
        AggSpec("x", "median", "m")


def test_determinism_across_block_layouts():
    """Two-phase results must not depend on block boundaries."""
    ds1 = rd.from_arrow(TBL)
    ds2 = rd.from_arrow(TBL).repartition(7)
    specs = dict(keys=["role"], aggs=[AggSpec(None, "count", "n"), ], ts_col="ts", size_s=120)
    a = windowed_aggregate(ds1, **specs).to_pandas().sort_values(["role", "window_start"]).reset_index(drop=True)
    b = windowed_aggregate(ds2, **specs).to_pandas().sort_values(["role", "window_start"]).reset_index(drop=True)
    assert a.equals(b)


def test_salted_distinct_count_matches_pandas(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from vaero_ray.stages.windows import salted_distinct_count

    rng = np.random.default_rng(9)
    n = 20_000
    # heavy skew: one hot key holding most rows
    keys = np.where(rng.random(n) < 0.8, "hot", rng.choice(["a", "b", "c"], n))
    vals = rng.integers(0, 2_000, n)
    tbl = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    got = (
        salted_distinct_count(rd.from_arrow(tbl), key="k", value_col="v", alias="nd")
        .to_pandas()
        .sort_values("k", ignore_index=True)
    )
    import pandas as pd

    want = (
        pd.DataFrame({"k": keys, "v": vals})
        .groupby("k")["v"]
        .nunique()
        .rename("nd")
        .reset_index()
        .sort_values("k", ignore_index=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_pane_sliding_equals_row_replication(ray_session):
    """Pane-based sliding aggregation must equal the row-replication
    formulation for any k = size/slide (scale-safe form vs oracle form)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from functools import partial as _p

    from vaero_ray.stages.windows import (
        AggSpec,
        assign_sliding,
        sliding_windowed_aggregate,
        windowed_aggregate,
    )

    rng = np.random.default_rng(11)
    n = 5000
    tbl = pa.table(
        {
            "k": pa.array(rng.integers(0, 7, n).astype("U1")),
            "ts": pa.array(rng.integers(0, 86_400, n) * 1_000_000).cast(pa.timestamp("us")),
            "v": pa.array(rng.integers(0, 100, n), pa.int64()),
        }
    )
    for size_s, slide_s in ((7200, 3600), (3600, 150)):  # k=2 and k=24
        aggs = [AggSpec(None, "count", "n"), AggSpec("v", "sum", "sv"), AggSpec("v", "max", "mv")]
        pane = sliding_windowed_aggregate(
            rd.from_arrow(tbl), keys=["k"], aggs=aggs, ts_col="ts", size_s=size_s, slide_s=slide_s
        ).to_pandas()
        repl_in = rd.from_arrow(tbl).map_batches(
            _p(assign_sliding, ts_col="ts", size_s=size_s, slide_s=slide_s),
            batch_format="pyarrow",
        )
        repl = windowed_aggregate(
            repl_in, keys=["k", "window_start"], aggs=aggs, size_s=None
        ).to_pandas()
        key = ["k", "window_start"]
        pane = pane.sort_values(key, ignore_index=True)[["k", "window_start", "n", "sv", "mv"]]
        repl = repl.sort_values(key, ignore_index=True)[["k", "window_start", "n", "sv", "mv"]]
        pd.testing.assert_frame_equal(pane, repl)


@pytest.mark.parametrize("kernel", ["partial_table", "merge_partial_tables"])
def test_window_kernels_write_the_same_bits_at_any_cpu_count(kernel):
    """A float sum over 1.1M rows gives the same committed bytes with one
    and with eight pyarrow CPU threads (a threaded group_by adds such a
    column in a grouping that depends on the thread count)."""
    from vaero_ray.stages.windows import merge_partial_tables, partial_table
    from vaero_ray.streaming.sink import canonical_bytes

    rng = np.random.default_rng(11)
    n = 1_100_000
    ts = pa.array(rng.integers(0, 2 * 3600 * US, n).astype("datetime64[us]"))
    keys, aggs = pa.array(rng.integers(0, 3, n)), [AggSpec("v", "sum", "total")]
    values = pa.array(rng.random(n) * 1e6)
    if kernel == "partial_table":
        tbl = pa.table({"k": keys, "ts": ts, "v": values})
        run = partial(partial_table, tbl, ["k"], aggs, "ts", 3600)
    else:
        windows = pa.array((rng.integers(0, 2, n) * 3600 * US).astype("datetime64[us]"))
        tbl = pa.table({"k": keys, "window_start": windows, "v_sum": values})
        run = partial(merge_partial_tables, [tbl], ["k", "window_start"], aggs)
    cpus = pa.cpu_count()
    try:
        got = {}
        for n_cpus in (1, 8):
            pa.set_cpu_count(n_cpus)
            got[n_cpus] = canonical_bytes(run())[0]
    finally:
        pa.set_cpu_count(cpus)
    assert got[1].equals(got[8])
