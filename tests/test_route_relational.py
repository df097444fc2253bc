"""A route branch's relational steps on the keyed step: each epoch's
committed rows of the branch equal what the batch plan
(``runner.apply_steps``) gives over that epoch's files, op by op.

Integers are equal, floats equal to a relative 1e-9: a window adds its
float partials in one pass over the epoch's rows, the batch plan block
by block. The batch plan's types differ in one place: carry-mode dedup
holds a nullable integer id as a float."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from vaero_ray.dsl import Vaero
from vaero_ray.io import read_parquet
from vaero_ray.planner import Planner
from vaero_ray.runner import apply_steps
from vaero_ray.sinks.parquet_sink import PREFIX_COL, derive_prefix
from vaero_ray.streaming.checkpoint import CheckpointStore
from vaero_ray.streaming.transform_job import StreamingTransformJob

N_FILES, ROWS = 4, 60
BASE_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """A stream of ``N_FILES`` files and two join sides."""
    root = tmp_path_factory.mktemp("route_relational")
    rng = np.random.default_rng(5)
    n = N_FILES * ROWS
    x = rng.random(n) * 10
    x[rng.choice(n, 6, replace=False)] = np.nan
    texts = np.array([f"t{v}" for v in rng.integers(0, 30, n)], dtype=object)
    texts[rng.choice(n, 5, replace=False)] = None
    ids = rng.permutation(n).astype("float64")
    ids[7] = np.nan  # one null id
    tbl = pa.table({
        "k": pa.array([f"k{v}" for v in rng.integers(0, 5, n)]),
        "ts": pa.array((BASE_US + np.sort(rng.integers(0, 2 * 3600 * 10**6, n))).astype("datetime64[us]")),
        "i": pa.array(rng.integers(0, 100, n)),
        "x": pa.array(x, from_pandas=True),
        "text": pa.array(texts),
        "id": pa.array(ids, pa.int64(), from_pandas=True),
        "role": pa.array(rng.choice(["user", "tool"], n)),
    })
    os.makedirs(root / "in")
    for f in range(N_FILES):
        pq.write_table(tbl.slice(f * ROWS, ROWS), str(root / "in" / f"chunk-{f:04d}.parquet"))
    side = pa.table({"k": ["k0", "k1", "k2", "kz"], "label": ["zero", "one", "two", "none"]})
    pq.write_table(side, str(root / "side.parquet"))
    pq.write_table(side.append_column("x", pa.array([0.5, 1.5, 2.5, 9.5])), str(root / "side_x.parquet"))
    return {"in": str(root / "in"), "side": str(root / "side.parquet"), "side_x": str(root / "side_x.parquet")}


WINDOW_AGGS = [[c, fn, f"{c}_{fn}"] for c in ("i", "x") for fn in ("sum", "min", "max", "mean")]


def _graph(op: str, inputs: dict) -> list:
    """A plain branch, then the relational branch ``b1_s3`` under test."""
    Vaero.reset()
    src = Vaero().source("parquet", path="unused")
    src.filter_regexp("role", "^tool$").sink("s3", timestamp_key="ts", filename_prefix="%Y/%m/%d")
    sink = dict(timestamp_key="ts", filename_prefix="%Y/%m/%d/%H")
    if op == "window":
        rel = src.window(keys=["k"], aggs=WINDOW_AGGS + [[None, "count", "n"]], size_s=600)
        sink["timestamp_key"] = "window_start"
    elif op == "filter_expr":
        rel = src.filter_expr("i >= 40 and k != 'k1'")
    elif op == "limit":
        rel = src.limit(25)
    elif op == "dedup":
        rel = src.dedup(path="text", id_path="id")
    else:  # join-{how}; the full join's side has a column of the input's too
        how = op.split("-")[1]
        side = Vaero.side().source("parquet", path=inputs["side_x" if how == "full" else "side"])
        rel = src.join(side, on="k", how=how)
    rel.sink("s3", **sink)
    return Vaero.start()


def _sorted(tbl: pa.Table) -> pd.DataFrame:
    df = tbl.to_pandas()
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, ignore_index=True)


OPS = ["window", "filter_expr", "limit", "dedup", "join-inner", "join-left", "join-full"]


@pytest.mark.parametrize("op", OPS)
def test_a_relational_branch_commits_the_batch_plans_rows(op, inputs, tmp_path, ray_session):
    graph = _graph(op, inputs)
    job = StreamingTransformJob(inputs["in"], f"{tmp_path}/out", f"{tmp_path}/ckpt", graph=graph)
    assert len(job.run()) == N_FILES
    branch = Planner(graph).plan.branches[1]
    store = CheckpointStore(job.ckpt_dir)
    for e in store.committed_epochs():
        m = store.load(e)
        files = [f for key, p in sorted(m.partitions.items()) if key.startswith("b1_s3/") for f in p["files"]]
        got = pa.concat_tables([pq.read_table(f) for f in files])
        blocks = ray.get(apply_steps(read_parquet(m.input_files), branch).to_arrow_refs())
        want = pa.concat_tables(blocks, promote_options="permissive")
        # the sink drops rows without a timestamp: a full join's unmatched side row
        want = derive_prefix(want, "window_start" if op == "window" else "ts").drop_columns([PREFIX_COL])
        assert got.num_rows == want.num_rows > 0
        if op == "limit":  # which rows a limit keeps is the epoch's first, in claimed-file order
            first = pa.concat_tables([pq.read_table(f) for f in m.input_files]).slice(0, 25)
            pd.testing.assert_frame_equal(_sorted(got), _sorted(first))
            continue
        if op == "join-full":
            assert "x_r" in got.column_names
        pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False, rtol=1e-9)
