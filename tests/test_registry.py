"""Job lifecycle registry (reference cmd/util.go add/start/stop/list/
detail/delete semantics over a JSON registry dir)."""

from __future__ import annotations

import glob
import os
import sys
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from vaero_ray.dsl import Vaero
from vaero_ray.registry import JobRegistry
from vaero_ray.sources.transcripts import make_transcripts
from vaero_ray.streaming import CheckpointStore
from vaero_ray.streaming.transform_job import StreamingTransformJob


def _write_chunk(d, seq, n=4, base=0):
    tbl = pa.table(
        {
            "timestamp": pa.array(["2026-01-02T03:04:05Z"] * n),
            "v": pa.array(range(base, base + n), pa.int64()),
        }
    )
    d.mkdir(parents=True, exist_ok=True)
    pq.write_table(tbl, d / f"chunk-{seq:04d}.parquet")


def _graph(tag):
    Vaero.reset()
    v = Vaero().source("random", interval=0)
    v.add("tag", tag).sink("stdout")
    return Vaero.start()


def test_registry_lifecycle(tmp_path, ray_session):
    reg = JobRegistry(str(tmp_path / "reg"))

    in1, in2 = tmp_path / "in1", tmp_path / "in2"
    _write_chunk(in1, 0)
    _write_chunk(in2, 0)

    j1 = reg.add(_graph("one"), spec="spec_one.py")
    j2 = reg.add(_graph("two"), spec="spec_two.py")
    assert [e["id"] for e in reg.list()] == [j1, j2]
    assert all(e["status"] == "staged" for e in reg.list())
    assert reg.detail(j1)["spec"] == "spec_one.py"

    started = reg.start(input_dirs={j1: str(in1), j2: str(in2)})
    assert sorted(started) == [j1, j2]

    # both jobs consume their first chunk
    deadline = time.monotonic() + 180
    while time.monotonic() < deadline:
        try:
            if (
                reg.committed_output(j1).count() == 4
                and reg.committed_output(j2).count() == 4
            ):
                break
        except ValueError:
            pass
        time.sleep(0.2)
    out1 = reg.committed_output(j1).to_pandas()
    assert (out1["tag"] == "one").all() and len(out1) == 4

    # stop job 1 mid-stream; job 2 keeps consuming new chunks
    assert reg.stop(j1)
    reg.wait(j1, timeout_s=60)
    assert reg.detail(j1)["status"] == "stopped"

    _write_chunk(in1, 1, base=100)  # arrives after the stop: never consumed
    _write_chunk(in2, 1, base=100)
    deadline = time.monotonic() + 180
    while time.monotonic() < deadline:
        if reg.committed_output(j2).count() == 8:
            break
        time.sleep(0.2)
    assert reg.committed_output(j2).count() == 8
    assert reg.committed_output(j1).count() == 4  # stopped: untouched
    assert reg.detail(j2)["status"] == "running"

    # delete stops and removes
    assert reg.delete(j2)
    assert reg.detail(j2) is None
    assert [e["id"] for e in reg.list()] == [j1]

    # unknown ids are no-ops (reference prints not-found)
    assert not reg.stop(999)
    assert not reg.delete(999)


def _route_graph(masked: bool) -> list:
    Vaero.reset()
    src = Vaero().source("parquet", path="unused", interval=0)
    if masked:
        src.mask("text", r"user\d+@example\.com", "<email>").sink("s3", timestamp_key="ts", filename_prefix="%Y/%m/%d/%H")
    else:
        src.filter_regexp("role", "^(user|tool)$").sink("s3", timestamp_key="ts", filename_prefix="%Y/%m/%d")
    return Vaero.start()


def _outputs(ckpt_dir: str) -> list:
    """Per committed epoch: (input files, sorted (partition, rows, sha256))."""
    store = CheckpointStore(ckpt_dir)
    out = []
    for e in store.committed_epochs():
        m = store.load(e)
        out.append((m.input_files, sorted((k, p["rows"], tuple(p["sha256"])) for k, p in m.partitions.items())))
    return out


def test_concurrent_route_jobs_commit_what_each_commits_alone(tmp_path, ray_session):
    """Two route jobs of one registry run their steps in one process, in
    two threads; each commits the bytes it commits when run alone."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    tbl = make_transcripts(n_convs=40, mean_turns=10, seed=5, disorder_frac=0.1)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("ts", "ascending")]))
    for i in range(6):
        lo, hi = i * tbl.num_rows // 6, (i + 1) * tbl.num_rows // 6
        pq.write_table(tbl.slice(lo, hi - lo), str(in_dir / f"chunk-{i:04d}.parquet"))
    inputs = sorted(glob.glob(str(in_dir / "*.parquet")))

    reg = JobRegistry(str(tmp_path / "reg"))
    graphs = {}
    for masked in (True, False):
        graph = _route_graph(masked)
        graphs[reg.add(graph)] = graph
    ckpts = {j: os.path.join(reg.work_dir, f"{j:06d}", "ckpt") for j in graphs}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two job threads finely
    try:
        assert sorted(reg.start(input_dirs={j: str(in_dir) for j in graphs})) == sorted(graphs)
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            if all(CheckpointStore(c).consumed_files() == set(inputs) for c in ckpts.values()):
                break
            time.sleep(0.1)
        for j in graphs:
            reg.stop(j)
            reg.wait(j, timeout_s=60)
    finally:
        sys.setswitchinterval(interval)
    for j in graphs:
        assert reg.detail(j)["status"] == "stopped" and "error" not in reg.detail(j)

    for j, graph in graphs.items():
        alone = StreamingTransformJob(str(in_dir), f"{tmp_path}/alone{j}/out", f"{tmp_path}/alone{j}/ckpt", graph=graph)
        alone.run()
        want = _outputs(alone.ckpt_dir)
        assert len(want) == len(inputs) and sum(rows for _, parts in want for _, rows, _ in parts) > 0
        assert _outputs(ckpts[j]) == want
