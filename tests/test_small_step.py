"""The one-task step and the Ray Data step write the same bytes.

``step.SMALL_EPOCH_BYTES`` picks the step per epoch; each test forces
one step by patching it and compares every output and state file's
sha256 (plus the manifest counters) across the two."""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from vaero_ray.dsl import Vaero
from vaero_ray.sources.transcripts import make_transcripts
from vaero_ray.stages.windows import AggSpec
from vaero_ray.streaming import CheckpointStore, StreamingWindowedJob, step
from vaero_ray.streaming.transform_job import StreamingTransformJob

ALWAYS, NEVER = 1 << 62, -1


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("small_step")
    tbl = make_transcripts(n_convs=60, mean_turns=14, seed=11, disorder_frac=0.15)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("ts", "ascending")]))
    n = tbl.num_rows
    for i in range(4):
        lo, hi = i * n // 4, (i + 1) * n // 4
        pq.write_table(tbl.slice(lo, hi - lo), str(d / f"chunk-{i:04d}.parquet"))
    return str(d)


def _text_len(tbl: pa.Table) -> pa.Table:
    return tbl.append_column("tlen", pc.utf8_length(tbl.column("text")))


WINDOW_JOBS = {
    "tumbling-native": dict(),
    "tumbling-bucketed": dict(merge_backend="bucketed"),
    "sliding-native": dict(slide_s=100),
    "sliding-bucketed": dict(slide_s=100, merge_backend="bucketed"),
    "transform": dict(
        transform=_text_len,
        aggs=[AggSpec("tlen", "sum", "chars"), AggSpec("tlen", "mean", "mean_chars"), AggSpec("tlen", "min", "min_chars")],
    ),
}


def _window_job(stream_d: str, base: str, **kw) -> StreamingWindowedJob:
    spec = dict(
        keys=["conv_id"],
        aggs=[
            AggSpec(None, "count", "n_turns"),
            AggSpec("turn_idx", "max", "max_turn_idx"),
            AggSpec("ts", "max", "last_ts"),
        ],
        ts_col="ts",
        size_s=300,
        allowed_lateness_s=30,
        num_partitions=4,
    )
    spec.update(kw)
    return StreamingWindowedJob(input_dir=stream_d, out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt", **spec)


def _route_job(stream_d: str, base: str) -> StreamingTransformJob:
    Vaero.reset()
    src = Vaero().source("parquet", path="unused")
    src.parse_regexp("text", r"(?P<email_user>user\d+)@").mask("text", r"user\d+@example\.com", "<email>").sink(
        "s3", timestamp_key="ts", filename_prefix="%Y/%m/%d/%H"
    )
    src.filter_regexp("role", "^tool$").sink("s3", timestamp_key="ts", filename_prefix="%Y/%m/%d")
    return StreamingTransformJob(stream_d, f"{base}/out", f"{base}/ckpt", graph=Vaero.start())


def _fingerprint(ckpt_dir: str) -> list:
    """Per committed epoch: counters plus (partition, rows, sha256) of
    every output and state file — everything but absolute paths."""
    store = CheckpointStore(ckpt_dir)
    out = []
    for e in store.committed_epochs():
        m = store.load(e)
        files = {
            kind: sorted((k, p["rows"], tuple(p["sha256"])) for k, p in parts.items())
            for kind, parts in (("out", m.partitions), ("state", m.state_partitions))
        }
        out.append((m.epoch, m.watermark_us, m.rows_in, m.rows_late, m.rows_out, m.state_rows, files))
    return out


def _steps(ckpt_dir: str) -> list[str]:
    with open(f"{ckpt_dir}/metrics.jsonl") as fh:
        return [json.loads(line)["step"] for line in fh]


@pytest.mark.parametrize("name", sorted(WINDOW_JOBS) + ["route"])
def test_task_and_dataset_steps_write_identical_bytes(name, stream_dir, tmp_path, monkeypatch, ray_session):
    got = {}
    for bound, label in ((ALWAYS, "task"), (NEVER, "dataset")):
        monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", bound)
        base = f"{tmp_path}/{label}"
        if name == "route":
            job = _route_job(stream_dir, base)
            assert len(job.run()) == 4
        else:
            job = _window_job(stream_dir, base, **WINDOW_JOBS[name])
            assert len(job.run()) == 5  # 4 input epochs + finalize
        assert set(_steps(f"{base}/ckpt")) == {label}
        got[label] = _fingerprint(f"{base}/ckpt")
    assert sum(e[4] for e in got["task"]) > 0
    assert got["task"] == got["dataset"]


@pytest.mark.parametrize("first", ["task", "dataset"])
def test_kill_resume_switching_steps_is_byte_identical(first, stream_dir, tmp_path, monkeypatch, ray_session):
    """Epochs 0-1 take one step; epoch 2 is killed before its manifest
    commit; a fresh job object resumes with the other step."""
    bounds = {"task": ALWAYS, "dataset": NEVER}
    second = "dataset" if first == "task" else "task"
    monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", bounds[first])
    ref = _window_job(stream_dir, f"{tmp_path}/ref")
    ref.run()

    job = _window_job(stream_dir, f"{tmp_path}/run")
    job.run(max_epochs=2, finalize=False)
    crash = _window_job(stream_dir, f"{tmp_path}/run")
    crash.store.commit = lambda m: (_ for _ in ()).throw(RuntimeError("killed"))
    with pytest.raises(RuntimeError):
        crash.run_epoch()

    monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", bounds[second])
    _window_job(stream_dir, f"{tmp_path}/run").run()
    assert _steps(f"{tmp_path}/run/ckpt") == [first, first, second, second, second]
    assert _fingerprint(f"{tmp_path}/run/ckpt") == _fingerprint(f"{tmp_path}/ref/ckpt")
