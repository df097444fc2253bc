"""The one-task step and the Ray Data step write the same bytes.

``step.SMALL_EPOCH_BYTES`` picks the step per epoch; each test forces
one step by patching it and compares every output and state file's
sha256 (plus the manifest counters) across the two. Both split the
windowed job's closed-window output and its open-window state into
``job.file_partitions`` files (one each for these small epochs). The
task step runs in the job's process, so a patch of that rule or its
bound reaches it."""

from __future__ import annotations

import json

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from tools.fingerprint import fingerprint as _fingerprint
from vaero_ray.dsl import Vaero
from vaero_ray.sources.transcripts import make_transcripts
from vaero_ray.stages.windows import AggSpec
from vaero_ray.streaming import CheckpointStore, StreamingWindowedJob, job as window_job, step
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


def _steps(ckpt_dir: str) -> list[str]:
    with open(f"{ckpt_dir}/metrics.jsonl") as fh:
        return [json.loads(line)["step"] for line in fh]


def _state_files(ckpt_dir: str) -> list[int]:
    """Per committed epoch: how many files carry its open-window state."""
    store = CheckpointStore(ckpt_dir)
    return [len(store.load(e).state_files()) for e in store.committed_epochs()]


def _out_files(ckpt_dir: str) -> list[int]:
    """Per committed epoch: how many files hold its closed-window output."""
    store = CheckpointStore(ckpt_dir)
    return [sum(len(p["files"]) for p in store.load(e).partitions.values()) for e in store.committed_epochs()]


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
            # num_partitions=4; a few hundred rows fit one output and one state file
            assert max(_state_files(f"{base}/ckpt")) == 1
            assert max(_out_files(f"{base}/ckpt")) == 1
        assert set(_steps(f"{base}/ckpt")) == {label}
        got[label] = _fingerprint(f"{base}/ckpt")
    assert sum(e[4] for e in got["task"]) > 0
    assert got["task"] == got["dataset"]
    # a one-file epoch's rows digest is that file's sha256
    one_file = [e for e in got["task"] if [len(p[2]) for p in e[6]["out"]] == [1]]
    assert [e[7] for e in one_file] == [e[6]["out"][0][2][0] for e in one_file]


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


@pytest.mark.parametrize("name", ["tumbling-native", "sliding-bucketed"])
def test_steps_split_state_alike_past_the_row_bound(name, stream_dir, tmp_path, monkeypatch, ray_session):
    """With a bound of 60 rows per file, both steps split the closed and
    the open hour windows of each ~215-row epoch into the same (up to 4)
    files."""
    monkeypatch.setattr(window_job, "ROW_GROUP_ROWS", 60)  # the rule's bound, not the writer's row groups
    got = {}
    for bound, label in ((ALWAYS, "task"), (NEVER, "dataset")):
        monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", bound)
        base = f"{tmp_path}/{label}"
        _window_job(stream_dir, base, size_s=3600, **WINDOW_JOBS[name]).run()
        assert set(_steps(f"{base}/ckpt")) == {label}
        assert max(_state_files(f"{base}/ckpt")) == 4
        assert 1 < max(_out_files(f"{base}/ckpt")) <= 4
        got[label] = _fingerprint(f"{base}/ckpt")
    assert got["task"] == got["dataset"]


@pytest.mark.parametrize("label", ["task", "dataset"])
def test_resume_from_state_split_per_partition(label, stream_dir, tmp_path, monkeypatch, ray_session):
    """Epochs 0-1 write their output and carry their state in one file
    per hash partition (the layout before files were sized by rows); the
    resumed run reads those files and writes the clean run's bytes from
    then on. Epochs 0-1 hold the clean run's rows in other files."""
    monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", ALWAYS if label == "task" else NEVER)
    _window_job(stream_dir, f"{tmp_path}/ref", size_s=3600).run()
    with monkeypatch.context() as m:
        m.setattr(window_job, "file_partitions", lambda rows_in, lineage_rows, num_partitions: num_partitions)
        _window_job(stream_dir, f"{tmp_path}/run", size_s=3600).run(max_epochs=2, finalize=False)
    assert _state_files(f"{tmp_path}/run/ckpt") == _out_files(f"{tmp_path}/run/ckpt") == [4, 4]
    _window_job(stream_dir, f"{tmp_path}/run", size_s=3600).run()
    assert set(_steps(f"{tmp_path}/run/ckpt")) == {label}
    assert _state_files(f"{tmp_path}/run/ckpt")[2:] == _state_files(f"{tmp_path}/ref/ckpt")[2:] == [1, 1, 0]
    ref, run = _fingerprint(f"{tmp_path}/ref/ckpt"), _fingerprint(f"{tmp_path}/run/ckpt")
    assert [e[:6] + (e[7],) for e in run[:2]] == [e[:6] + (e[7],) for e in ref[:2]]
    assert run[2:] == ref[2:]


@pytest.mark.parametrize("merge_backend", ["native", "bucketed"])
def test_null_in_an_integer_aggregate_carried_in_state(merge_backend, tmp_path, monkeypatch, ray_session):
    """An integer column with nulls is written as float64, so the state
    carried out of epoch 0 holds ``x_max`` as double while epoch 1's live
    partials hold int64: both steps merge them and write the same bytes."""
    t0 = pd.Timestamp("2026-01-01")
    epochs = [[("a", None), ("a", None), ("b", 5), ("c", 7)], [("a", 3), ("b", 4), ("c", None)]]
    (tmp_path / "in").mkdir()
    for i, rows in enumerate(epochs):
        convs, xs = zip(*rows)
        ts = [t0 + pd.Timedelta(seconds=10 * i + j) for j in range(len(rows))]
        pq.write_table(
            pa.table({"conv_id": list(convs), "x": pa.array(xs, pa.int64()), "ts": pa.array(ts, pa.timestamp("us"))}),
            str(tmp_path / "in" / f"chunk-{i:04d}.parquet"),
        )
    got = {}
    for bound, label in ((ALWAYS, "task"), (NEVER, "dataset")):
        monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", bound)
        base = f"{tmp_path}/{label}"
        job = StreamingWindowedJob(
            input_dir=str(tmp_path / "in"), out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt", keys=["conv_id"],
            aggs=[AggSpec(None, "count", "n"), AggSpec("x", "max", "max_x")], size_s=60, allowed_lateness_s=0,
            num_partitions=4, merge_backend=merge_backend,
        )
        assert len(job.run()) == 3  # 2 input epochs + finalize
        assert _steps(f"{base}/ckpt") == [label] * 3
        got[label] = _fingerprint(f"{base}/ckpt")
        out = pa.concat_tables(pq.read_table(f) for f in job.store.committed_output_files())
        assert sorted(out.select(["conv_id", "n", "max_x"]).to_pylist(), key=lambda r: r["conv_id"]) == [
            {"conv_id": "a", "n": 3, "max_x": 3.0},
            {"conv_id": "b", "n": 2, "max_x": 5.0},
            {"conv_id": "c", "n": 2, "max_x": 7.0},
        ]
    assert got["task"] == got["dataset"]
