"""The epoch driver (streaming/driver.py) under every streaming job.

- kill-resume: each job is killed in its second epoch at four points —
  after the step's output writes (its state files deleted), after the
  output and state writes but before the commit, after the manifest tmp
  file is written but before its rename, and after the rename but before
  the metrics append. A fresh job object resumes; every output, state
  and manifest file must equal a clean run's bytes.
- metrics: every committed epoch, empty and finalize epochs included,
  has exactly one ``metrics.jsonl`` record with the common keys.
- keyed step: the windowed, route, stitch, session, fold and join jobs
  run no Ray Data execution, and write the same bytes whatever their
  task counts, also when a resume switches them; a keyed checkpoint that
  holds one state file per hash bucket resumes under the row rule.
- in-process step: a small window, route or keyed epoch starts no Ray
  task; an over-budget keyed epoch fans out to map and reduce tasks.
- input listing: a directory name with glob characters is read
  literally.
- guard: the driver is the only module that builds a manifest, commits
  it or appends a metrics record.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import shutil
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
from ray.remote_function import RemoteFunction

from vaero_ray.dsl import Vaero
from vaero_ray.sources.transcripts import make_transcripts
from vaero_ray.stages.windows import AggSpec
from vaero_ray.streaming import checkpoint, driver, step
from vaero_ray.streaming.driver import EpochDriver
from vaero_ray.streaming.fold_job import StreamingFoldJob
from vaero_ray.streaming.job import StreamingWindowedJob
from vaero_ray.streaming.join_job import StreamingJoinJob
from vaero_ray.streaming.session_job import StreamingSessionJob
from vaero_ray.streaming.stitch_job import StreamingStitchJob
from vaero_ray.streaming.transform_job import StreamingTransformJob

from .test_small_step import _fingerprint

N_CHUNKS = 3
KILL_EPOCH = 1
COMMON_KEYS = {
    "epoch", "op", "step", "rows_in", "bytes_in", "state_bytes_in", "rows_late", "rows_out", "state_rows",
    "watermark_us", "files_written", "read_s", "compute_s", "write_s", "wall_s",
}
BASE_US = pd.Timestamp("2026-01-01").value // 1000
HOUR_US = 3_600_000_000


def _write_chunks(tbl: pa.Table, d: str, ts_col: str = "ts") -> None:
    """``tbl`` in event-time order, cut into ``N_CHUNKS`` arrival files."""
    os.makedirs(d, exist_ok=True)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[(ts_col, "ascending")]))
    n = tbl.num_rows
    for i in range(N_CHUNKS):
        lo, hi = i * n // N_CHUNKS, (i + 1) * n // N_CHUNKS
        pq.write_table(tbl.slice(lo, hi - lo), os.path.join(d, f"chunk-{i:04d}.parquet"))


def _ts(us: np.ndarray) -> pa.Array:
    return pa.array(us.astype("datetime64[us]"))


def _events(rng, n: int, hours: int) -> np.ndarray:
    return BASE_US + np.sort(rng.integers(0, hours * HOUR_US, n))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict:
    """Input directories, by name; the ``empty`` ones hold no file."""
    root = str(tmp_path_factory.mktemp("driver_inputs"))
    rng = np.random.default_rng(7)
    _write_chunks(make_transcripts(n_convs=30, mean_turns=8, seed=7, disorder_frac=0.2), f"{root}/turns")
    ev = _events(rng, 600, 18)
    _write_chunks(
        pa.table({
            "user_id": pa.array([f"u{u}" for u in rng.integers(0, 12, len(ev))]),
            "ts": _ts(ev),
            "value": pa.array(rng.integers(1, 100, len(ev)).astype("float64")),
        }),
        f"{root}/events",
    )
    st = _events(rng, 400, 18)
    _write_chunks(
        pa.table({
            "user_id": pa.array([f"u{u}" for u in rng.integers(0, 10, len(st))]),
            "ts": _ts(st),
            "end_us": pa.array(st + rng.integers(0, HOUR_US, len(st))),
        }),
        f"{root}/extents",
    )
    # fold: arrival order jitters up to 500 s behind event time, so events
    # cross chunk boundaries out of order and wait in the buffer
    fe = _events(rng, 600, 4)
    fold = pa.table({
        "k": pa.array(rng.integers(0, 9, len(fe))),
        "ts": _ts(fe),
        "tie": pa.array(np.arange(len(fe), dtype=np.int64)),
        "v": pa.array(rng.integers(0, 10_000, len(fe))),
        "arrival": pa.array(fe + rng.integers(0, 500_000_000, len(fe))),
    })
    _write_chunks(fold, f"{root}/fold", ts_col="arrival")
    for side, cols in (("left", ["view_id"]), ("right", ["buy_id", "amount"])):
        t = _events(rng, 300, 3)
        tbl = {"k": pa.array(rng.integers(0, 15, len(t))), "ts": _ts(t)}
        for c in cols:
            tbl[c] = pa.array(rng.integers(0, 1000, len(t)))
        _write_chunks(pa.table(tbl), f"{root}/{side}")
    for d in ("empty", "empty_left", "empty_right"):
        os.makedirs(f"{root}/{d}")
    return {d: f"{root}/{d}" for d in os.listdir(root)}


def _route_graph(relational: bool = False) -> list:
    """Two plain branches; with ``relational``, a third branch with a
    dataset-level filter, which runs every epoch as a Ray Data plan."""
    Vaero.reset()
    src = Vaero().source("parquet", path="unused")
    src.mask("text", r"user\d+@example\.com", "<email>").sink("s3", timestamp_key="ts", filename_prefix="%Y/%m/%d/%H")
    src.filter_regexp("role", "^tool$").sink("s3", timestamp_key="ts", filename_prefix="%Y/%m/%d")
    if relational:
        src.filter_expr("turn_idx >= 2").sink("s3", timestamp_key="ts", filename_prefix="%Y/%m/%d")
    return Vaero.start()


def _text_len(tbl: pa.Table) -> pa.Table:
    return tbl.append_column("tlen", pc.utf8_length(tbl.column("text")))


SESSION_AGGS = [AggSpec(None, "count", "n"), AggSpec("ts", "min", "start_ts"), AggSpec("value", "sum", "total")]
EXTENT_AGGS = [AggSpec(None, "count", "n"), AggSpec("ts", "min", "start_ts"), AggSpec("end_us", "max", "end_us")]


def _job(name: str, inputs: dict, base: str, empty: bool = False, **kw) -> EpochDriver:
    def src(d: str) -> str:
        return inputs["empty" if empty else d]

    dirs = dict(out_dir=f"{base}/out", ckpt_dir=f"{base}/ckpt", **kw)
    if name.startswith("windowed"):
        window = {
            "windowed": {},
            "windowed-sliding": dict(slide_s=300),
            "windowed-transform": dict(
                transform=_text_len, aggs=[AggSpec("tlen", "sum", "chars"), AggSpec("tlen", "mean", "mean_chars")]
            ),
        }[name]
        spec = {"aggs": [AggSpec(None, "count", "n_turns"), AggSpec("ts", "max", "last_ts")], **window, **dirs}
        return StreamingWindowedJob(
            src("turns"), keys=["conv_id"], size_s=600, allowed_lateness_s=30, **spec
        )
    if name in ("transform", "transform-relational"):
        return StreamingTransformJob(src("turns"), graph=_route_graph(name == "transform-relational"), **dirs)
    if name == "stitch":
        return StreamingStitchJob(src("turns"), gap_s=1800, allowed_lateness_s=60, **dirs)
    if name == "session-point":
        return StreamingSessionJob(
            src("events"), key="user_id", aggs=SESSION_AGGS, gap_s=1800, **dirs
        )
    if name == "session-extent":
        return StreamingSessionJob(
            src("extents"), key="user_id", aggs=EXTENT_AGGS, end_col="end_us", gap_s=0, **dirs
        )
    if name == "fold":
        return StreamingFoldJob(
            src("fold"), key_col="k", ts_col="ts", tie_col="tie", val_col="v", allowed_lateness_s=600,
            **dirs,
        )
    if name in ("join", "join-outer"):
        outer = dict(join_type="left_outer", left_id_col="view_id") if name == "join-outer" else {}
        return StreamingJoinJob(
            inputs["empty_left" if empty else "left"], inputs["empty_right" if empty else "right"],
            key="k", within_s=600, left_cols=["view_id"], right_cols=["buy_id", "amount"],
            **outer, **dirs,
        )
    raise ValueError(name)


JOBS = ["windowed", "transform", "transform-relational", "stitch", "session-point", "session-extent", "fold", "join"]
KEYED = ["stitch", "session-point", "session-extent", "fold", "join", "join-outer"]
# every job at every size runs on KeyedStep but a route job with a relational branch
STEPPED = KEYED + ["windowed", "windowed-sliding", "windowed-transform", "transform"]


@pytest.fixture(scope="module")
def clean_runs(inputs, tmp_path_factory) -> dict:
    """An uninterrupted run of each job, by name (built on first use)."""
    root = str(tmp_path_factory.mktemp("driver_clean"))
    runs: dict = {}

    def get(name: str) -> str:
        if name not in runs:
            runs[name] = f"{root}/{name}"
            _job(name, inputs, runs[name]).run()
        return runs[name]

    return get


def _snapshot(base: str) -> dict:
    """relative path -> bytes of every output, state and manifest file
    under ``base``, with ``base`` itself written as ``<base>``."""
    out = {}
    for sub in ("out", "ckpt/state", "ckpt/manifests"):
        for f in glob.glob(f"{base}/{sub}/**/*", recursive=True):
            if os.path.isfile(f):
                with open(f, "rb") as fh:
                    out[os.path.relpath(f, base)] = fh.read().replace(base.encode(), b"<base>")
    return out


def _metrics(ckpt_dir: str) -> list[dict]:
    path = f"{ckpt_dir}/metrics.jsonl"
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _assert_one_record_per_epoch(job: EpochDriver) -> None:
    recs = _metrics(job.ckpt_dir)
    assert [r["epoch"] for r in recs] == job.store.committed_epochs()
    for rec in recs:
        assert COMMON_KEYS <= set(rec), COMMON_KEYS - set(rec)
        m = job.store.load(rec["epoch"])
        assert rec["op"] == m.extra["op"] == job.op
        assert (rec["rows_in"], rec["rows_late"], rec["rows_out"], rec["state_rows"], rec["watermark_us"]) == (
            m.rows_in, m.rows_late, m.rows_out, m.state_rows, m.watermark_us,
        )
        written = [f for p in (*m.partitions.values(), *m.state_partitions.values()) for f in p["files"]]
        assert rec["files_written"] == len(written)


class Killed(Exception):
    pass


def _kill_in_step(delete_state: bool):
    def install(monkeypatch, job_cls):
        real = job_cls.epoch_step

        def killed(self, c):
            res = real(self, c)
            if delete_state:
                for part in res.state_partitions.values():
                    for f in part["files"]:
                        os.remove(f)
            raise Killed

        monkeypatch.setattr(job_cls, "epoch_step", killed)

    return install


def _kill_before_rename(monkeypatch, job_cls):
    real = os.replace

    def replace(src, dst):
        if src.endswith(".json.tmp"):
            raise Killed
        return real(src, dst)

    monkeypatch.setattr(checkpoint.os, "replace", replace)


def _kill_after_rename(monkeypatch, job_cls):
    real = os.replace

    def replace(src, dst):
        real(src, dst)
        if src.endswith(".json.tmp"):
            raise Killed

    monkeypatch.setattr(checkpoint.os, "replace", replace)


KILLS = {
    "after-output": _kill_in_step(delete_state=True),
    "before-commit": _kill_in_step(delete_state=False),
    "before-rename": _kill_before_rename,
    "after-rename": _kill_after_rename,
}


@pytest.mark.parametrize("kill", sorted(KILLS))
@pytest.mark.parametrize("name", JOBS)
def test_kill_resume_is_byte_identical(name, kill, inputs, clean_runs, tmp_path, ray_session):
    clean = clean_runs(name)
    m = checkpoint.CheckpointStore(f"{clean}/ckpt").load(KILL_EPOCH)
    assert m.partitions or m.state_partitions  # the killed epoch writes files

    base = str(tmp_path / "run")
    job = _job(name, inputs, base)
    for _ in range(KILL_EPOCH):
        job.run_epoch()
    with pytest.MonkeyPatch.context() as mp:
        KILLS[kill](mp, type(job))
        with pytest.raises(Killed):
            job.run_epoch()
    assert job.store.committed_epochs() == list(range(KILL_EPOCH + (kill == "after-rename")))
    if kill == "before-rename":
        assert os.path.exists(f"{base}/ckpt/manifests/epoch-{KILL_EPOCH:08d}.json.tmp")

    resumed = _job(name, inputs, base)
    resumed.run()
    got, want = _snapshot(base), _snapshot(clean)
    assert sorted(got) == sorted(want)
    assert [p for p in want if got[p] != want[p]] == []
    _assert_one_record_per_epoch(resumed)


def test_a_relational_branch_keeps_the_plain_branches_files(clean_runs, ray_session):
    """A route graph with a relational branch runs each epoch as a Ray
    Data plan; its plain branches commit the paths, manifest keys and
    bytes that the task step commits for them in a graph without it."""

    def files(base: str) -> set:
        store = checkpoint.CheckpointStore(f"{base}/ckpt")
        return {
            (e, key, os.path.relpath(f, base), sha)
            for e in store.committed_epochs()
            for key, p in store.load(e).partitions.items()
            for f, sha in zip(p["files"], p["sha256"])
        }

    plain, mixed = clean_runs("transform"), clean_runs("transform-relational")
    assert {r["step"] for r in _metrics(f"{mixed}/ckpt")} == {"dataset"}
    relational = {f for f in files(mixed) if f[1].startswith("b2_")}
    assert relational and files(plain) == files(mixed) - relational


@pytest.mark.parametrize("name", ["windowed", "transform", "stitch", "session-point", "fold", "join"])
def test_one_complete_metrics_record_per_epoch(name, inputs, clean_runs, tmp_path, ray_session):
    clean = _job(name, inputs, clean_runs(name))
    assert len(clean.store.committed_epochs()) >= N_CHUNKS
    _assert_one_record_per_epoch(clean)
    # every epoch of these small streams is a task step, which times its phases
    for rec in _metrics(clean.ckpt_dir):
        assert rec["step"] == "task"
        assert None not in [rec[k] for k in step.PHASES], rec

    # a stream with no input: its only epoch is an empty finalize epoch
    # (a transform job has no finalize epoch, so it commits none)
    empty = _job(name, inputs, str(tmp_path / "empty"), empty=True)
    manifests = empty.run()
    assert len(manifests) == (0 if name == "transform" else 1)
    _assert_one_record_per_epoch(empty)


@pytest.mark.parametrize("name", ["windowed", "join"])
def test_input_directory_named_with_glob_characters(name, inputs, clean_runs, tmp_path, ray_session):
    """An input directory whose name holds ``[`` is listed literally: the
    job commits what it commits reading the same files from a plain-named
    directory."""
    copies = {d: shutil.copytree(inputs[d], str(tmp_path / f"in[{d}]x")) for d in ("turns", "left", "right")}
    job = _job(name, {**inputs, **copies}, str(tmp_path / "run"))
    job.run()
    want = _fingerprint(f"{clean_runs(name)}/ckpt")
    assert len(want) == N_CHUNKS + 1 and sum(e[4] for e in want) > 0
    assert _fingerprint(job.ckpt_dir) == want


ONE_TASK, TASK_PER_FILE = 1 << 62, -1  # step.SMALL_EPOCH_BYTES


@pytest.mark.parametrize("name", STEPPED)
def test_keyed_jobs_run_no_ray_data_execution(name, inputs, tmp_path, monkeypatch, ray_session):
    """At the default budget and at one map task per file."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    real = StreamingExecutor.execute

    def counted(self, *a, **kw):
        calls.append(name)
        return real(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    for budget in (step.SMALL_EPOCH_BYTES, TASK_PER_FILE):
        monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", budget)
        job = _job(name, inputs, f"{tmp_path}/{budget}")
        assert len(job.run()) == N_CHUNKS + (name != "transform")  # a route job has no finalize epoch
        assert sum(m.rows_out for m in (job.store.load(e) for e in job.store.committed_epochs())) > 0
        assert {r["step"] for r in _metrics(job.ckpt_dir)} == {"task"}
    assert calls == []


@pytest.mark.parametrize("name", STEPPED)
def test_keyed_task_counts_write_identical_bytes(name, inputs, tmp_path, monkeypatch, ray_session):
    """One map and one reduce task per epoch, or one map task per file
    and one reduce task per written file: the same bytes. Epochs claim
    two files, and a bound of 40 rows per file splits each table into as
    many files as the row rule gives for the epoch's live rows (twice
    over for the sliding windows) and carried state, more than the three
    that ``num_partitions=3`` allowed before the rule stood alone."""
    groups, n_files = [], []
    real_groups, real_files = driver._task_groups, driver.file_partitions

    def recorded(*args):
        out = real_groups(*args)
        groups.append(len(out[0]))
        return out

    def counted(*args):
        n_files.append(real_files(*args))
        return n_files[-1]

    monkeypatch.setattr(driver, "_task_groups", recorded)
    monkeypatch.setattr(driver, "file_partitions", counted)
    monkeypatch.setattr(driver, "ROW_GROUP_ROWS", 40)
    fanout = 2 if name == "windowed-sliding" else 1  # size_s / slide_s
    got = {}
    for budget in (ONE_TASK, TASK_PER_FILE):
        monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", budget)
        groups.clear()
        n_files.clear()
        job = _job(name, inputs, f"{tmp_path}/{budget}", max_files_per_epoch=2)
        manifests = job.run()
        got[budget] = _fingerprint(job.ckpt_dir)
        prev_state = [0] + [m.state_rows for m in manifests[:-1]]
        assert n_files == [max(1, -(-(m.rows_in * fanout + s) // 40)) for m, s in zip(manifests, prev_state)]
        if budget == ONE_TASK:
            assert max(groups) == 1
        else:
            assert max(groups) > 1
    assert sum(e[4] for e in got[ONE_TASK]) > 0
    assert max(n_files) > 3
    assert got[ONE_TASK] == got[TASK_PER_FILE]


@pytest.mark.parametrize("name", STEPPED)
def test_kill_resume_switching_task_counts_is_byte_identical(
    name, inputs, clean_runs, tmp_path, monkeypatch, ray_session
):
    """Epochs up to the kill run one map and one reduce task; the resume
    runs one Ray map task per file."""
    clean = clean_runs(name)
    base = str(tmp_path / "run")
    monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", ONE_TASK)
    job = _job(name, inputs, base)
    for _ in range(KILL_EPOCH):
        job.run_epoch()
    with pytest.MonkeyPatch.context() as mp:
        KILLS["before-commit"](mp, type(job))
        with pytest.raises(Killed):
            job.run_epoch()

    monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", TASK_PER_FILE)
    _job(name, inputs, base).run()
    got, want = _snapshot(base), _snapshot(clean)
    assert sorted(got) == sorted(want)
    assert [p for p in want if got[p] != want[p]] == []


@pytest.mark.parametrize("name", KEYED)
def test_resume_from_state_in_one_file_per_bucket(name, inputs, clean_runs, tmp_path, monkeypatch, ray_session):
    """Epochs up to the kill write one file per non-empty one of three
    hash buckets (the layout before files were sized by rows); the
    resumed run reads that state and writes the clean run's bytes from
    then on, at most one output and one state file per table. The early
    epochs hold the clean run's rows in other files."""
    clean = _fingerprint(f"{clean_runs(name)}/ckpt")
    base = str(tmp_path / "run")
    with monkeypatch.context() as m:
        m.setattr(driver, "file_partitions", lambda rows_in, lineage_rows: 3)
        job = _job(name, inputs, base)
        for _ in range(KILL_EPOCH + 1):
            job.run_epoch()
    old = _fingerprint(f"{base}/ckpt")
    assert max(len(e[6]["state"]) for e in old) > 2  # fold and join carry two state tables
    _job(name, inputs, base).run()
    got = _fingerprint(f"{base}/ckpt")
    assert [e[:6] + (e[7],) for e in got] == [e[:6] + (e[7],) for e in clean]
    assert got[KILL_EPOCH + 1 :] == clean[KILL_EPOCH + 1 :]
    assert max(len(e[6]["out"]) for e in clean) <= 1 and max(len(e[6]["state"]) for e in clean) <= 2


@pytest.mark.parametrize("name", ["windowed", "transform", "stitch"])
def test_a_small_epoch_starts_no_ray_task(name, inputs, tmp_path, monkeypatch):
    """A window or route step, and a keyed epoch of one map and one reduce
    task, run in the job's process: starting a Ray task fails the run."""

    def refuse(*a, **kw):
        raise AssertionError("a Ray task was started")

    for mod, attr in ((RemoteFunction, "_remote"), (step, "remote"), (ray, "remote")):
        monkeypatch.setattr(mod, attr, refuse)
    job = _job(name, inputs, str(tmp_path))
    manifests = job.run()
    assert len(manifests) == N_CHUNKS + (name != "transform")  # windowed and stitch end with a finalize epoch
    assert sum(m.rows_out for m in manifests) > 0
    assert {r["step"] for r in _metrics(job.ckpt_dir)} == {"task"}


def test_an_over_budget_keyed_epoch_fans_out_to_ray_tasks(inputs, tmp_path, monkeypatch, ray_session):
    """One map task per input and state file, and one reduce task per
    file the row rule gives each table: with a bound of 10 rows, more
    than the 8 that ``num_partitions`` allowed by default before the rule
    stood alone. The epochs write the bytes one map and one reduce task
    write."""
    started: Counter = Counter()
    real = RemoteFunction._remote

    def counted(self, *a, **kw):
        started[self._function.__name__] += 1
        return real(self, *a, **kw)

    monkeypatch.setattr(RemoteFunction, "_remote", counted)
    monkeypatch.setattr(driver, "ROW_GROUP_ROWS", 10)
    got, tasks = {}, {}
    for budget in (ONE_TASK, TASK_PER_FILE):
        monkeypatch.setattr(step, "SMALL_EPOCH_BYTES", budget)
        started.clear()
        job = _job("stitch", inputs, f"{tmp_path}/{budget}")
        manifests = job.run()
        got[budget], tasks[budget] = _fingerprint(job.ckpt_dir), dict(started)
    prev = [None] + manifests[:-1]
    maps = [len(m.input_files) + (len(p.state_files()) if p else 0) for m, p in zip(manifests, prev)]
    files = [max(1, -(-(m.rows_in + (p.state_rows if p else 0)) // 10)) for m, p in zip(manifests, prev)]
    assert tasks == {ONE_TASK: {}, TASK_PER_FILE: {"_map_task": sum(maps), "_reduce_task": sum(files)}}
    assert len(manifests) == N_CHUNKS + 1 and min(maps) > 0 and max(files) > 8
    assert sum(e[4] for e in got[ONE_TASK]) > 0
    assert got[ONE_TASK] == got[TASK_PER_FILE]


@pytest.mark.parametrize("name", ["stitch", "session-point", "fold", "join", "windowed", "transform"])
def test_keyed_jobs_reject_read_options_the_task_read_ignores(name, inputs, tmp_path):
    with pytest.raises(ValueError, match="'filter'"):
        _job(name, inputs, str(tmp_path / "bad"), extra_read_kw={"filter": None})
    _job(name, inputs, str(tmp_path / "ok"), extra_read_kw={"columns": None})


def test_only_the_driver_commits():
    """No streaming module but driver.py builds an EpochManifest or calls
    ``.commit(`` / ``.append_metrics(`` (checkpoint.py defines them and
    parses committed manifests)."""
    import vaero_ray.streaming as pkg

    offenders = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(pkg.__file__), "*.py"))):
        if os.path.basename(path) in ("driver.py", "checkpoint.py"):
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "EpochManifest") or (
                isinstance(f, ast.Attribute) and f.attr in ("EpochManifest", "commit", "append_metrics")
            ):
                offenders.append(f"{os.path.basename(path)}:{node.lineno}")
    assert offenders == []


def test_keyed_reduce_runs_without_pandas():
    """The driver, the windowed and keyed jobs, the compactor and the
    canonical writer import no pandas and the writer has no DataFrame branch
    (``pandas_metadata``), and no ``per_bucket`` name is left in the
    streaming package: a reduce task calls its job's ``per_task`` once on
    an Arrow table."""
    import vaero_ray.streaming as pkg

    root = os.path.dirname(pkg.__file__)
    arrow_only = (
        "driver.py", "job.py", "stitch_job.py", "fold_job.py", "session_job.py", "join_job.py", "compact.py", "sink.py"
    )
    imports, per_bucket = [], []
    for path in sorted(glob.glob(os.path.join(root, "*.py"))):
        name = os.path.basename(path)
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                mods = []
            if name in arrow_only:
                imports += [f"{name}:{node.lineno}" for m in mods if m.split(".")[0] == "pandas"]
                if isinstance(node, ast.Attribute) and node.attr == "pandas_metadata":
                    imports.append(f"{name}:{node.lineno}")
            if (isinstance(node, ast.Name) and node.id == "per_bucket") or (
                isinstance(node, ast.FunctionDef) and node.name == "per_bucket"
            ):
                per_bucket.append(f"{name}:{node.lineno}")
    assert imports == [] and per_bucket == []
