"""Open-loop streaming benchmark for the vaero_ray exactly-once jobs.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

One run: build (or reuse) the seeded chunk files, start a Ray session
with ``num_cpus`` = the CPUs this process may use, construct the job,
warm the workers up with a throwaway job, start the arrival generator (``gen.py``), trigger ``run_epoch`` every
``trigger_s`` seconds for ``--seconds`` seconds, drain, finalize, check
the committed output against a single-process reference, and print one
JSON object as the last line of stdout. ``--trace 1`` wraps the layer
calls (``spans.py``) and reports per-layer metrics instead of the
end-to-end ones. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
RAY_TMP = ROOT / ".pbray"  # short: Ray's socket paths must fit in 107 bytes
SETUP_REPS = 3
DRAIN_S = 30.0  # bound on the post-window drain
START_DELAY_S = 0.5  # generator start-up allowance before the first due time
LAG_WARN_S = 0.1
CLK_TCK = os.sysconf("SC_CLK_TCK")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-reps", type=int, default=SETUP_REPS)
    p.add_argument("--smoke", action="store_true", help="run every workload briefly and check outputs")
    return p.parse_args(argv)


# -- process tree ---------------------------------------------------------
def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int, exclude: set[int]) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            if c not in exclude:
                out.append(c)
                todo.append(c)
    return out


def rss_bytes(pids: list[int]) -> int:
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for p in pids:
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * page
        except OSError:
            pass
    return total


def cpu_ticks(pids: list[int]) -> dict[int, int]:
    """utime + stime, in clock ticks, of each process in ``pids``, all
    threads included. The kernel leaves out time stolen by the hypervisor."""
    out = {}
    for p in pids:
        try:
            with open(f"/proc/{p}/stat") as fh:
                f = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[p] = int(f[11]) + int(f[12])
    return out


class RssSampler(threading.Thread):
    """Peak summed RSS of this process and its descendants (the Ray
    processes), excluding the generator."""

    def __init__(self, exclude: set[int], period_s: float = 0.25):
        super().__init__(daemon=True)
        self.exclude, self.period_s = exclude, period_s
        self.peak = 0
        self.seen: set[int] = set()
        self._halt = threading.Event()

    def sample(self) -> None:
        pids = [os.getpid()] + descendants(os.getpid(), self.exclude)
        self.seen.update(pids[1:])
        self.peak = max(self.peak, rss_bytes(pids))

    def run(self) -> None:
        while not self._halt.is_set():
            self.sample()
            self._halt.wait(self.period_s)

    def stop(self) -> None:
        self._halt.set()
        self.join()
        self.sample()


def reap(pids: set[int], timeout_s: float = 15.0) -> None:
    """Wait for every process in ``pids`` to end; kill what outlives
    ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        alive = {p for p in pids if os.path.exists(f"/proc/{p}") and not _zombie(p)}
        if not alive:
            return
        time.sleep(0.1)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


# -- Ray session ----------------------------------------------------------
def nproc() -> int:
    """CPUs as ``nproc`` counts them: the affinity mask, overridden by
    OMP_NUM_THREADS and capped by OMP_THREAD_LIMIT."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    limit = os.environ.get("OMP_THREAD_LIMIT", "")
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def ray_start(ncpu: int) -> tuple[float, float]:
    """ray.init + worker warm-up; returns (init_s, warm_s)."""
    import ray
    import ray.data as rd

    t0 = time.perf_counter()
    kw = dict(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        # keep worker processes that an epoch started alive through the idle
        # time before the next trigger. By default the raylet kills idle
        # workers above num_cpus after 1 s, and the next epoch pays a fresh
        # Python worker start (about 1 s of CPU) at random.
        _system_config={"idle_worker_killing_time_threshold_ms": 600_000},
    )
    if len(str(RAY_TMP)) + 70 <= 107:
        kw["_temp_dir"] = str(RAY_TMP)
    ray.init(**kw)
    t1 = time.perf_counter()
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    rd.range(4 * ncpu, override_num_blocks=4 * ncpu).map_batches(lambda b: b).materialize()
    return t1 - t0, time.perf_counter() - t1


def ray_stop(settle_s: float) -> None:
    import ray

    # lets Ray Data's background stats thread settle; shutting down under
    # it can crash the core worker at exit
    time.sleep(settle_s)
    ray.shutdown()


def warm_up(w, fixture_dir: str, n_files: int, warm_dir: Path) -> None:
    """Two epochs of a throwaway job of the same workload, each over one
    trigger's worth of files: the stream's first, then its last. The Ray
    workers an epoch of that size needs then exist, and every path of an
    epoch (state read, closed output, state write) has run, before timing
    starts. Its output is discarded."""
    from workloads import build_job, chunk_name

    input_dir = warm_dir / "input"
    input_dir.mkdir(parents=True)
    job = build_job(w.name, str(input_dir), str(warm_dir / "out"), str(warm_dir / "ckpt"))
    k = min(n_files // 2, max(1, round(w.rate_files_per_s * w.trigger_s)))
    for files in (range(k), range(n_files - k, n_files)):
        for i in files:
            shutil.copyfile(os.path.join(fixture_dir, chunk_name(i)), input_dir / chunk_name(i))
        job.run_epoch()


# -- tracing --------------------------------------------------------------
def install_tracer(name: str, job, counter_dir: str):
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from spans import RowCounter, Tracer

    tr = Tracer()
    tr.count_executions(StreamingExecutor, "execute")
    # class attributes, not instance ones: Ray pickles the job into task
    # closures, and the wrappers must not travel with it
    tr.wrap(type(job), "pending_files", lambda a, kw: "checkpoint.pending_scan")
    tr.wrap(type(job.store), "commit", lambda a, kw: "checkpoint.commit")
    dataset_spans = {
        "route_stream": {"materialize": "io.read", "take_all": "sink.write"},
        "window_stream": {
            "schema": "windows.schema",
            "materialize": "windows.merge",
            "max": "windows.split",
            "sum": "windows.split",
        },
        "stitch_stream": {"materialize": "io.read", "max": "epoch.watermark", "take_all": "keyed.exchange"},
    }[name]
    for attr, span in dataset_spans.items():
        tr.wrap(rd.Dataset, attr, lambda a, kw, span=span: span)
    counter = None
    if name == "route_stream":
        import vaero_ray.streaming.transform_job as mod
    elif name == "stitch_stream":
        import vaero_ray.streaming.stitch_job as mod
    else:
        import vaero_ray.streaming.job as mod

        out_dir = job.out_dir

        def sink_or_state(a, kw):
            base = a[1] if len(a) > 1 else kw["base_dir"]
            return "sink.write" if base == out_dir else "state.write"

        tr.wrap(mod, "write_deterministic", sink_or_state)
        os.makedirs(counter_dir, exist_ok=True)
        counter = RowCounter(counter_dir)
        partial_aggregate = mod.partial_aggregate

        def counted(*a, **kw):
            return partial_aggregate(*a, **kw).map_batches(
                counter, batch_format="pyarrow", zero_copy_batch=True
            )

        tr.replace(mod, "partial_aggregate", counted)
    tr.wrap(mod, "_read_pq", lambda a, kw: "io.plan")
    return tr, counter


# -- one run --------------------------------------------------------------
def p90(xs: list[float]) -> float:
    s = sorted(xs)
    return s[max(0, math.ceil(0.9 * len(s)) - 1)]


def run(args) -> dict:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from workloads import CHECKS, WORKLOADS, build_job, cached_stream, chunk_name, read_manifests

    w = WORKLOADS[args.workload]
    marks = [("start", time.monotonic())]  # phase boundaries, for the details line
    n_files = max(1, round(w.rate_files_per_s * args.seconds))
    fixture_dir, turns = cached_stream(w, args.seed, n_files, str(WORK / "fixtures"))

    run_dir = WORK / "runs" / w.name
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(RAY_TMP, ignore_errors=True)
    staging, input_dir = run_dir / "staging", run_dir / "input"
    out_dir, ckpt_dir = str(run_dir / "out"), str(run_dir / "ckpt")
    staging.mkdir(parents=True)
    input_dir.mkdir()
    plan = []
    for i in range(n_files):
        name = chunk_name(i)
        shutil.copyfile(os.path.join(fixture_dir, name), staging / name)
        plan.append([str(staging / name), str(input_dir / name), (i + 0.5) / w.rate_files_per_s, turns[i]])
    plan_path, log_path = run_dir / "plan.json", run_dir / "gen_log.json"
    plan_path.write_text(json.dumps(plan))
    marks.append(("inputs", time.monotonic()))

    ncpu = nproc()
    setups = []
    job = None
    for rep in range(args.setup_reps):
        t = time.perf_counter()
        init_s, warm_s = ray_start(ncpu)
        tj = time.perf_counter()
        job = build_job(w.name, str(input_dir), out_dir, ckpt_dir)
        job_s = time.perf_counter() - tj
        setups.append({"total": time.perf_counter() - t, "ray_init": init_s, "warm": warm_s, "job_init": job_s})
        if rep + 1 < args.setup_reps:
            ray_stop(0.0)

    marks.append(("setup", time.monotonic()))
    warm_up(w, fixture_dir, n_files, run_dir / "warm")
    marks.append(("warm", time.monotonic()))

    tracer = counter = None
    if args.trace:
        tracer, counter = install_tracer(w.name, job, str(run_dir / "counts"))

    # flush the fixture copies and the previous run's deletions now, so the
    # write-back does not stall the epochs' fsync'd manifest commits
    os.sync()
    t0 = time.monotonic() + START_DELAY_S
    gen = subprocess.Popen([sys.executable, str(HERE / "gen.py"), str(plan_path), str(log_path), repr(t0)])
    sampler = RssSampler(exclude={gen.pid})
    sampler.start()

    polls = []  # one record per run_epoch call
    committed: dict[str, float] = {}
    partial_rows: dict[int, int] = {}
    state_bytes: dict[int, int] = {}
    deadline = t0 + args.seconds + DRAIN_S
    k = 0
    while len(committed) < n_files and time.monotonic() < deadline:
        wait = t0 + k * w.trigger_s - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        poll = len(polls)
        c0 = cpu_ticks([os.getpid()] + descendants(os.getpid(), {gen.pid}))
        s = time.monotonic()
        if tracer is not None:
            with tracer.span("epoch.run_epoch", poll=poll):
                m = job.run_epoch()
        else:
            m = job.run_epoch()
        e = time.monotonic()
        c1 = cpu_ticks([os.getpid()] + descendants(os.getpid(), {gen.pid}))
        polls.append({"start": s, "end": e, "cpu": sum(t - c0.get(p, 0) for p, t in c1.items()) / CLK_TCK,
                      "files": [os.path.basename(f) for f in m.input_files] if m else None,
                      "rows_in": m.rows_in if m else 0, "new": len(set(c1) - set(c0))})
        if m is not None:
            for f in m.input_files:
                committed[os.path.basename(f)] = e
            if counter is not None:
                partial_rows[poll] = counter.drain()
            if tracer is not None:
                state_bytes[poll] = sum(
                    os.path.getsize(f) for p in m.state_partitions.values() for f in p["files"]
                )
        k = max(k + 1, math.floor((e - t0) / w.trigger_s))
    marks.append(("stream", time.monotonic()))
    try:
        gen.wait(timeout=max(1.0, t0 + n_files / w.rate_files_per_s + 10 - time.monotonic()))
    except subprocess.TimeoutExpired:
        gen.kill()
        gen.wait()
    sampler.stop()
    if tracer is not None:
        tracer.restore()
    if w.name != "route_stream":
        job.run_epoch(finalize=True)
    ray_stop(1.5)
    reap(sampler.seen | set(descendants(os.getpid(), set())))
    marks.append(("shutdown", time.monotonic()))

    gen_log = json.loads(log_path.read_text()) if log_path.exists() else []
    landed = {r["file"]: r for r in gen_log}
    lat = [committed[f] - r["due"] for f, r in landed.items() if f in committed]
    busy = [p for p in polls if p["files"]]
    # turns per CPU-second of the job's processes, over the busy epochs
    # after the first (which starts with no carried state). CPU time
    # leaves out the time the hypervisor gives to other guests, which on a
    # shared host moves wall time by tens of percent between runs.
    steady = busy[1:] or busy
    turns_steady = sum(p["rows_in"] for p in steady)
    capacity = turns_steady / sum(p["cpu"] for p in steady) if steady else 0.0
    capacity_wall = turns_steady / sum(p["end"] - p["start"] for p in steady) if steady else 0.0
    manifests = read_manifests(ckpt_dir)
    stream = pa.concat_tables([pq.read_table(os.path.join(fixture_dir, chunk_name(i))) for i in range(n_files)])
    mismatch = CHECKS[w.name](stream, manifests) + sum(m["rows_late"] for m in manifests)
    uncommitted = sum(1 for f in landed if f not in committed)
    gen_lag = max((r["landed"] - r["due"] for r in gen_log), default=0.0)
    marks.append(("check", time.monotonic()))

    e2e = {
        "commit_latency_p50_s": (statistics.median(lat) if lat else 0.0, "s"),
        "commit_latency_p90_s": (p90(lat) if lat else 0.0, "s"),
        "capacity_turns_per_s": (capacity, "turns/s"),
        "setup_s": (statistics.median(s["total"] for s in setups), "s"),
        "peak_rss_mb": (sampler.peak / 2**20, "MB"),
    }
    health = {
        "output_mismatch_rows": mismatch,
        "uncommitted_file_ratio": uncommitted / max(1, len(landed)),
        "gen_lag_max_s": gen_lag,
        "generator_behind": gen_lag > LAG_WARN_S,
        "files_landed": len(landed),
        "latency_samples": len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > p90(lat)) if lat else 0,
        "epochs": len(busy),
        "epoch_wall_s": [p["end"] - p["start"] for p in busy],
        "epoch_turns": [p["rows_in"] for p in busy],
        "epoch_cpu_s": [p["cpu"] for p in busy],
        "epoch_new_procs": [p["new"] for p in busy],
        "capacity_wall_turns_per_s": capacity_wall,
        "num_cpus": ncpu,
        "arrival_files_per_s": w.rate_files_per_s,
        "arrival_turns_per_s": sum(turns) / (n_files / w.rate_files_per_s),
        "trigger_s": w.trigger_s,
        "phase_s": {b[0]: b[1] - a[1] for a, b in zip(marks, marks[1:])},
    }
    if gen_lag > LAG_WARN_S:
        print(f"warning: generator ran up to {gen_lag:.3f} s behind its schedule", file=sys.stderr)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    if tracer is not None:
        layer = layer_metrics(w.name, tracer, polls, manifests, setups, gen_log, committed,
                              partial_rows, state_bytes, ckpt_dir, str(input_dir))
        layer.update({
            "check.output_mismatch_rows": (mismatch, "rows"),
            "check.uncommitted_file_ratio": (health["uncommitted_file_ratio"], "ratio"),
            "harness.gen_lag_max_s": (gen_lag, "s"),
        })
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    info = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            **{k: v for k, (v, _) in e2e.items()}, **health}
    return {
        "info": info,
        "result": {
            "correct": mismatch == 0 and uncommitted == 0 and len(landed) == n_files,
            "attempted": max(1, len(landed)),
            "failed": uncommitted + (n_files - len(landed)),
            "metrics": metrics,
        },
    }


def layer_metrics(name, tracer, polls, manifests, setups, gen_log, committed, partial_rows,
                  state_bytes, ckpt_dir, input_dir) -> dict:
    busy = {i for i, p in enumerate(polls) if p["files"]}
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s.poll in busy]

    def total(prefix: str) -> float:
        return sum(s.end - s.start for _, s in spans if s.name.startswith(prefix))

    # spans whose plans run a stages.keyed hash-bucket exchange: the stitch
    # job's bucketed group-by, and write_deterministic's bucketed writes
    keyed = {"route_stream": (), "window_stream": ("sink.", "state."), "stitch_stream": ("keyed.",)}[name]
    roots = [i for i, s in spans if s.parent == -1]
    scans = [s.end - s.start for _, s in spans if s.name == "checkpoint.pending_scan"]
    rows_in = sum(polls[i]["rows_in"] for i in busy)
    live = [m for m in manifests if m["input_files"]]
    state_rows = [m["state_rows"] for m in live]
    out_files = [f for m in manifests for p in m["partitions"].values() for f in p["files"]]
    prev_state = [0] + state_rows[:-1]  # state each epoch re-reads
    backlog = []
    for i in sorted(busy):
        s = polls[i]["start"]
        backlog.append(sum(1 for r in gen_log if r["landed"] <= s and committed.get(r["file"], math.inf) >= s))
    chain_rps, kept = transforms_probe(sorted(committed), input_dir)
    mdir = os.path.join(ckpt_dir, "manifests")
    n = len(busy)
    med = statistics.median
    return {
        "epoch.wall_p50_s": (med(tracer.spans[i].end - tracer.spans[i].start for i in roots), "s"),
        "epoch.self_p50_s": (med(tracer.self_time(i) for i in roots), "s"),
        "epoch.executions": (sum(tracer.executions.get(i, 0) for i in busy) / n, "count"),
        "epoch.files_mean": (sum(len(polls[i]["files"]) for i in busy) / n, "count"),
        "epoch.backlog_max_files": (max(backlog), "count"),
        "io.read_s": (total("io."), "s"),
        "io.rows_in": (rows_in, "rows"),
        "io.bytes_in": (sum(os.path.getsize(os.path.join(input_dir, f)) for f in committed), "bytes"),
        "transforms.chain_rows_per_s": (chain_rps, "rows/s"),
        "transforms.rows_kept_ratio": (kept, "ratio"),
        "windows.merge_s": (total("windows.merge") + total("windows.schema"), "s"),
        "windows.split_s": (total("windows.split"), "s"),
        "windows.partial_rows": (sum(partial_rows.values()), "rows"),
        "windows.collapse_ratio": (sum(partial_rows.values()) / rows_in, "ratio"),
        "keyed.exchange_s": (sum(total(p) for p in keyed), "s"),
        "keyed.exchange_rows": ({
            "route_stream": 0,
            "window_stream": sum(m["rows_out"] + m["state_rows"] for m in live),
            "stitch_stream": rows_in + sum(prev_state),
        }[name], "rows"),
        "sink.write_s": (total("sink."), "s"),
        "sink.files": (len(out_files), "count"),
        "sink.rows_out": (sum(m["rows_out"] for m in manifests), "rows"),
        "sink.bytes_out": (sum(os.path.getsize(f) for f in out_files), "bytes"),
        "checkpoint.commit_s": (total("checkpoint.commit"), "s"),
        "checkpoint.pending_scan_s": (med(scans), "s"),
        "checkpoint.pending_scan_first_s": (scans[0], "s"),
        "checkpoint.pending_scan_last_s": (scans[-1], "s"),
        "checkpoint.manifest_bytes": (max(os.path.getsize(os.path.join(mdir, f)) for f in os.listdir(mdir)), "bytes"),
        "state.rows_max": (max(state_rows, default=0), "rows"),
        "state.bytes_max": (max(state_bytes.values(), default=0), "bytes"),
        "state.write_s": (total("state."), "s"),
        "state.rewrite_ratio": (sum(state_rows) / rows_in, "ratio"),
        "setup.ray_init_s": (med(s["ray_init"] for s in setups), "s"),
        "setup.warm_s": (med(s["warm"] for s in setups), "s"),
        "setup.job_init_s": (med(s["job_init"] for s in setups), "s"),
        "trace.spans": (len(spans), "count"),
    }


def transforms_probe(files: list[str], input_dir: str) -> tuple[float, float]:
    """route_stream's compiled chains timed in-process over each landed
    file: (input rows per second per branch, rows kept / rows offered)."""
    import pyarrow.parquet as pq

    from vaero_ray.planner import Planner
    from workloads import route_graph

    chains = [b.compile() for b in Planner(route_graph()).plan.branches]
    offered = kept = 0
    busy = 0.0
    for f in files:
        tbl = pq.read_table(os.path.join(input_dir, f))
        for fn in chains:
            t = time.perf_counter()
            out = fn(tbl)
            busy += time.perf_counter() - t
            offered += tbl.num_rows
            kept += out.num_rows
    return offered / busy, kept / offered


# -- smoke ----------------------------------------------------------------
def smoke() -> int:
    """Every workload end to end for a few seconds, outputs checked, plus
    one traced run; prints the traced-minus-untraced difference."""
    from workloads import WORKLOADS

    ok = True
    runs = [(w, 0) for w in WORKLOADS] + [("route_stream", 1)]
    untraced = {}
    for w, trace in runs:
        cmd = [sys.executable, __file__, "--workload", w, "--seed", "1", "--seconds", "3",
               "--trace", str(trace), "--setup-reps", "1"]
        t = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        info = json.loads(lines[-2]) if res and len(lines) > 1 else {}
        good = bool(res and res["correct"] and res["metrics"])
        ok &= good
        print(f"{w:14s} trace={trace} ok={good} wall={time.monotonic() - t:.1f}s "
              f"mismatch={info.get('output_mismatch_rows')} uncommitted={info.get('uncommitted_file_ratio')} "
              f"p50={info.get('commit_latency_p50_s')} capacity={info.get('capacity_turns_per_s')}")
        if not good:
            print(proc.stderr[-3000:], file=sys.stderr)
        if trace == 0:
            untraced[w] = info
        elif info and w in untraced:
            for key in ("commit_latency_p50_s", "capacity_turns_per_s"):
                print(f"  trace overhead {key}: {info[key] - untraced[w][key]:+.4f}")
    print("smoke", "passed" if ok else "FAILED")
    return 0 if ok else 1


class Terminated(Exception):
    """SIGTERM, raised in the main thread so the run cleans up."""


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "vaero_ray" / "streaming").is_dir():
        print(f"error: no vaero_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(HERE)]
    # Ray workers import the engine and spans.RowCounter by module path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    if args.smoke:
        return smoke()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def terminate(signum, frame):
        raise Terminated(signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        out = run(args)
    except (Exception, KeyboardInterrupt):
        import traceback

        traceback.print_exc()
        import ray

        ray.shutdown()
        reap(set(descendants(os.getpid(), set())), timeout_s=5.0)
        return 1
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # skip interpreter teardown: Ray's background threads can crash the
    # process after shutdown, turning a finished run into a failed exit
    os._exit(code)
