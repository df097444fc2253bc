"""Workload definitions: input streams, job construction and the
independent single-process reference each job's committed output is
checked against.

Every workload streams chunk files cut from one
``make_transcripts`` table (schema ``conv_id, turn_idx, role, text,
tool, ts``). Conversation start times are spread over ``span_s``
seconds of event time, and rows are ordered by ``ts`` plus a seeded
jitter of at most ``JITTER_S``. Each job's allowed lateness covers
twice that jitter, so no row is ever late, and the committed output
does not depend on where epoch boundaries fall.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from vaero_ray.sources.transcripts import BASE_TS_US, make_transcripts

US = 1_000_000
JITTER_S = 10  # arrival order is ts order up to this many seconds
LATENESS_S = 2 * JITTER_S + 1  # > 2 * jitter: no row can be late
WINDOW_S = 60
STITCH_GAP_S = 120  # > any intra-conversation gap (<= 23 s) + lateness margin

# route_stream branches, shared by the job graph, the in-process chain
# probe and the reference. Branch A: user id from the email, mask the
# email, keep user/assistant turns, hourly prefix. Branch B: tool turns,
# daily prefix.
EMAIL_USER_RE = r"(?P<email_user>user\d+)@"
EMAIL_RE = r"user\d+@example\.com"
EMAIL_MASK = "<email>"
CHAT_ROLE_RE = "^(user|assistant)$"
TOOL_ROLE_RE = "^tool$"
HOURLY = "%Y/%m/%d/%H"
DAILY = "%Y/%m/%d"
WINDOW_READ_COLS = ["conv_id", "turn_idx", "ts"]
MEAN_TURNS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    rows_per_file: int
    rate_files_per_s: float  # open-loop arrival rate, ~half the seed's capacity
    trigger_s: float  # epoch trigger interval (the job's poll cadence)
    span_s: int  # event-time span over which conversations start


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "route_stream",
            rows_per_file=100,
            rate_files_per_s=11.0,
            trigger_s=1.5,
            span_s=4 * 3600,
        ),
        Workload(
            "window_stream",
            rows_per_file=40,
            rate_files_per_s=11.0,
            trigger_s=4.0,
            span_s=150,  # hundreds of conversations open at once: wide window state
        ),
        Workload(
            "stitch_stream",
            rows_per_file=60,
            rate_files_per_s=11.0,
            trigger_s=1.5,
            span_s=1800,
        ),
    ]
}


# -- input stream ---------------------------------------------------------
def make_stream(w: Workload, seed: int, n_files: int) -> list[pa.Table]:
    """The workload's stream for ``seed``, cut into ``n_files`` chunks in
    arrival order."""
    n_convs = max(1, w.rows_per_file * n_files // MEAN_TURNS)
    tbl = make_transcripts(n_convs=n_convs, mean_turns=MEAN_TURNS, seed=seed)
    rng = np.random.default_rng([seed, 0x5B])
    conv = pc.dictionary_encode(tbl.column("conv_id")).combine_chunks().indices.to_numpy()
    ts = tbl.column("ts").cast(pa.int64()).to_numpy()
    n_conv = int(conv.max()) + 1
    first = np.full(n_conv, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first, conv, ts)
    start = rng.integers(0, w.span_s * US, n_conv)
    ts = BASE_TS_US + start[conv] + (ts - first[conv])
    arrival = ts + rng.integers(-JITTER_S * US, JITTER_S * US + 1, len(ts))
    tbl = tbl.set_column(5, "ts", pa.array(ts, pa.timestamp("us")))
    tbl = tbl.take(pa.array(np.argsort(arrival, kind="stable")))
    n = tbl.num_rows
    return [tbl.slice(i * n // n_files, (i + 1) * n // n_files - i * n // n_files) for i in range(n_files)]


def cached_stream(w: Workload, seed: int, n_files: int, cache_root: str) -> tuple[str, list[int]]:
    """Write the stream's chunk files once per (workload, seed, n_files);
    returns (directory, turns per file)."""
    d = os.path.join(cache_root, f"{w.name}-r{w.rows_per_file}-t{w.span_s}-s{seed}-n{n_files}")
    meta = os.path.join(d, "turns.json")
    if os.path.exists(meta):
        with open(meta) as fh:
            return d, json.load(fh)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    turns = []
    for i, chunk in enumerate(make_stream(w, seed, n_files)):
        pq.write_table(chunk, os.path.join(d, chunk_name(i)))
        turns.append(chunk.num_rows)
    with open(meta + ".tmp", "w") as fh:
        json.dump(turns, fh)
    os.replace(meta + ".tmp", meta)
    return d, turns


def chunk_name(i: int) -> str:
    return f"chunk-{i:06d}.parquet"


# -- jobs -----------------------------------------------------------------
def route_graph() -> list:
    from vaero_ray.dsl import Vaero

    Vaero.reset()
    src = Vaero().source("parquet", path="stream")
    src.parse_regexp("text", EMAIL_USER_RE).mask("text", EMAIL_RE, EMAIL_MASK).filter_regexp(
        "role", CHAT_ROLE_RE
    ).sink("s3", timestamp_key="ts", filename_prefix=HOURLY)
    src.filter_regexp("role", TOOL_ROLE_RE).sink("s3", timestamp_key="ts", filename_prefix=DAILY)
    return Vaero.start()


def build_job(name: str, input_dir: str, out_dir: str, ckpt_dir: str):
    many = 1 << 20  # every epoch claims all landed files
    if name == "route_stream":
        from vaero_ray.streaming.transform_job import StreamingTransformJob

        return StreamingTransformJob(
            input_dir, out_dir, ckpt_dir, graph=route_graph(), max_files_per_epoch=many
        )
    if name == "window_stream":
        from vaero_ray.stages.windows import AggSpec
        from vaero_ray.streaming.job import StreamingWindowedJob

        return StreamingWindowedJob(
            input_dir,
            out_dir,
            ckpt_dir,
            keys=["conv_id"],
            aggs=[
                AggSpec(None, "count", "n_turns"),
                AggSpec("turn_idx", "max", "max_turn_idx"),
                AggSpec("ts", "max", "max_ts"),
            ],
            size_s=WINDOW_S,
            allowed_lateness_s=LATENESS_S,
            max_files_per_epoch=many,
            extra_read_kw={"columns": WINDOW_READ_COLS},
        )
    if name == "stitch_stream":
        from vaero_ray.streaming.stitch_job import StreamingStitchJob

        return StreamingStitchJob(
            input_dir,
            out_dir,
            ckpt_dir,
            gap_s=STITCH_GAP_S,
            allowed_lateness_s=LATENESS_S,
            max_files_per_epoch=many,
        )
    raise ValueError(f"unknown workload {name!r}")


# -- committed output -----------------------------------------------------
def read_manifests(ckpt_dir: str) -> list[dict]:
    mdir = os.path.join(ckpt_dir, "manifests")
    out = []
    for f in sorted(os.listdir(mdir)):
        if f.startswith("epoch-") and f.endswith(".json"):
            with open(os.path.join(mdir, f)) as fh:
                out.append(json.load(fh))
    return out


def _rows(tbl: pa.Table, cols: list[str]) -> list[tuple]:
    """Rows as tuples with timestamps as integer microseconds and every
    string type folded to ``str``."""
    out = []
    for c in cols:
        col = tbl.column(c)
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us")).cast(pa.int64())
        out.append(col.to_pylist())
    return list(zip(*out))


def _committed(manifests: list[dict], cols: list[str], with_partition: bool = False) -> Counter:
    got: Counter = Counter()
    for m in manifests:
        for key, part in m["partitions"].items():
            for f in part["files"]:
                part_key = tuple(key.split("/", 1)) if with_partition else ()
                for r in _rows(pq.read_table(f), cols):
                    got[(*part_key, *r)] += 1
    return got


def _mismatch(want: Counter, got: Counter) -> int:
    return sum((want - got).values()) + sum((got - want).values())


# -- references (one process, no Ray, no engine stage functions) ----------
def check_route(stream: pa.Table, manifests: list[dict]) -> int:
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    user_re, email_re = re.compile(EMAIL_USER_RE), re.compile(EMAIL_RE)
    chat_re, tool_re = re.compile(CHAT_ROLE_RE), re.compile(TOOL_ROLE_RE)
    want_a: Counter = Counter()
    want_b: Counter = Counter()
    for conv_id, turn_idx, role, text, tool, ts in _rows(stream, cols):
        hour = _strftime(ts, "%Y-%m-%d-%H")
        if chat_re.search(role):
            m = user_re.search(text)
            masked = email_re.sub(EMAIL_MASK, text)
            want_a[("b0_s3", hour, conv_id, turn_idx, role, masked, tool, ts, m and m.group("email_user"))] += 1
        if tool_re.search(role):
            want_b[("b1_s3", hour[:10], conv_id, turn_idx, role, text, tool, ts)] += 1
    got_a = _committed(_branch(manifests, "b0_s3"), cols + ["email_user"], with_partition=True)
    got_b = _committed(_branch(manifests, "b1_s3"), cols, with_partition=True)
    return _mismatch(want_a, got_a) + _mismatch(want_b, got_b)


def _branch(manifests: list[dict], bkey: str) -> list[dict]:
    return [
        {"partitions": {k: v for k, v in m["partitions"].items() if k.startswith(bkey + "/")}}
        for m in manifests
    ]


def _strftime(ts_us: int, fmt: str) -> str:
    import datetime as dt

    return (dt.datetime(1970, 1, 1) + dt.timedelta(microseconds=ts_us)).strftime(fmt)


def check_window(stream: pa.Table, manifests: list[dict]) -> int:
    size = WINDOW_S * US
    ts = stream.column("ts").cast(pa.int64()).to_numpy()
    t = pa.table(
        {
            "conv_id": stream.column("conv_id"),
            "window_start": pa.array((ts // size) * size, pa.int64()),
            "turn_idx": stream.column("turn_idx"),
            "ts": pa.array(ts, pa.int64()),
        }
    )
    ref = t.group_by(["conv_id", "window_start"]).aggregate(
        [("turn_idx", "count"), ("turn_idx", "max"), ("ts", "max")]
    )
    want = Counter(
        zip(
            ref.column("conv_id").to_pylist(),
            ref.column("window_start").to_pylist(),
            ref.column("turn_idx_count").to_pylist(),
            ref.column("turn_idx_max").to_pylist(),
            ref.column("ts_max").to_pylist(),
        )
    )
    got = _committed(manifests, ["conv_id", "window_start", "n_turns", "max_turn_idx", "max_ts"])
    return _mismatch(want, got)


def check_stitch(stream: pa.Table, manifests: list[dict]) -> int:
    convs: dict[str, list] = {}
    for conv_id, turn_idx, role, text, ts in _rows(stream, ["conv_id", "turn_idx", "role", "text", "ts"]):
        convs.setdefault(conv_id, []).append((turn_idx, role, text, ts))
    want: Counter = Counter()
    for conv_id, turns in convs.items():
        turns.sort(key=lambda r: r[0])
        roles = [r[1] for r in turns]
        want[
            (
                conv_id,
                len(turns),
                roles.count("user"),
                roles.count("assistant"),
                roles.count("tool"),
                "\n".join(f"{r[1]}: {r[2]}" for r in turns),
                min(r[3] for r in turns),
                max(r[3] for r in turns),
            )
        ] += 1
    got = _committed(
        manifests,
        ["conv_id", "n_turns", "n_user", "n_assistant", "n_tool", "transcript", "first_ts", "last_ts"],
    )
    return _mismatch(want, got)


CHECKS = {"route_stream": check_route, "window_stream": check_window, "stitch_stream": check_stitch}
