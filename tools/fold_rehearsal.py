"""Corpus-scale rehearsal of StreamingFoldJob: per-conversation EWMA of
turn length over the cached transcript corpus, streamed as N epochs of
chunk files through the exactly-once fold machinery.

Reports per-epoch walls, state sizes (buffered events + carried
accumulators) and the final output count, plus end-to-end turns/sec.

Usage: python tools/fold_rehearsal.py [--input DIR] [--cpus N]
       [--files-per-epoch K]
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import sys
import time

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", default="/tmp/vaero_ray_bench/transcripts_16m")
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--files-per-epoch", type=int, default=32)
    ap.add_argument("--work", default="/tmp/fold_rehearsal")
    args = ap.parse_args()

    import ray
    import ray.data as rd

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from vaero_ray.streaming.fold_job import StreamingFoldJob

    # the bench corpus chunks are in GENERATION order; a stream arrives
    # in ~event-time order. Build (once) a ts-sorted chunked copy — the
    # same arrival model as the gate fixtures' _stream_chunks.
    sorted_dir = args.input.rstrip("/") + "_tsorted"
    if not os.path.isdir(sorted_dir):
        import pyarrow.compute as pc

        src_files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
        t = pq.read_table(src_files, columns=["conv_id", "turn_idx", "text", "ts"])
        t = t.take(pc.sort_indices(t, sort_keys=[("ts", "ascending")]))
        tmp = sorted_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        n_files = len(src_files)
        for i in range(n_files):
            lo, hi = i * t.num_rows // n_files, (i + 1) * t.num_rows // n_files
            pq.write_table(t.slice(lo, hi - lo), os.path.join(tmp, f"chunk-{i:05d}.parquet"))
        del t
        os.replace(tmp, sorted_dir)
    args.input = sorted_dir

    files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    n_rows = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)

    def pre(tbl: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                # int64 conv key: the canonical frame is all-int64
                "conv": pc.cast(
                    pc.utf8_slice_codeunits(tbl.column("conv_id"), 5, 13), pa.int64()
                ),
                "ts": tbl.column("ts"),
                "turn_idx": tbl.column("turn_idx").cast(pa.int64()),
                "tlen": pc.cast(pc.utf8_length(tbl.column("text")), pa.int64()),
            }
        )

    job = StreamingFoldJob(
        input_dir=args.input,
        out_dir=f"{args.work}/out",
        ckpt_dir=f"{args.work}/ckpt",
        key_col="conv",
        ts_col="ts",
        tie_col="turn_idx",
        val_col="tlen",
        out_val="ewma_len",
        allowed_lateness_s=120,
        num_partitions=args.cpus,
        max_files_per_epoch=args.files_per_epoch,
        transform=pre,
        extra_read_kw={"columns": ["conv_id", "turn_idx", "text", "ts"]},
    )
    t0 = time.perf_counter()
    ms = job.run()
    wall = round(time.perf_counter() - t0, 2)
    out_rows = sum(m.rows_out for m in ms)
    print(
        json.dumps(
            {
                "input": args.input,
                "rows": n_rows,
                "cpus": args.cpus,
                "epochs": len(ms),
                "wall_s": wall,
                "turns_per_sec": int(n_rows / wall),
                "rows_out": out_rows,
                "rows_late": sum(m.rows_late for m in ms),
                "per_epoch": [
                    {"epoch": m.epoch, "rows_in": m.rows_in, "state_rows": m.state_rows,
                     "rows_out": m.rows_out}
                    for m in ms
                ],
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
