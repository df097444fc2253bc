"""Corpus-scale rehearsal of the session-14 operators over the cached
16M-turn transcript corpus (same fixture as tools/session5_rehearsal.py).

- auc: the ML-eval cell pipeline over 800k conversations — score =
  user turns per conv, label = tool-turn count above the corpus lower
  median; ONE conv-keyed exchange feeds AUC + KS separation + MCC
  (everything downstream of the cells is O(distinct scores)).
- blocklist: 4-term dictionary tagger over all 16M turn texts — pure
  zero-copy scan throughput (the safety-filter shape).
- snm: sorted-neighborhood pairs over 16M texts (key 32, window 8,
  min_lcp 28) — measures the total-order sort + halo-bucketed window
  emission at corpus scale; the prefix-structured texts make adjacent
  keys near-identical, the lcp filter keeps the pair set sparse.
- winnow: winnowing-fingerprint pairs over a 4M-turn slice
  (min_shared=6, max_df=64) — the fingerprint explosion (~30 distinct
  fps/doc -> ~10^8 exploded rows) is the measured exchange; lorem
  boilerplate grams exceed max_df and are dropped by contract.
- jl / int8: Rademacher projection and int8 quantization over a
  synthetic 1M x 64 float32 vector corpus (cached parquet) — linear
  scan walls for the vector-compression tier.
- streaming-auc: 16M turns through the exactly-once
  StreamingWindowedJob keyed by conversation (bucketed merge backend),
  per-window AUC derive downstream of the committed sums.

Run: python tools/session14_rehearsal.py [--op auc|blocklist|snm|winnow|jl|int8|streaming-auc|all]
"""
import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

CORPUS = "/tmp/vaero_ray_bench/transcripts_16m"
VECS = "/tmp/vaero_ray_bench/vectors_1m"


def ensure_corpus(turns=16_000_000):
    if not os.path.isdir(CORPUS):
        from vaero_ray.sources.transcripts import write_transcripts_chunks

        write_transcripts_chunks(
            CORPUS, n_files=128, n_convs=turns // 20, mean_turns=20, seed=42
        )
    return CORPUS


def ensure_vectors(n=1_000_000, d=64, files=32):
    if not os.path.isdir(VECS):
        os.makedirs(VECS, exist_ok=True)
        import pyarrow.parquet as pq

        per = n // files
        for f in range(files):
            rng = np.random.default_rng(1000 + f)
            m = rng.normal(0, 1, (per, d)).astype(np.float32)
            t = pa.table(
                {
                    "vec_id": pa.array(np.arange(f * per, (f + 1) * per, dtype=np.int64)),
                    "embedding": pa.FixedSizeListArray.from_arrays(
                        pa.array(m.reshape(-1), pa.float32()), d
                    ),
                }
            )
            pq.write_table(t, os.path.join(VECS, f"part-{f:03d}.parquet"))
    return VECS


def rehearse_auc():
    from vaero_ray.stages.keyed import bucketed_keyed_sum
    from vaero_ray.stages.mleval import confusion_mcc, ks_separation, roc_auc

    ds = rd.read_parquet(CORPUS, columns=["conv_id", "role"])
    t0 = time.time()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        role = df["role"].to_numpy()
        out = pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "u": (role == "user").astype(np.int64),
                "tl": (role == "tool").astype(np.int64),
            }
        )
        return out.groupby("conv_id", sort=False, as_index=False).agg(
            {"u": "sum", "tl": "sum"}
        )

    per_conv = bucketed_keyed_sum(
        ds.map_batches(partial, batch_format="pandas"), ["conv_id"], ["u", "tl"]
    ).materialize()

    def tl_cells(tbl: pa.Table) -> pa.Table:
        if not tbl.num_rows:
            return pa.table({"tl": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})
        g = pa.table({"tl": tbl.column("tl")}).group_by(["tl"]).aggregate([([], "count_all")])
        return g.rename_columns(["tl", "n"])

    hist = bucketed_keyed_sum(
        per_conv.map_batches(tl_cells, batch_format="pyarrow"), ["tl"], ["n"], num_buckets=4
    ).to_pandas().sort_values("tl")
    n = int(hist["n"].sum())
    cum = hist["n"].to_numpy(np.int64).cumsum()
    med = int(hist["tl"].to_numpy(np.int64)[np.searchsorted(cum, (n + 1) // 2)])

    def sc(df: pd.DataFrame) -> pd.DataFrame:
        y = (df["tl"].to_numpy(np.int64) > med).astype(np.int64)
        out = pd.DataFrame({"score": df["u"].to_numpy(np.int64), "pos": y, "neg": 1 - y})
        return out.groupby("score", sort=False, as_index=False).agg({"pos": "sum", "neg": "sum"})

    cells = bucketed_keyed_sum(
        per_conv.map_batches(sc, batch_format="pandas"), ["score"], ["pos", "neg"],
        num_buckets=4,
    ).to_pandas().sort_values("score").reset_index(drop=True)
    auc = roc_auc(cells).to_pandas()
    ks = ks_separation(cells).to_pandas()
    mcc = confusion_mcc(cells).to_pandas()
    wall = time.time() - t0
    return {
        "op": "mleval_auc_ks_mcc", "convs": n, "distinct_scores": len(cells),
        "auc": float(auc["auc"][0]), "ks": float(ks["d_stat"][0]),
        "mcc": float(mcc["mcc"][0]), "wall_s": round(wall, 1),
    }


def rehearse_blocklist():
    from vaero_ray.stages.textstats import blocklist_scan

    ds = rd.read_parquet(CORPUS, columns=["conv_id", "turn_idx", "text"])

    def add_id(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": pa.array(np.arange(tbl.num_rows, dtype=np.int64)),
             "text": tbl.column("text")}
        )

    t0 = time.time()
    out = blocklist_scan(
        ds.map_batches(add_id, batch_format="pyarrow", zero_copy_batch=True),
        ["fugiat", "culpa", "labore", "voluptate"], min_hits=5,
    )
    flagged = out.map_batches(
        lambda t: pa.table({"f": pa.array([int(pc.sum(t.column("flagged")).as_py() or 0)], pa.int64()),
                            "n": pa.array([t.num_rows], pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()
    wall = time.time() - t0
    return {"op": "blocklist_scan", "turns": int(flagged["n"].sum()),
            "flagged": int(flagged["f"].sum()), "wall_s": round(wall, 1)}


def rehearse_snm():
    from vaero_ray.stages.dedup import sorted_neighborhood_pairs

    ds = rd.read_parquet(CORPUS, columns=["conv_id", "turn_idx", "text"])

    def add_id(tbl: pa.Table) -> pa.Table:
        # unique int id from (file-local arange is NOT unique) -> hash of
        # (conv_id, turn_idx); collisions only perturb tie-break order
        h = pd.util.hash_array(
            (tbl.column("conv_id").to_pandas() + ":" + tbl.column("turn_idx").to_pandas().astype(str)).to_numpy(dtype=object),
            categorize=False,
        ).astype(np.int64)
        return pa.table({"doc_id": pa.array(h), "text": tbl.column("text")})

    t0 = time.time()
    out = sorted_neighborhood_pairs(
        ds.map_batches(add_id, batch_format="pyarrow", zero_copy_batch=True),
        key_len=32, window=8, min_lcp=28, bucket_rows=262144,
    )
    pairs = out.count()
    wall = time.time() - t0
    return {"op": "sorted_neighborhood", "pairs": int(pairs), "wall_s": round(wall, 1)}


def rehearse_winnow(turns=4_000_000):
    from vaero_ray.stages.dedup import winnow_dup_pairs

    files = sorted(
        os.path.join(CORPUS, f) for f in os.listdir(CORPUS) if f.endswith(".parquet")
    )[: max(1, int(round(128 * turns / 16_000_000)))]
    ds = rd.read_parquet(files, columns=["conv_id", "turn_idx", "text"])

    def add_id(tbl: pa.Table) -> pa.Table:
        h = pd.util.hash_array(
            (tbl.column("conv_id").to_pandas() + ":" + tbl.column("turn_idx").to_pandas().astype(str)).to_numpy(dtype=object),
            categorize=False,
        ).astype(np.int64)
        return pa.table({"doc_id": pa.array(h), "text": tbl.column("text")})

    t0 = time.time()
    out = winnow_dup_pairs(
        ds.map_batches(add_id, batch_format="pyarrow", zero_copy_batch=True),
        min_shared=6, max_df=64, num_shards=64, pair_buckets=32,
    )
    pairs = out.count()
    wall = time.time() - t0
    return {"op": "winnow_dup_pairs", "turns": turns, "pairs": int(pairs),
            "wall_s": round(wall, 1)}


def rehearse_jl():
    from vaero_ray.stages.ann import jl_project

    ds = rd.read_parquet(VECS)
    t0 = time.time()
    n = jl_project(ds, out_dim=8).count()
    wall = time.time() - t0
    return {"op": "jl_project_1m_x64", "rows_out": int(n), "wall_s": round(wall, 1)}


def rehearse_int8():
    from vaero_ray.stages.ann import int8_quantize

    ds = rd.read_parquet(VECS)
    t0 = time.time()
    n = int8_quantize(ds).count()
    wall = time.time() - t0
    return {"op": "int8_quantize_1m_x64", "rows_out": int(n), "wall_s": round(wall, 1)}


def rehearse_streaming_auc():
    """16M turns through the exactly-once StreamingWindowedJob keyed by
    conversation (high-cardinality: bucketed merge backend), then the
    per-window AUC derive downstream of the committed sums — the
    streaming_window_auc gate's shape at corpus scale."""
    import glob
    import shutil

    import pyarrow.parquet as pqm
    from vaero_ray.stages.keyed import bucketed_map_groups
    from vaero_ray.streaming import StreamingWindowedJob
    from vaero_ray.streaming.job import AggSpec

    sorted_dir = CORPUS.rstrip("/") + "_tsorted"
    if not os.path.isdir(sorted_dir):
        src_files = sorted(glob.glob(os.path.join(CORPUS, "*.parquet")))
        t = pqm.read_table(src_files, columns=["conv_id", "role", "ts"])
        t = t.take(pc.sort_indices(t, sort_keys=[("ts", "ascending")]))
        tmp = sorted_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        n_files = len(src_files)
        for i in range(n_files):
            lo, hi = i * t.num_rows // n_files, (i + 1) * t.num_rows // n_files
            pqm.write_table(t.slice(lo, hi - lo),
                            os.path.join(tmp, f"chunk-{i:05d}.parquet"))
        del t
        os.replace(tmp, sorted_dir)
    work = "/tmp/s14_streaming_auc"
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    def pre(tbl: pa.Table) -> pa.Table:
        role = tbl.column("role")
        return pa.table(
            {
                "conv": pc.cast(pc.utf8_slice_codeunits(
                    tbl.column("conv_id"), 5, 13), pa.int64()),
                "ts": tbl.column("ts"),
                "u": pc.cast(pc.equal(role, "user"), pa.int64()),
                "tl": pc.cast(pc.equal(role, "tool"), pa.int64()),
            }
        )

    job = StreamingWindowedJob(
        input_dir=sorted_dir,
        out_dir=f"{work}/out",
        ckpt_dir=f"{work}/ckpt",
        keys=["conv"],
        aggs=[AggSpec("u", "sum", "u"), AggSpec("tl", "sum", "tl")],
        ts_col="ts",
        size_s=3600,
        allowed_lateness_s=60,
        num_partitions=32,
        max_files_per_epoch=32,
        merge_backend="bucketed",
        transform=pre,
        extra_read_kw={"columns": ["conv_id", "role", "ts"]},
    )
    t0 = time.time()
    ms = job.run()
    committed = job.committed_output()

    def derive(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for w, g in df.groupby("window_start", sort=False):
            pcs = np.sort(g["tl"].to_numpy(np.int64))
            med = int(pcs[(len(pcs) + 1) // 2 - 1])
            y = (g["tl"].to_numpy(np.int64) > med).astype(np.int64)
            cells = (pd.DataFrame({"score": g["u"].to_numpy(np.int64),
                                   "pos": y, "neg": 1 - y})
                     .groupby("score", as_index=False).sum().sort_values("score"))
            pos = cells["pos"].to_numpy(np.int64)
            neg = cells["neg"].to_numpy(np.int64)
            p, n = int(pos.sum()), int(neg.sum())
            cn = np.concatenate(([0], np.cumsum(neg)[:-1]))
            num2 = int(np.sum(pos * (2 * cn + neg)))
            rows.append({"window_start": w, "n": p + n,
                         "auc": round(num2 / (2.0 * p * n), 6) if p and n else None})
        return pd.DataFrame(rows)

    out = bucketed_map_groups(committed, "window_start", derive, num_buckets=8).to_pandas()
    wall = time.time() - t0
    have = out.dropna(subset=["auc"])
    return {"op": "streaming_window_auc_16m", "epochs": len(ms),
            "windows": len(out), "windows_with_auc": len(have),
            "committed_rows": int(sum(m.rows_out for m in ms)),
            "wall_s": round(wall, 1)}



if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--op", default="all")
    ap.add_argument("--cpus", type=int, default=32)
    args = ap.parse_args()
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    ensure_corpus()
    if args.op in ("jl", "int8", "all"):
        ensure_vectors()
    ops = {
        "auc": rehearse_auc,
        "blocklist": rehearse_blocklist,
        "snm": rehearse_snm,
        "winnow": rehearse_winnow,
        "streaming-auc": rehearse_streaming_auc,
        "jl": rehearse_jl,
        "int8": rehearse_int8,
    }
    for name, fn in ops.items():
        if args.op in (name, "all"):
            print(json.dumps(fn()), flush=True)
    ray.shutdown()
