"""Deduplication operators over document tables (training-data ops).

Not in the reference (it has no dedup — SURVEY.md §2a "operators the
reference does NOT have"); these are the standard large-corpus dedup
family, Ray-Data-first:

- exact_dedup: content-hash per batch (vectorized, deterministic) ->
  groupby(hash) -> keep min-id row per group. The shuffle moves
  (hash, id, payload) rows partitioned by hash — at 100 TB you'd project
  payload off before the shuffle and re-join survivors by id; here the
  payload rides along because the testdata docs are small.
- minhash_lsh: shingle -> 64-perm MinHash signature (cache-blocked numpy
  kernel per batch) -> band rows -> groupby(band_id, band_hash) buckets
  -> per-bucket signature-estimated Jaccard for ALL qualifying
  intra-bucket pairs -> dup edges (deduped per doc to the smallest
  dup_of); full transitive clusters come from stages/graph.py
  connected_components over these edges.
- simhash: 64-bit token-hash majority signature per doc; near-dups =
  hamming(sig_a, sig_b) <= k, bucketed by 16-bit chunks (4 bands).

All per-batch math is numpy; signatures are uint64. Determinism: hashes
are polynomial/multiplicative with fixed constants — no PYTHONHASHSEED
dependence, stable across workers and runs.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)
_MERSENNE = np.uint64((1 << 61) - 1)

_POPCOUNT_LUT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1).astype(np.int64)


def _mod_mersenne61(z: np.ndarray) -> np.ndarray:
    """z % (2^61-1) WITHOUT 64-bit division (numpy uint64 ``%`` is a
    scalar div loop and dominates the whole minhash kernel): fold
    high/low 61-bit halves, subtract once. Bit-identical to ``z % M``
    for any uint64 z."""
    m = _MERSENNE
    z = (z & m) + (z >> np.uint64(61))
    return np.where(z >= m, z - m, z)


_M31 = np.int64((1 << 31) - 1)


def _mod_mersenne31(z: np.ndarray) -> np.ndarray:
    """z % (2^31-1) via fold for non-negative int64 z < 2^62."""
    z = (z & _M31) + (z >> np.int64(31))
    return np.where(z >= _M31, z - _M31, z)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array: np.bitwise_count when
    available (numpy >= 2), else an 8-byte LUT pass (no 64-iteration
    shift loop)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.int64)
    b = np.ascontiguousarray(x).view(np.uint8).reshape(*x.shape, 8)
    return _POPCOUNT_LUT[b].sum(axis=-1)


# ---- fat-bucket guard (all banded pair emitters) -----------------------
#
# Pair emission is inherently quadratic in bucket size. At corpus scale a
# single degenerate band bucket (millions of empty / boilerplate docs
# sharing a signature) would OOM the worker before emitting anything; real
# corpus pipelines cap LSH bucket size. Policy: buckets above
# ``max_bucket`` are DETERMINISTICALLY SAMPLED to their ``max_bucket``
# smallest ids (the group is already id-sorted when the guard runs) — the
# retained docs still pair among themselves, docs outside the sample emit
# no pairs from THIS bucket (they usually re-collide in other bands).
# Recall loss is therefore bounded to members of capped buckets and every
# cap is logged with the bucket key and drop count — no silent caps.
DEFAULT_MAX_BUCKET = 4096

_DEDUP_LOG = logging.getLogger("vaero_ray.stages.dedup")


def _cap_bucket(g: pd.DataFrame, max_bucket: int, op: str, bucket_key) -> pd.DataFrame:
    """Deterministic smallest-id sample of an id-sorted candidate bucket."""
    if len(g) <= max_bucket:
        return g
    _DEDUP_LOG.warning(
        "%s: capping fat candidate bucket %s: %d docs > max_bucket=%d "
        "(dropping %d docs from this bucket's pair emission)",
        op, bucket_key, len(g), max_bucket, len(g) - max_bucket,
    )
    return g.iloc[:max_bucket]


def _hash_bytes_rolling(texts: "pd.Series") -> np.ndarray:
    """Deterministic 64-bit content hash per string (vectorized FNV-1a over
    a byte matrix would need padding; this uses pandas' stable siphash)."""
    return pd.util.hash_array(texts.to_numpy(dtype=object), categorize=False).astype(np.uint64)


def with_content_hash(tbl: pa.Table, col: str = "text", out: str = "content_hash") -> pa.Table:
    h = _hash_bytes_rolling(tbl.column(col).to_pandas())
    return tbl.append_column(out, pa.array(h, pa.uint64()))


def exact_dedup_table(tbl: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """``exact_dedup``'s rule over one table: per distinct ``text_col`` (a
    null is one), the row with the least ``id_col`` (nulls last), ties to
    row order; survivors keep their order."""
    order = pc.sort_indices(tbl.select([id_col]), sort_keys=[(id_col, "ascending")], null_placement="at_end")
    ranked = pa.table({"t": tbl.column(text_col).take(order), "i": order})
    first = ranked.group_by("t", use_threads=False).aggregate([("i", "first")])
    return tbl.take(np.sort(first.column("i_first").to_numpy()))


_DEDUP_HASH_KEY_2 = "vaero-dedup-2nd!"  # 16 bytes: independent siphash key


def exact_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    payload_mode: str = "auto",
    carry_max_bytes: int = 256 << 20,
    payload_transform=None,
    join_num_partitions: "int | None" = None,
    num_buckets: "int | None" = None,
) -> rd.Dataset:
    """Keep the min-``id_col`` row per distinct ``text_col`` value.

    ``payload_transform``: optional ``Dataset -> Dataset`` applied to the
    PAYLOAD side. It must commute with dedup — i.e. be a per-row map /
    filter whose outcome is a pure function of ``text_col`` (quality
    scoring, language-ID, column projection), so every row of a
    duplicate group passes or fails together and the min-id survivor is
    unchanged. In ``project`` mode it runs BEFORE the semi-join, which
    is the corpus-scale placement: expensive text kernels execute at
    full read parallelism (one task per input block) instead of
    inheriting the join's partition count — measured 8-way vs 256-way on
    the 32M-turn rehearsal — and filtered rows never enter the exchange.
    In ``carry`` mode it runs after dedup (equivalent by the commute
    requirement; carry's single shuffle already moves the payload).

    Two shapes, picked by ``payload_mode``:

    - ``"carry"``: hash-partition + per-group first — ONE shuffle on the
      64-bit content hash with the payload riding along; collisions are
      broken by comparing the actual text within the group (bit-exact).
      Right for small/medium inputs: one pass, one exchange.
    - ``"project"``: the 100-TB shape — the shuffle moves ONLY
      ``(h1, h2, id)`` int64 triples (two independent siphash keys =
      a 128-bit content key; wrong-merge odds ~n^2/2^128), the min-id
      survivor per key is computed per bucket, and survivors are
      semi-joined back to the payload by ``id_col``. The input is read
      twice (key pass + join pass) — at corpus scale two scans beat
      shipping every payload byte through the exchange ~hash-width/row
      times over.
    - ``"auto"`` (default): ``project`` when the input FILE sizes (pure
      metadata — ``ds.size_bytes()`` would execute the read pipeline just
      to pick a mode, a full scan at corpus scale) exceed
      ``carry_max_bytes``; ``carry`` when smaller or when the dataset is
      derived (no input files resolvable). Corpus-scale callers on
      derived datasets pass ``payload_mode="project"`` explicitly.
    """
    from vaero_ray.stages.keyed import bucketed_map_groups, input_file_bytes

    if payload_mode == "auto":
        sz = input_file_bytes(ds) or 0
        # parquet-on-disk -> in-memory expansion is ~2-4x for text
        payload_mode = "project" if 3 * sz > carry_max_bytes else "carry"

    if payload_mode == "carry":
        def add_h(tbl: pa.Table) -> pa.Table:
            return with_content_hash(tbl, text_col, "__h")

        def keep_first_bucket(df: pd.DataFrame) -> pd.DataFrame:
            # all rows of a given text share __h, hence a bucket; dedup on
            # the actual text (hash collisions break correctly), min id wins
            df = df.sort_values(id_col, kind="mergesort")
            return df.drop_duplicates(subset=[text_col], keep="first")

        out = bucketed_map_groups(
            ds.map_batches(add_h, batch_format="pyarrow", zero_copy_batch=True),
            "__h",
            keep_first_bucket,
            num_buckets=num_buckets,
        )
        out = out.drop_columns(["__h"])
        return payload_transform(out) if payload_transform is not None else out

    if payload_mode != "project":
        raise ValueError(f"payload_mode must be carry/project/auto, got {payload_mode!r}")

    def keys_only(tbl: pa.Table) -> pa.Table:
        texts = tbl.column(text_col).to_pandas().to_numpy(dtype=object)
        h1 = pd.util.hash_array(texts, categorize=False).astype(np.uint64)
        h2 = pd.util.hash_array(texts, hash_key=_DEDUP_HASH_KEY_2, categorize=False).astype(np.uint64)
        return pa.table(
            {
                "__h1": pa.array(h1, pa.uint64()),
                "__h2": pa.array(h2, pa.uint64()),
                id_col: tbl.column(id_col),
            }
        )

    def keep_min_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(id_col, kind="mergesort")
        return df.drop_duplicates(subset=["__h1", "__h2"], keep="first")[[id_col]]

    # num_buckets: explicit wins; else derive_num_buckets resolves the
    # read lineage THROUGH the keys_only map (in-memory upper bound) —
    # the keys exchange is 24 B/row, so the bound is conservative but
    # never the old flat-64 floor at corpus scale
    survivors = bucketed_map_groups(
        ds.map_batches(keys_only, batch_format="pyarrow", zero_copy_batch=True),
        "__h1",
        keep_min_bucket,
        num_buckets=num_buckets,
    )
    # semi-join payload back by id (native hash join: each side shuffles
    # only its own columns; the survivor side is (id) int64 rows)
    from vaero_ray.stages.joins import hash_join

    if payload_transform is not None:
        # survivors carry ONLY id_col, so the join adds no extra columns
        # — the transformed payload schema passes through untouched
        return hash_join(
            payload_transform(ds), survivors, keys=id_col, join_type="inner",
            num_buckets=join_num_partitions,
        )
    out = hash_join(
        ds, survivors, keys=id_col, join_type="inner", num_buckets=join_num_partitions
    )
    return out.select_columns(ds.schema().names)


# ---------------------------------------------------------------- MinHash


_SHINGLE_BASE = np.uint64(1111111111111111111)


def _shingle_hashes(text: str, k: int) -> np.ndarray:
    """64-bit rolling hashes of all k-character shingles (polynomial mod
    2^64 via uint64 wraparound; deterministic). Scalar reference kernel —
    the batch path is ``_flat_shingle_hashes``; both produce identical
    values per window."""
    b = np.frombuffer(text.encode("utf-8", "ignore"), dtype=np.uint8).astype(np.uint64)
    if len(b) < k:
        b = np.pad(b, (0, k - len(b)), constant_values=32)
    n = len(b) - k + 1
    powers = _SHINGLE_BASE ** np.arange(k, dtype=np.uint64)
    windows = np.lib.stride_tricks.sliding_window_view(b, k)
    return (windows * powers[::-1]).sum(axis=1, dtype=np.uint64)


def _flat_texts(tbl: pa.Table, col: str) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy view of a string column as (flat uint8 buffer, int64
    offsets[n+1]) — the layout every vectorized text kernel here works on."""
    arr = tbl.column(col).cast(pa.large_binary()).combine_chunks()
    off = np.frombuffer(arr.buffers()[1], dtype=np.int64)[arr.offset : arr.offset + len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8) if arr.buffers()[2] is not None else np.empty(0, np.uint8)
    if arr.null_count:
        raise ValueError(f"nulls in text column {col!r}")
    return data[: off[-1]] if off[0] == 0 else data[off[0] : off[-1]], off - off[0]


def _seg_arange(lens: np.ndarray) -> np.ndarray:
    """[0..lens[0]), [0..lens[1]), ... concatenated (segmented arange)."""
    total = int(lens.sum())
    ends = np.cumsum(lens)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - lens, lens)


def _flat_shingle_hashes(
    data: np.ndarray, off: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """All documents' k-shingle hashes in ONE pass over the flat buffer:
    k shifted-add passes compute every window's polynomial hash, then a
    segmented gather keeps only windows that do not cross a doc boundary.
    Docs shorter than k are space-padded to k (1 shingle), matching
    ``_shingle_hashes``. Returns (values, shingle_offsets[n+1])."""
    lens = off[1:] - off[:-1]
    if (lens < k).any():
        # rebuild flat buffer with short docs padded to k spaces
        new_lens = np.maximum(lens, k)
        new_off = np.zeros(len(off), dtype=np.int64)
        np.cumsum(new_lens, out=new_off[1:])
        buf = np.full(new_off[-1], 32, dtype=np.uint8)
        shift = new_off[:-1] - off[:-1]
        if len(data):
            buf[np.arange(len(data), dtype=np.int64) + np.repeat(shift, lens)] = data
        data, off, lens = buf, new_off, new_lens
    n_windows = len(data) - k + 1
    if n_windows <= 0:
        return np.empty(0, np.uint64), np.zeros(len(off), dtype=np.int64)
    d = data.astype(np.uint64)
    h = np.zeros(n_windows, dtype=np.uint64)
    for j in range(k):  # k tiny (5): k shifted-add O(N) passes, no NxK temp
        h += d[j : j + n_windows] * (_SHINGLE_BASE ** np.uint64(k - 1 - j))
    s = lens - k + 1  # shingles per doc
    sh_off = np.zeros(len(off), dtype=np.int64)
    np.cumsum(s, out=sh_off[1:])
    pos = np.repeat(off[:-1], s) + _seg_arange(s)
    return h[pos], sh_off


def _perm_params(num_perm: int, seed: int = 12345) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, num_perm, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, num_perm, dtype=np.uint64)
    return a, b


_PERM_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _perm_params_cached(num_perm: int, seed: int = 12345) -> tuple[np.ndarray, np.ndarray]:
    key = (num_perm, seed)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = _perm_params(num_perm, seed)
    return _PERM_CACHE[key]


def _iter_doc_chunks(offs: np.ndarray, max_items: int):
    """Yield (doc_lo, doc_hi, item_lo, item_hi): consecutive document
    ranges whose flat items fit in ~max_items (cache-resident temps — a
    single (all_shingles x perms) matrix thrashes DRAM and is SLOWER than
    a per-doc loop; chunking keeps the vectorized kernels cache-hot)."""
    n = len(offs) - 1
    doc_lo = 0
    while doc_lo < n:
        doc_hi = doc_lo + 1
        while doc_hi < n and offs[doc_hi + 1] - offs[doc_lo] <= max_items:
            doc_hi += 1
        yield doc_lo, doc_hi, int(offs[doc_lo]), int(offs[doc_hi])
        doc_lo = doc_hi


def _minhash_into(
    sigs: np.ndarray, values: np.ndarray, offs: np.ndarray, a: np.ndarray, b: np.ndarray
) -> None:
    """Fill ``sigs[i]`` = per-permutation min of ((a*x mod 2^64)+b)%M over
    doc i's hash set; empty docs keep their existing sentinel rows. Note
    the 64-bit WRAP on a*x (numpy has no 128-bit multiply): the family is
    a multiplicative-wrap variant of the textbook (a*x+b) mod M61 linear
    hash, not the 2-universal ideal — deterministic, empirically unbiased
    on the banding workloads here (recall validated against exact
    verifiers), but an oracle recomputing (a*x+b) mod M61 in extended
    precision will NOT reproduce these signatures (the minhash gates
    therefore verify TRUE Jaccard, never raw signatures).

    Cache-blocked: ~2k-item document chunks x all perms keep the working
    set (~1 MB) L2-resident with the temps recycled across iterations —
    measured 1.6x a per-document loop and 13x a whole-batch matrix (which
    streams GBs through DRAM); mod-Mersenne61 via in-place shift-add
    fold, never 64-bit division."""
    num_perm = sigs.shape[1]
    counts = offs[1:] - offs[:-1]
    shm_all = _mod_mersenne61(values)
    m = _MERSENNE
    for doc_lo, doc_hi, lo, hi in _iter_doc_chunks(offs, 2048):
        if hi <= lo:
            continue
        shm = shm_all[lo:hi][:, None]
        nz = counts[doc_lo:doc_hi] > 0
        docs_idx = np.arange(doc_lo, doc_hi)[nz]
        starts = offs[docs_idx] - lo
        z = a[None, :] * shm
        z += b[None, :]
        hi_bits = z >> np.uint64(61)
        z &= m
        z += hi_bits
        np.subtract(z, m, out=z, where=z >= m)
        sigs[docs_idx, :num_perm] = np.minimum.reduceat(z, starts, axis=0)


def minhash_signatures(
    tbl: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    num_perm: int = 64,
) -> pa.Table:
    """(id, signature fixed_size_list<uint64>[num_perm]) per doc.

    Vectorized across the batch (flat-buffer shingle hashing + segmented
    ``np.minimum.reduceat``), processed in ~32k-shingle document chunks so
    the (shingles x perms) temporaries stay cache-resident — measured 28x
    the per-document-loop kernel at equal output."""
    a, b = _perm_params_cached(num_perm)
    n = tbl.num_rows
    sigs = np.full((n, num_perm), _MERSENNE, dtype=np.uint64)
    if n:
        data, off = _flat_texts(tbl, text_col)
        sh, sh_off = _flat_shingle_hashes(data, off, shingle_k)
        _minhash_into(sigs, sh, sh_off, a, b)
    return pa.table(
        {
            id_col: tbl.column(id_col),
            "signature": pa.FixedSizeListArray.from_arrays(
                pa.array(sigs.reshape(-1), pa.uint64()), num_perm
            ),
        }
    )


def minhash_lsh_dup_edges(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.8,
    max_bucket: int = DEFAULT_MAX_BUCKET,
    num_shards: int = 64,
    pair_buckets: int = 16,
) -> rd.Dataset:
    """Near-duplicate edges (doc_id, dup_of, est_jaccard) via MinHash+LSH.

    Pipeline: signatures per batch (no shuffle) -> explode to one row per
    band (band_id, band_hash, doc_id, signature) -> groupby(band_id,
    band_hash) -> per bucket, estimate Jaccard from signature agreement
    for EVERY qualifying intra-bucket pair; emit edges >= threshold,
    deduplicated per doc_id (keep the smallest dup_of).
    ``max_bucket`` caps degenerate band buckets (see ``_cap_bucket``).
    """
    if num_perm % bands:
        raise ValueError(
            f"bands ({bands}) must divide num_perm ({num_perm}) — a non-divisor "
            "would crash mid-pipeline in the band reshape"
        )
    rows_per_band = num_perm // bands

    def sig_stage(tbl: pa.Table) -> pa.Table:
        return minhash_signatures(tbl, text_col, id_col, shingle_k, num_perm)

    def band_stage(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        sig = np.asarray(tbl.column("signature").combine_chunks().flatten()).reshape(
            len(ids), num_perm
        )
        n = len(ids)
        band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
        # hash each band's slice of the signature to one uint64
        chunks = sig.reshape(n, bands, rows_per_band)
        bh = chunks[:, :, 0].copy()
        for j in range(1, rows_per_band):
            bh = bh * _FNV_PRIME + chunks[:, :, j]
        return pa.table(
            {
                "band_id": pa.array(band_ids),
                "band_hash": pa.array(bh.reshape(-1), pa.uint64()),
                id_col: pa.array(np.repeat(ids, bands)),
                "signature": pa.FixedSizeListArray.from_arrays(
                    pa.array(np.repeat(sig, bands, axis=0).reshape(-1), pa.uint64()), num_perm
                ),
            }
        )

    def bucket_stage(df: pd.DataFrame) -> pd.DataFrame:
        """One shard of band-hash space: for EVERY (band_id, band_hash)
        bucket, compare ALL intra-bucket pairs (not just vs the bucket
        head — two near-dups sharing a bucket with a non-dup head must
        still pair). Buckets are small by construction (only colliding
        docs share one), so the per-bucket loop is over the few
        multi-member buckets, with a vectorized (m x m) signature-
        agreement matrix inside."""
        empty = pd.DataFrame(
            {id_col: pd.array([], dtype="int64"), "dup_of": pd.array([], dtype="int64"),
             "est_jaccard": pd.array([], dtype="float64")}
        )
        if not len(df):
            return empty
        df = df.sort_values(["band_id", "band_hash", id_col], kind="mergesort", ignore_index=True)
        df = df.drop_duplicates(subset=["band_id", "band_hash", id_col], ignore_index=True)
        sizes = df.groupby(["band_id", "band_hash"], sort=False)[id_col].transform("size").to_numpy()
        df = df[sizes > 1]
        if not len(df):
            return empty
        out_a, out_b, out_j = [], [], []
        for bk, g in df.groupby(["band_id", "band_hash"], sort=False):
            g = _cap_bucket(g, max_bucket, "minhash_dup_edges", bk)
            sig = np.stack(g["signature"].to_numpy())
            ids = g[id_col].to_numpy()
            m = len(ids)
            # est Jaccard = fraction of agreeing minhash slots, all pairs;
            # row-chunked so the (rows x m x num_perm) bool temp stays
            # ~32 MB however close m is to max_bucket
            step = max(1, (32 << 20) // max(num_perm * m, 1))
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                eq = (sig[lo:hi, None, :] == sig[None, :, :]).mean(axis=2)
                ii, jj = np.nonzero((eq >= threshold) & (ids[lo:hi, None] > ids[None, :]))
                out_a.append(ids[lo + ii])
                out_b.append(ids[jj])
                out_j.append(eq[ii, jj])
        return pd.DataFrame(
            {
                id_col: np.concatenate(out_a) if out_a else np.array([], np.int64),
                "dup_of": np.concatenate(out_b) if out_b else np.array([], np.int64),
                "est_jaccard": np.concatenate(out_j) if out_j else np.array([], np.float64),
            }
        )

    def shard(tbl: pa.Table) -> pa.Table:
        # shard band space: co-locates all rows of a (band, hash) bucket
        return tbl.append_column(
            "__shard", pa.array((tbl.column("band_hash").to_numpy() % np.uint64(num_shards)).astype(np.int64))
        )

    edges = (
        ds.map_batches(sig_stage, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(band_stage, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(shard, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__shard")
        .map_groups(
            lambda df: bucket_stage(df.drop(columns=["__shard"])), batch_format="pandas"
        )
    )

    # a doc can match in several bands/buckets: keep its smallest dup_of
    def min_dup_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col, "dup_of"], kind="mergesort")
        return df.drop_duplicates(subset=[id_col], keep="first")

    from vaero_ray.stages.keyed import bucketed_map_groups

    return bucketed_map_groups(edges, id_col, min_dup_bucket, num_buckets=pair_buckets)


def contamination_check(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 13,
    is_train=None,
    num_shards: int = 32,
) -> rd.Dataset:
    """Train/test DECONTAMINATION: for every TEST document, count its
    distinct ``shingle_k``-char n-grams that also occur anywhere in the
    TRAIN split (the standard benchmark-leakage check; docs shorter than
    k are space-padded to one shingle). ``is_train``: vectorized
    ``pa.Array bool = f(id_array)``; default = even doc_id.

    Scale shape: per-doc sorted-unique shingle hash sets (flat kernels),
    exploded to (gram_hash, side, doc_id) rows, ONE shuffle sharded by
    gram hash — each shard counts test-doc hits against ITS grams'
    train presence (disjoint gram spaces, so per-shard partial counts sum
    exactly) — then a tiny groupby(doc_id) merge. No side is ever
    broadcast whole: contamination of a 100 TB corpus moves only
    (hash, id) pairs."""
    if is_train is None:
        def is_train(ids: pa.Array) -> pa.Array:
            import pyarrow.compute as pc

            return pc.equal(pc.bit_wise_and(ids, 1), 0)

    def explode(tbl: pa.Table) -> pa.Table:
        values, offs = _shingle_sets_char(tbl, text_col, shingle_k)
        counts = offs[1:] - offs[:-1]
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        train_mask = np.asarray(is_train(tbl.column(id_col).combine_chunks()))
        return pa.table(
            {
                "g": pa.array(values, pa.uint64()),
                id_col: pa.array(np.repeat(ids, counts), pa.int64()),
                "__train": pa.array(np.repeat(train_mask, counts)),
                "__shard": pa.array((values % np.uint64(num_shards)).astype(np.int64)),
            }
        )

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        train_grams = df.loc[df["__train"], "g"].unique()
        test = df[~df["__train"]]
        hit = test[np.isin(test["g"].to_numpy(), train_grams)]
        out = hit.groupby(id_col, sort=False).size().rename("n_contaminated").reset_index()
        out["n_contaminated"] = out["n_contaminated"].astype("int64")
        return out

    from vaero_ray.stages.keyed import bucketed_map_groups

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    partials = (
        exploded.groupby("__shard")
        .map_groups(
            lambda df: per_shard(df.drop(columns=["__shard"])), batch_format="pandas"
        )
    )

    def merge_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(id_col, sort=False)["n_contaminated"].sum().reset_index()
        out["n_contaminated"] = out["n_contaminated"].astype("int64")
        return out

    return bucketed_map_groups(partials, id_col, merge_bucket, num_buckets=16)




def dup_ngram_stats(
    ds: "rd.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 13,
    num_shards: int = 32,
) -> "rd.Dataset":
    """SELF-contamination / boilerplate exposure: for every document, how
    many of its distinct ``shingle_k``-char n-grams occur in at least one
    OTHER document (``n_dup_grams``) out of its total distinct grams
    (``n_grams``) — the per-doc duplicate-span statistic behind
    substring-dedup policies (cf. Lee et al. "Deduplicating Training
    Data", the repeated-substring motivation).

    Same scale shape as contamination_check (dedup.py:529): per-doc
    sorted-unique gram-hash sets, exploded to (gram, doc) rows, ONE
    gram-sharded shuffle — each shard computes per-gram doc frequency
    and flags rows with df >= 2 (disjoint gram spaces, so per-shard
    partial counts sum exactly) — then a tiny keyed-sum merge per doc.
    Nothing is broadcast; only (hash, id) pairs move."""
    import pandas as pd

    def explode(tbl: pa.Table) -> pa.Table:
        values, offs = _shingle_sets_char(tbl, text_col, shingle_k)
        counts = offs[1:] - offs[:-1]
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "g": pa.array(values, pa.uint64()),
                id_col: pa.array(np.repeat(ids, counts), pa.int64()),
                "__shard": pa.array((values % np.uint64(num_shards)).astype(np.int64)),
            }
        )

    def per_shard(df: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (g, doc) pairs by construction, so the group
        # size IS the gram's document frequency
        dfreq = df.groupby("g", sort=False)["g"].transform("size").to_numpy()
        dup = (dfreq >= 2).astype(np.int64)
        out = (
            df.assign(__dup=dup)
            .groupby(id_col, sort=False)
            .agg(n_dup_grams=("__dup", "sum"), n_grams=("__dup", "size"))
            .reset_index()
        )
        out["n_dup_grams"] = out["n_dup_grams"].astype("int64")
        out["n_grams"] = out["n_grams"].astype("int64")
        return out

    from vaero_ray.stages.keyed import bucketed_keyed_sum

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    partials = exploded.groupby("__shard").map_groups(
        lambda df: per_shard(df.drop(columns=["__shard"])), batch_format="pandas"
    )
    return bucketed_keyed_sum(
        partials, [id_col], ["n_dup_grams", "n_grams"], num_buckets=16
    )


# ---------------------------------------------------------------- SimHash


# SimHash token hash: two 31-bit polynomial hashes mod Mersenne31 with
# different bases, concatenated to 62 bits. Chosen to be EXACTLY
# reproducible in SQL (DuckDB list_reduce over char codes) so the gate
# can hash-match signatures; tokens are truncated to 16 chars both sides.
SIMHASH_BITS = 62
_SH_MOD = (1 << 31) - 1
_SH_BASES = (31, 37)
_SH_TOK_CAP = 16


def _flat_tokens(tbl: pa.Table, text_col: str) -> tuple[np.ndarray, np.ndarray]:
    """Lowercased whitespace tokens of every doc as (flat object array,
    offsets[n+1]) with empty tokens dropped (str.split semantics)."""
    import pyarrow.compute as pc

    n = tbl.num_rows
    toks_list = pc.utf8_split_whitespace(pc.utf8_lower(tbl.column(text_col))).combine_chunks()
    flat = toks_list.flatten()
    tok_off = np.asarray(toks_list.offsets).astype(np.int64)
    tok_off = tok_off - tok_off[0]
    tok_len = np.asarray(pc.binary_length(flat)).astype(np.int64)
    nonempty = tok_len > 0
    counts = np.zeros(n, np.int64)
    seg_nz = tok_off[:-1] < tok_off[1:]
    if len(nonempty) and seg_nz.any():
        # reduceat over NONEMPTY segments only (in-range, strictly
        # increasing starts; clipping would corrupt the previous segment)
        counts[seg_nz] = np.add.reduceat(nonempty.astype(np.int64), tok_off[:-1][seg_nz])
    toks = flat.filter(pa.array(nonempty)) if len(nonempty) else flat
    off2 = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=off2[1:])
    return toks, off2


def _poly_token_hashes(toks: pa.Array, base: int, cap: int = _SH_TOK_CAP) -> np.ndarray:
    """Per-token polynomial char-code hash mod Mersenne31 over the first
    ``cap`` chars: h = fold(h*base + code) — identical to SQL
    ``list_reduce([unicode(c)...], (a,c) -> (a*base+c) % 2147483647)`` for
    ASCII text (byte == codepoint; documented fixture assumption).
    Vectorized: arrow slice -> flat byte buffer -> one pass per char
    position (<= cap) over ALL tokens at once."""
    import pyarrow.compute as pc

    if not len(toks):
        return np.empty(0, np.int64)
    sliced = pc.utf8_slice_codeunits(toks, 0, cap)
    data, off = _flat_texts(pa.table({"__t": sliced}), "__t")
    lens = off[1:] - off[:-1]
    n_tok = len(lens)
    # (cap, n_tok) layout: each per-position pass reads a CONTIGUOUS row
    buf = np.zeros((cap, n_tok), dtype=np.int64)
    if len(data):
        pos = np.repeat(np.arange(n_tok, dtype=np.int64), lens)
        buf[_seg_arange(lens), pos] = data.astype(np.int64)
    h = np.zeros(n_tok, dtype=np.int64)
    for j in range(cap):
        active = lens > j
        h[active] = _mod_mersenne31(h[active] * base + buf[j, active])
    return h


def simhash_signatures(tbl: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """62-bit SimHash over SQL-reproducible token hashes: for each doc,
    each (lowercased whitespace) token votes its 62 hash bits +1/-1; the
    signature keeps the majority bit. Token hash = two 31-bit polynomial
    char hashes (bases 31/37 mod Mersenne31) concatenated.

    Vectorized across the batch: flat tokens via arrow split, per-char
    vector passes for the hashes, ``np.add.reduceat`` for the per-doc bit
    votes. Output simhash is int64 (< 2^62) so the DuckDB oracle can
    recompute it exactly."""
    n = tbl.num_rows
    out = np.zeros(n, dtype=np.int64)
    if n:
        toks, off2 = _flat_tokens(tbl, text_col)
        counts = off2[1:] - off2[:-1]
        if len(toks):
            h1 = _poly_token_hashes(toks, _SH_BASES[0])
            h2 = _poly_token_hashes(toks, _SH_BASES[1])
            hs = (h1.astype(np.uint64)) | (h2.astype(np.uint64) << np.uint64(31))
            shifts_all = np.arange(SIMHASH_BITS, dtype=np.uint64)
            # per ~32k-token doc chunks: vote matrices stay cache-resident
            for doc_lo, doc_hi, lo, hi in _iter_doc_chunks(off2, 1 << 15):
                if hi <= lo:
                    continue
                sub = hs[lo:hi]
                nz = counts[doc_lo:doc_hi] > 0
                docs_idx = np.arange(doc_lo, doc_hi)[nz]
                starts = off2[docs_idx] - lo
                votes = np.empty((len(docs_idx), SIMHASH_BITS), dtype=np.int64)
                for b0 in range(0, SIMHASH_BITS, 16):
                    b1 = min(b0 + 16, SIMHASH_BITS)
                    shifts = np.arange(b0, b1, dtype=np.uint64)
                    bits = ((sub[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
                    votes[:, b0:b1] = np.add.reduceat(2 * bits - 1, starts, axis=0)
                sigs = ((votes > 0).astype(np.uint64) << shifts_all[None, :]).sum(
                    axis=1, dtype=np.uint64
                )
                out[docs_idx] = sigs.astype(np.int64)
    return pa.table({id_col: tbl.column(id_col), "simhash": pa.array(out, pa.int64())})


# ------------------------------------------------- embedding near-dup

_PLANE_CACHE: dict[tuple, np.ndarray] = {}


def _hyperplanes(seed: int, n_tables: int, n_planes: int, dim: int) -> np.ndarray:
    """Deterministic random hyperplanes, cached per worker process (the
    per-batch-regeneration anti-pattern flagged in round 1)."""
    key = (seed, n_tables, n_planes, dim)
    if key not in _PLANE_CACHE:
        _PLANE_CACHE[key] = np.random.default_rng(seed).standard_normal((n_tables, n_planes, dim))
    return _PLANE_CACHE[key]


def embedding_cosine_dups(
    ds: rd.Dataset,
    threshold: float = 0.45,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    round_dp: int = 6,
) -> rd.Dataset:
    """EXACT all-pairs cosine near-duplicates (id < other), emitted as
    (vec_id, dup_of, cosine_sim).

    The full normalized matrix is assembled INSIDE a Ray task (the driver
    only passes block refs; no data partition is ever ray.get on the
    driver) and broadcast once through the object store — each batch does
    one float64 matmul against it. Quadratic in candidates: this is the
    oracle/small-side variant, guarded by ``max_exact_rows``;
    ``embedding_lsh_dups`` is the scale path for bigger inputs.
    """
    import ray

    max_exact_rows = 200_000
    # materialize ONCE: count (size guard), the assemble gather, and the
    # final pair scan all consume the same dataset — on a derived input
    # each would otherwise re-run the upstream pipeline
    ds = ds.materialize()
    n_rows = ds.count()
    if n_rows > max_exact_rows:
        raise ValueError(
            f"embedding_cosine_dups is the exact O(n^2) variant ({n_rows} rows > "
            f"{max_exact_rows}); use embedding_lsh_dups for corpus-scale inputs"
        )

    @ray.remote
    def assemble(*parts: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        mats, ids_all = [], []
        for t in parts:
            if not t.num_rows:  # empty blocks carry NO columns (engine trap)
                continue
            ids_all.append(np.asarray(t.column(id_col).to_numpy(zero_copy_only=False)))
            m = np.asarray(t.column(emb_col).combine_chunks().flatten()).astype(np.float64)
            mats.append(m.reshape(t.num_rows, -1))
        if not mats:
            return np.array([], np.int64), np.zeros((0, 1))
        mat = np.vstack(mats)
        ids = np.concatenate(ids_all)
        order = np.argsort(ids, kind="stable")
        ids, mat = ids[order], mat[order]
        # clamp zero norms: a zero embedding stays the zero vector (sims 0,
        # matches nothing) instead of a silent NaN row
        mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-30)
        return ids, mat

    mat_ref = assemble.remote(*ds.to_arrow_refs())

    def pairs(tbl: pa.Table) -> pa.Table:
        all_ids, m = ray.get(mat_ref)
        my_ids = np.asarray(tbl.column(id_col).to_numpy(zero_copy_only=False))
        mine = np.asarray(tbl.column(emb_col).combine_chunks().flatten()).astype(np.float64)
        mine = mine.reshape(tbl.num_rows, -1)
        mine = mine / np.maximum(np.linalg.norm(mine, axis=1, keepdims=True), 1e-30)
        sims = mine @ m.T  # (batch, all)
        keep = (sims >= threshold) & (my_ids[:, None] < all_ids[None, :])
        bi, oj = np.nonzero(keep)
        return pa.table(
            {
                id_col: pa.array(my_ids[bi], pa.int64()),
                "dup_of": pa.array(all_ids[oj], pa.int64()),
                "cosine_sim": pa.array(np.round(sims[bi, oj], round_dp), pa.float64()),
            }
        )

    return ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)


def embedding_lsh_dups(
    ds: rd.Dataset,
    threshold: float = 0.45,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    n_planes: int = 12,
    n_tables: int = 6,
    seed: int = 77,
    planes_mode: str = "random",
    num_shards: int = 32,
    pair_buckets: int = 16,
    max_bucket: int = DEFAULT_MAX_BUCKET,
) -> rd.Dataset:
    """Scale path: hyperplane LSH — vectors sharing a sign-signature
    bucket in ANY table are candidates; exact cosine verified within the
    bucket. One shuffle of (bucket, id, vector) rows; recall < 1 by
    construction. ``planes_mode``: "random" = seeded Gaussian planes
    (built once per worker via ``_hyperplanes``, not per batch);
    "axes" = coordinate hyperplanes (table t uses dims
    [t*n_planes, (t+1)*n_planes)) — the sign bits are then
    ``embedding[d] > 0``, which a SQL oracle reproduces exactly."""

    def sig_stage(tbl: pa.Table) -> pa.Table:
        m = np.asarray(tbl.column(emb_col).combine_chunks().flatten()).astype(np.float64)
        m = m.reshape(tbl.num_rows, -1)
        dim = m.shape[1]
        if planes_mode == "axes":
            if n_tables * n_planes > dim:
                raise ValueError("axes mode needs n_tables*n_planes <= dim")
            planes = np.zeros((n_tables, n_planes, dim))
            for t_i in range(n_tables):
                for p_i in range(n_planes):
                    planes[t_i, p_i, t_i * n_planes + p_i] = 1.0
        else:
            planes = _hyperplanes(seed, n_tables, n_planes, dim)
        ids = np.asarray(tbl.column(id_col).to_numpy(zero_copy_only=False))
        out_bucket, out_table, out_id, out_vec = [], [], [], []
        for t_i in range(n_tables):
            signs = (m @ planes[t_i].T) > 0  # (n, planes)
            sig = (signs.astype(np.uint64) << np.arange(n_planes, dtype=np.uint64)).sum(axis=1)
            out_bucket.append(sig)
            out_table.append(np.full(len(ids), t_i, dtype=np.int32))
            out_id.append(ids)
            out_vec.append(m)
        vecs = np.vstack(out_vec)
        return pa.table(
            {
                "lsh_table": pa.array(np.concatenate(out_table)),
                "bucket": pa.array(np.concatenate(out_bucket), pa.uint64()),
                id_col: pa.array(np.concatenate(out_id), pa.int64()),
                emb_col: pa.FixedSizeListArray.from_arrays(
                    pa.array(vecs.reshape(-1), pa.float64()), vecs.shape[1]
                ),
            }
        )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_s = [], [], []
        if len(df):
            # drop singleton buckets vectorized — iterating them in the
            # group loop was most of the stage's pandas overhead
            sizes = df.groupby(["lsh_table", "bucket"], sort=False)[id_col].transform("size").to_numpy()
            df = df[sizes > 1]
        for bk, g in df.groupby(["lsh_table", "bucket"], sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values(id_col).drop_duplicates(subset=[id_col])
            # fat-bucket cap (same policy as every banded pair emitter):
            # identical/degenerate vectors collapse into one bucket whose
            # m x m sims matrix is otherwise unbounded
            g = _cap_bucket(g, max_bucket, "embedding_lsh_dups", bk)
            m = np.stack(g[emb_col].to_numpy())
            # clamp zero norms: a zero embedding matches nothing instead
            # of silently NaN-ing its whole row
            m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)
            ids = g[id_col].to_numpy()
            sims = m @ m.T
            ii, jj = np.nonzero((sims >= threshold) & (ids[:, None] < ids[None, :]))
            out_a.append(ids[ii])
            out_b.append(ids[jj])
            out_s.append(np.round(sims[ii, jj], 6))
        res = pd.DataFrame(
            {
                id_col: np.concatenate(out_a) if out_a else np.array([], np.int64),
                "dup_of": np.concatenate(out_b) if out_b else np.array([], np.int64),
                "cosine_sim": np.concatenate(out_s) if out_s else np.array([], np.float64),
            }
        )
        return res.astype({id_col: "int64", "dup_of": "int64", "cosine_sim": "float64"})

    def shard(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "__shard", pa.array((tbl.column("bucket").to_numpy() % np.uint64(num_shards)).astype(np.int64))
        )

    cand = (
        ds.map_batches(sig_stage, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(shard, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__shard")
        .map_groups(lambda df: bucket_pairs(df.drop(columns=["__shard"])), batch_format="pandas")
    )

    # a pair can surface from several tables/buckets: dedup on (id, dup_of)
    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=[id_col, "dup_of"])

    from vaero_ray.stages.keyed import bucketed_map_groups

    return bucketed_map_groups(cand, id_col, dedup_pairs, num_buckets=pair_buckets)


# ------------------------------------------------- n-gram Jaccard


def _pairwise_intersections(flat_vals: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """(m, m) int64 matrix of ``|set_i & set_j|`` from concatenated
    per-doc UNIQUE value sets: one ``np.unique`` over the bucket, then an
    incidence-matrix matmul (float32 is exact for counts < 2^24),
    gram-chunked so the temp matrix stays under ~64 MB however fat the
    bucket is. Replaces round-2's O(m^2) per-pair ``np.intersect1d``
    Python loop with one vectorized pass."""
    m = len(lens)
    uniq, inv = np.unique(flat_vals, return_inverse=True)
    doc_idx = np.repeat(np.arange(m, dtype=np.int64), lens)
    n_uniq = len(uniq)
    out = np.zeros((m, m), dtype=np.int64)
    gstep = max(1, (64 << 20) // max(4 * m, 1))
    for glo in range(0, n_uniq, gstep):
        ghi = min(glo + gstep, n_uniq)
        sel = (inv >= glo) & (inv < ghi)
        mb = np.zeros((m, ghi - glo), dtype=np.float32)
        mb[doc_idx[sel], inv[sel] - glo] = 1.0
        out += np.rint(mb @ mb.T).astype(np.int64)
    return out


def _unique_per_seg(vals: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-unique values per segment. Returns (values, offsets[n+1]).

    Fast path: when (seg_bits + value_bits) fit an int64, pack
    ``seg << vbits | val`` and run ONE flat ``np.sort`` — ~3x faster
    than the two-pass stable lexsort on the winnowing workload (4.6 ->
    1.5 s per 27M-value block), with identical output (the shared shift
    preserves within-segment value order). Wide values (e.g. 61-bit
    shingle hashes) take the lexsort fallback."""
    n = len(counts)
    offs = np.zeros(n + 1, dtype=np.int64)
    if not len(vals):
        return vals, offs
    seg = np.repeat(np.arange(n, dtype=np.int64), counts)
    # int64-only: the 64-bit shingle hashes are uint64, whose | with the
    # int64 seg would raise — they keep the lexsort path regardless (64
    # value bits never fit beside seg bits)
    if vals.dtype == np.int64 and int(vals.min()) >= 0:
        vbits = max(1, int(vals.max()).bit_length())
        sbits = max(1, int(n - 1).bit_length()) if n > 1 else 1
        if vbits + sbits <= 63:
            comb = np.sort((seg << vbits) | vals)
            first = np.ones(len(comb), dtype=bool)
            first[1:] = comb[1:] != comb[:-1]
            comb = comb[first]
            np.cumsum(np.bincount(comb >> vbits, minlength=n), out=offs[1:])
            return comb & ((np.int64(1) << vbits) - 1), offs
    order = np.lexsort((vals, seg))
    v_s, seg_s = vals[order], seg[order]
    first = np.ones(len(v_s), dtype=bool)
    first[1:] = (v_s[1:] != v_s[:-1]) | (seg_s[1:] != seg_s[:-1])
    np.cumsum(np.bincount(seg_s[first], minlength=n), out=offs[1:])
    return v_s[first], offs


def _shingle_sets_char(tbl: pa.Table, text_col: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc sorted-unique k-CHAR shingle hash sets (flat + offsets)."""
    data, off = _flat_texts(tbl, text_col)
    sh, sh_off = _flat_shingle_hashes(data, off, k)
    return _unique_per_seg(sh, sh_off[1:] - sh_off[:-1])


def _shingle_sets_word(tbl: pa.Table, text_col: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc sorted-unique k-WORD shingle hash sets over lowercased
    whitespace tokens (w-shingling). Docs with fewer than k tokens have
    an empty set (mirrors the SQL n-gram construction). Hash = rolling
    polynomial (uint64 wrap) over per-token siphashes — internal only;
    true-Jaccard counts on these hashes equal counts on the n-gram
    STRINGS modulo 2^-64 collisions."""
    n = tbl.num_rows
    toks, off2 = _flat_tokens(tbl, text_col)
    counts = off2[1:] - off2[:-1]
    if not len(toks):
        return np.empty(0, np.uint64), np.zeros(n + 1, dtype=np.int64)
    th = pd.util.hash_array(toks.to_numpy(zero_copy_only=False), categorize=False).astype(np.uint64)
    s = np.maximum(counts - k + 1, 0)
    if len(th) < k or not s.sum():
        return np.empty(0, np.uint64), np.zeros(n + 1, dtype=np.int64)
    n_win = len(th) - k + 1
    h = np.zeros(n_win, dtype=np.uint64)
    for j in range(k):
        h += th[j : j + n_win] * (_SHINGLE_BASE ** np.uint64(k - 1 - j))
    pos = np.repeat(off2[:-1], s) + _seg_arange(s)
    return _unique_per_seg(h[pos], s)


def _minhash_from_sets(values: np.ndarray, offs: np.ndarray, num_perm: int) -> np.ndarray:
    """(n, num_perm) MinHash signature matrix from per-doc hash sets.
    Empty sets get all-max sentinel signatures (never band-collide with
    real ones except with other empty sets — harmless: union=0 pairs are
    dropped at verification)."""
    a, b = _perm_params_cached(num_perm)
    n = len(offs) - 1
    sigs = np.full((n, num_perm), _MERSENNE, dtype=np.uint64)
    if len(values):
        _minhash_into(sigs, values, offs, a, b)
    return sigs


def ngram_jaccard_dups(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    unit: str = "char",
    max_bucket: int = DEFAULT_MAX_BUCKET,
    num_shards: int = 32,
    pair_buckets: int = 16,
) -> rd.Dataset:
    """EXACT n-gram Jaccard over MinHash-LSH candidate pairs: LSH proposes
    (cheap, one shuffle of signatures + shingle-hash sets), true Jaccard
    of the k-gram sets confirms ALL intra-bucket pairs. ``unit``:
    "char" = k-character shingles, "word" = k-token shingles (w-shingling
    over lowercased whitespace tokens). Output: (doc_id, dup_of,
    n_common, n_union) with doc_id > dup_of — exact integers a SQL oracle
    reproduces from the n-gram STRINGS."""
    if num_perm % bands:
        raise ValueError(
            f"bands ({bands}) must divide num_perm ({num_perm}) — a non-divisor "
            "would crash mid-pipeline in the band reshape"
        )
    set_fn = {"char": _shingle_sets_char, "word": _shingle_sets_word}[unit]

    def sig_and_shingles(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        values, offs = (
            set_fn(tbl, text_col, shingle_k) if n else (np.empty(0, np.uint64), np.zeros(1, np.int64))
        )
        sigs = _minhash_from_sets(values, offs, num_perm)
        return pa.table(
            {
                id_col: tbl.column(id_col),
                "signature": pa.FixedSizeListArray.from_arrays(
                    pa.array(sigs.reshape(-1), pa.uint64()), num_perm
                ),
                "shingles": pa.LargeListArray.from_arrays(
                    pa.array(offs), pa.array(values, pa.uint64())
                ),
            }
        )

    rows_per_band = num_perm // bands

    def band_stage(tbl: pa.Table) -> pa.Table:
        # drop docs with EMPTY shingle sets BEFORE the band shuffle: a
        # sub-k-token doc can never pair (jaccard undefined / union 0),
        # but its sentinel signature band-collides with every other
        # short doc — on a short-doc-heavy corpus that ships
        # n_short x bands useless rows into a few giant buckets and
        # fires misleading fat-bucket cap warnings
        nonempty = pc.greater(pc.list_value_length(tbl.column("shingles")), 0)
        tbl = tbl.filter(nonempty)
        n = tbl.num_rows
        if not n:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "shingles": pa.array([], pa.large_list(pa.uint64())),
                    "band_id": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.uint64()),
                }
            )
        sig = np.asarray(tbl.column("signature").combine_chunks().flatten()).reshape(n, num_perm)
        chunks = sig.reshape(n, bands, rows_per_band)
        bh = chunks[:, :, 0].copy()
        for j in range(1, rows_per_band):
            bh = bh * _FNV_PRIME + chunks[:, :, j]
        idx = np.repeat(np.arange(n), bands)
        out = tbl.select([id_col, "shingles"]).take(pa.array(idx))
        out = out.append_column("band_id", pa.array(np.tile(np.arange(bands, dtype=np.int32), n)))
        return out.append_column("band_hash", pa.array(bh.reshape(-1), pa.uint64()))

    def bucket_stage(df: pd.DataFrame) -> pd.DataFrame:
        """True-Jaccard verification of ALL intra-bucket pairs in one
        vectorized pass per bucket: the bucket's shingle sets become a
        doc x unique-gram incidence matrix and a chunked matmul yields
        every pairwise intersection size (``_pairwise_intersections``) —
        no per-pair Python work, so template-heavy fat buckets stay
        kernel-bound."""
        out_id, out_dup, out_c, out_u = [], [], [], []
        if len(df):
            # drop singleton buckets vectorized before the group loop
            sizes = df.groupby(["band_id", "band_hash"], sort=False)[id_col].transform("size").to_numpy()
            df = df[sizes > 1]
        for bk, g in df.groupby(["band_id", "band_hash"], sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values(id_col).drop_duplicates(subset=[id_col])
            # cap bounds the m x m intersection/union matrices to
            # max_bucket^2 (the gram temps inside _pairwise_intersections
            # are already chunked to 64 MB)
            g = _cap_bucket(g, max_bucket, "ngram_jaccard_dups", bk)
            ids = g[id_col].to_numpy()
            sets = g["shingles"].to_numpy()
            lens = np.fromiter((len(s) for s in sets), dtype=np.int64, count=len(sets))
            if not lens.sum():
                continue
            flat = np.concatenate([np.asarray(s, dtype=np.uint64) for s in sets])
            inter = _pairwise_intersections(flat, lens)
            union = lens[:, None] + lens[None, :] - inter
            with np.errstate(invalid="ignore", divide="ignore"):
                jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
            ii, jj = np.nonzero((jac >= threshold) & (union > 0) & (ids[:, None] > ids[None, :]))
            out_id.append(ids[ii])
            out_dup.append(ids[jj])
            out_c.append(inter[ii, jj])
            out_u.append(union[ii, jj])
        res = pd.DataFrame(
            {
                id_col: np.concatenate(out_id) if out_id else np.array([], np.int64),
                "dup_of": np.concatenate(out_dup) if out_dup else np.array([], np.int64),
                "n_common": np.concatenate(out_c) if out_c else np.array([], np.int64),
                "n_union": np.concatenate(out_u) if out_u else np.array([], np.int64),
            }
        )
        return res.astype({id_col: "int64", "dup_of": "int64", "n_common": "int64", "n_union": "int64"})

    def shard(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "__shard", pa.array((tbl.column("band_hash").to_numpy() % np.uint64(num_shards)).astype(np.int64))
        )

    cand = (
        ds.map_batches(sig_and_shingles, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(band_stage, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(shard, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__shard")
        .map_groups(lambda df: bucket_stage(df.drop(columns=["__shard"])), batch_format="pandas")
    )

    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values([id_col, "dup_of"], kind="mergesort").drop_duplicates(
            subset=[id_col, "dup_of"]
        )

    from vaero_ray.stages.keyed import bucketed_map_groups

    return bucketed_map_groups(cand, id_col, dedup_pairs, num_buckets=pair_buckets)


def simhash_dup_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 8,
    max_bucket: int = DEFAULT_MAX_BUCKET,
    num_shards: int = 32,
    pair_buckets: int = 16,
) -> rd.Dataset:
    """SimHash near-duplicate pairs: docs whose 62-bit signatures differ
    in <= ``max_hamming`` bits AND share at least one of the 4 bands
    (16/16/16/14 bits). The band condition is part of the operator's
    documented semantics (guaranteed-complete for hamming <= 3; a
    recall-bounded scale path at larger radii) and is reproduced verbatim
    by the SQL oracle, so the gate match is exact. Verification by
    vectorized XOR popcount inside each band bucket.

    Scale sizing: one band-space shard's PAIR OUTPUT materializes in its
    task before Ray re-blocks it, so ``num_shards`` must satisfy
    expected_pairs / num_shards x 24 B << task heap — on dup-dense
    corpora (boilerplate/template text) raise it into the thousands
    (the 32M-turn rehearsal OOMed a 14 GB worker at the default 32).
    ``pair_buckets`` sizes the final pair-dedup exchange the same way
    (pairs / pair_buckets per task). Results are shard-invariant: both
    only partition work."""

    def sig_stage(tbl: pa.Table) -> pa.Table:
        return simhash_signatures(tbl, text_col, id_col)

    band_masks = [(0, 0xFFFF), (16, 0xFFFF), (32, 0xFFFF), (48, 0x3FFF)]

    def band_stage(tbl: pa.Table) -> pa.Table:
        sig = tbl.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
        n = len(ids)
        bands, hashes = [], []
        for b, (shift, mask) in enumerate(band_masks):
            bands.append(np.full(n, b, dtype=np.int32))
            hashes.append((sig >> np.uint64(shift)) & np.uint64(mask))
        return pa.table(
            {
                "band_id": pa.array(np.concatenate(bands)),
                "band_hash": pa.array(np.concatenate(hashes), pa.uint64()),
                id_col: pa.array(np.tile(ids, 4)),
                "simhash": pa.array(np.tile(sig, 4), pa.uint64()),
            }
        )

    def bucket_stage(df: pd.DataFrame) -> pd.DataFrame:
        out_id, out_dup, out_ham = [], [], []
        # ONE global sort + dedup + segment scan replaces the former
        # pandas groupby loop (per-group DataFrame construction +
        # per-group sort_values/drop_duplicates dominated shards with
        # many small candidate buckets); the remaining Python loop is
        # over >=2-doc segments only, pure ndarray slicing inside
        if len(df):
            df = df.sort_values(
                ["band_id", "band_hash", id_col], kind="mergesort"
            ).drop_duplicates(subset=["band_id", "band_hash", id_col])
        if len(df):
            bid = df["band_id"].to_numpy()
            bh = df["band_hash"].to_numpy().astype(np.uint64)
            ids_all = df[id_col].to_numpy()
            sig_all = df["simhash"].to_numpy().astype(np.uint64)
            change = np.empty(len(df), dtype=bool)
            change[0] = True
            change[1:] = (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])
            starts = np.flatnonzero(change)
            ends = np.append(starts[1:], len(df))
            seg_iter = zip(starts[ends - starts > 1], ends[ends - starts > 1])
        else:
            seg_iter = ()
        for s, e in seg_iter:
            if e - s > max_bucket:
                _DEDUP_LOG.warning(
                    "simhash_dup_pairs: capping fat candidate bucket "
                    "(band_id=%d, band_hash=%d): %d docs > max_bucket=%d "
                    "(dropping %d docs from this bucket's pair emission)",
                    bid[s], bh[s], e - s, max_bucket, e - s - max_bucket,
                )
                e = s + max_bucket  # ids are segment-sorted: smallest-id sample
            ids = ids_all[s:e]
            sig = sig_all[s:e]
            m = e - s
            # row-chunked XOR+popcount: temps stay ~32 MB however close m
            # is to max_bucket (the m x m matrix was the last unbounded
            # per-bucket allocation)
            step = max(1, (32 << 20) // max(8 * m, 1))
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                x = sig[lo:hi, None] ^ sig[None, :]
                ham = _popcount64(x)
                ii, jj = np.nonzero((ham <= max_hamming) & (ids[lo:hi, None] < ids[None, :]))
                # convention shared with ngram_jaccard_dups: doc_id > dup_of;
                # array-sliced emission (a fat template bucket yields millions
                # of pairs — a per-pair Python append was the whole stage cost)
                out_id.append(ids[jj])
                out_dup.append(ids[lo + ii])
                out_ham.append(ham[ii, jj])
        res = pd.DataFrame(
            {
                id_col: np.concatenate(out_id) if out_id else np.array([], np.int64),
                "dup_of": np.concatenate(out_dup) if out_dup else np.array([], np.int64),
                "hamming": np.concatenate(out_ham) if out_ham else np.array([], np.int64),
            }
        )
        return res.astype({id_col: "int64", "dup_of": "int64", "hamming": "int64"})

    def shard(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "__shard",
            pa.array(((tbl.column("band_hash").to_numpy().astype(np.uint64)
                       + np.uint64(7919) * tbl.column("band_id").to_numpy().astype(np.uint64))
                      % np.uint64(num_shards)).astype(np.int64)),
        )

    cand = (
        ds.map_batches(sig_stage, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(band_stage, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(shard, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__shard")
        .map_groups(lambda df: bucket_stage(df.drop(columns=["__shard"])), batch_format="pandas")
    )

    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values([id_col, "dup_of"], kind="mergesort").drop_duplicates(
            subset=[id_col, "dup_of"]
        )

    from vaero_ray.stages.keyed import bucketed_map_groups

    return bucketed_map_groups(cand, id_col, dedup_pairs, num_buckets=pair_buckets)


def line_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    sep: str = "\n",
    min_chars: int = 2,
    num_buckets: "int | None" = None,
) -> rd.Dataset:
    """C4/RefinedWeb-style exact LINE deduplication across the corpus:
    split every document on ``sep``; a line of ``min_chars`` or more
    characters survives only at its FIRST occurrence corpus-wide
    (min ``(id_col, line_idx)`` over all bit-identical lines); shorter
    lines (blank separators, bullets) always survive. Documents are
    reassembled in original line order with ``sep``; docs whose every
    line was dropped emit no row (mirrored by the SQL oracle's GROUP BY
    over kept lines).

    Output: ``(id_col, text, n_lines, n_kept)`` — cleaned text, the
    original and surviving line counts.

    Scale shape: explode is a stateless zero-copy Arrow pass (list
    flatten + segmented arange — no per-row Python); ONE bucketed
    shuffle on the line's 64-bit siphash co-locates every occurrence of
    a line (collisions are harmless: the winner is resolved by merging
    on the actual line VALUE inside the bucket, same bit-exactness
    contract as ``exact_dedup`` carry mode); a second bucketed shuffle
    on ``id_col`` reassembles docs. Both exchanges carry the line
    payload — the keys-only "project" variant (ship (h, id, idx)
    triples, semi-join survivors back) is the same composition as
    ``exact_dedup payload_mode="project"`` and is the 100-TB path when
    line text dominates; at the tested scales two payload exchanges
    beat the third read the project shape needs."""
    import pyarrow.compute as pc

    from vaero_ray.stages.keyed import bucketed_map_groups

    def explode(tbl: pa.Table) -> pa.Table:
        lines = pc.split_pattern(tbl.column(text_col), sep)
        counts = pc.list_value_length(lines).to_numpy().astype(np.int64)
        flat = pc.list_flatten(lines)
        ids = np.repeat(tbl.column(id_col).to_numpy(), counts)
        h = pd.util.hash_array(
            flat.to_pandas().to_numpy(dtype=object), categorize=False
        ).astype(np.uint64)
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "line_idx": pa.array(_seg_arange(counts), pa.int64()),
                "line": flat,
                "n_lines": pa.array(np.repeat(counts, counts), pa.int64()),
                "__h": pa.array(h, pa.uint64()),
            }
        )

    def keep_stage(df: pd.DataFrame) -> pd.DataFrame:
        elig = df["line"].str.len() >= min_chars
        keep = np.ones(len(df), dtype=bool)
        sub = df[elig]
        if len(sub):
            first = sub.sort_values([id_col, "line_idx"], kind="mergesort").drop_duplicates(
                subset=["line"]
            )
            m = sub.merge(
                first[["line", id_col, "line_idx"]], on="line", how="left",
                suffixes=("", "_w"),
            )
            keep[elig.to_numpy()] = (
                m[f"{id_col}_w"].to_numpy() == m[id_col].to_numpy()
            ) & (m["line_idx_w"].to_numpy() == m["line_idx"].to_numpy())
        return df[keep].drop(columns="__h")

    def assemble(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col, "line_idx"], kind="mergesort")
        g = df.groupby(id_col, sort=False)
        text = g["line"].agg(sep.join)
        out = pd.DataFrame(
            {
                id_col: text.index.to_numpy(),
                "text": text.to_numpy(),
                "n_lines": g["n_lines"].first().to_numpy(),
                "n_kept": g.size().to_numpy(),
            }
        )
        return out.astype({id_col: "int64", "n_lines": "int64", "n_kept": "int64"})

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    kept = bucketed_map_groups(exploded, "__h", keep_stage, num_buckets=num_buckets)
    return bucketed_map_groups(kept, id_col, assemble, num_buckets=num_buckets)


def dedup_keep_best(
    docs: rd.Dataset,
    edges: rd.Dataset,
    id_col: str = "doc_id",
    quality_col: str = "n_chars",
    a_col: str = "doc_id",
    b_col: str = "dup_of",
    num_buckets: "int | None" = None,
    broadcast_max_labels: int = 2_000_000,
) -> rd.Dataset:
    """Cluster-level dedup that keeps each dup cluster's BEST member (the
    greatest ``quality_col``, ties to the smallest id) instead of the
    arbitrary first — the standard near-dup removal policy when documents
    carry a quality score. ``edges`` is any verified dup-pair dataset
    (``ngram_jaccard_dups``, ``minhash_dup_edges``, ...).

    Output: one row per SURVIVING document — ``(id_col, cluster)`` where
    ``cluster`` is the connected component's min id for cluster reps and
    the document's own id for non-duplicated docs.

    Shape: every document belongs to exactly ONE cluster — its component
    label when it is a dup-cluster member, else its own id (singleton
    clusters can't collide with member clusters: a member label IS a
    member id, and a non-member's id is by definition not one). Survivors
    are then simply best-per-cluster over ``(id, cluster, quality)``
    triples — one bucketed exchange; the earlier member-join + anti
    semi-join + union shape paid two extra Dataset executions (~3.5 s
    fixed at sf0.1) to compute the same rows.

    Cluster assignment: labels (one row per VERIFIED dup-cluster member —
    tiny next to the corpus, bounded by the verified pair set) up to
    ``broadcast_max_labels`` rows broadcast as two sorted int64 arrays via
    ``ray.put`` and resolve inside the docs scan with ``np.searchsorted``;
    bigger label sets fall back to a left-outer hash join + fill-null.
    Both paths feed the same triple exchange — the document payload never
    enters any shuffle."""
    import ray

    from vaero_ray.stages.graph import connected_components
    from vaero_ray.stages.joins import hash_join
    from vaero_ray.stages.keyed import bucketed_map_groups

    labels = connected_components(
        edges, a_col=a_col, b_col=b_col, id_out=id_col, label_out="cluster"
    ).materialize()
    proj = docs.select_columns([id_col, quality_col])

    if labels.count() <= broadcast_max_labels:
        blocks = [t for t in ray.get(labels.to_arrow_refs()) if t.num_rows]
        if blocks:
            lab_tbl = pa.concat_tables(blocks)
            lab_ids = lab_tbl.column(id_col).cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            lab_cls = lab_tbl.column("cluster").cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            order = np.argsort(lab_ids, kind="stable")
            lab_ref = ray.put((lab_ids[order], lab_cls[order]))
        else:
            lab_ref = ray.put((np.empty(0, np.int64), np.empty(0, np.int64)))

        def assign(tbl: pa.Table) -> pa.Table:
            ids_s, cls_s = ray.get(lab_ref)
            ids = tbl.column(id_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
            clus = ids.copy()
            if len(ids_s):
                pos = np.searchsorted(ids_s, ids)
                pos_c = np.minimum(pos, len(ids_s) - 1)
                hit = ids_s[pos_c] == ids
                clus[hit] = cls_s[pos_c[hit]]
            return pa.table(
                {
                    id_col: pa.array(ids, pa.int64()),
                    "cluster": pa.array(clus, pa.int64()),
                    quality_col: tbl.column(quality_col),
                }
            )

        triples = proj.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    else:
        joined = hash_join(proj, labels, keys=id_col, join_type="left")

        def coalesce(tbl: pa.Table) -> pa.Table:
            ids = tbl.column(id_col).cast(pa.int64())
            clus = pc.coalesce(tbl.column("cluster").cast(pa.int64()), ids)
            return pa.table(
                {id_col: ids, "cluster": clus, quality_col: tbl.column(quality_col)}
            )

        triples = joined.map_batches(
            coalesce, batch_format="pyarrow", zero_copy_batch=True
        )

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["cluster", quality_col, id_col],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return (
            df.drop_duplicates(subset=["cluster"], keep="first")[[id_col, "cluster"]]
            .reset_index(drop=True)
            .astype({id_col: "int64", "cluster": "int64"})
        )

    return bucketed_map_groups(triples, "cluster", best, num_buckets=num_buckets)


def ngram_containment_dups(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 5,
    containment_num: int = 4,
    containment_den: int = 5,
    max_postings: int = 256,
    num_shards: int = 32,
    pair_buckets: int = 16,
) -> rd.Dataset:
    """ASYMMETRIC n-gram containment near-dup pairs — quote / subset
    detection, the case Jaccard-LSH structurally misses (a short doc
    fully contained in a long one has tiny Jaccard but containment ~1,
    so MinHash bands rarely collide): candidates come from an INVERTED
    INDEX instead. Containment is over the CAPPED gram space:
    ``c = |kept(A) ∩ kept(B)| / min(|kept(A)|, |kept(B)|)``, keeping a
    pair when ``containment_den * inter >= containment_num * min`` —
    an exact integer test (default 4/5 = 0.8), no float compare.

    The stop-gram cap IS the documented semantics, not a silent recall
    loss: grams appearing in more than ``max_postings`` docs are
    boilerplate carrying no containment signal, and the SQL oracle
    excludes them identically (df <= max_postings), so the gate match
    stays exact. Scale shape: grams hash-shard (a gram's posting list
    lives whole in ONE shard, so per-shard df IS global df); per shard
    the pair emission is the same numpy offset arithmetic as the basket
    emitters, bounded by df^2 <= max_postings^2 per gram; per-doc
    kept-gram counts ride the SAME exchange as sentinel rows
    (dup_of = -1), so one keyed-sum merge produces both the pair
    intersections and the denominators; two adaptive joins attach the
    denominators and the integer threshold prunes before anything
    returns. Thin wrapper over :func:`_containment_core` (shared with
    the generic :func:`set_containment_pairs`)."""

    def explode(tbl: pa.Table) -> pa.Table:
        n = tbl.num_rows
        values, offs = (
            _shingle_sets_char(tbl, text_col, shingle_k)
            if n else (np.empty(0, np.uint64), np.zeros(1, np.int64))
        )
        counts = offs[1:] - offs[:-1]
        ids = tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        out_ids = np.repeat(ids, counts)
        shard = (values % np.uint64(num_shards)).astype(np.int64)
        return pa.table(
            {
                "id": pa.array(out_ids, pa.int64()),
                "g": pa.array(values, pa.uint64()),
                "__shard": pa.array(shard, pa.int64()),
            }
        )

    grams = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    return _containment_core(
        grams, id_col, containment_num, containment_den,
        max_postings, pair_buckets,
    )


def set_containment_pairs(
    ds: rd.Dataset,
    group_col: str,
    item_col: str,
    containment_num: int = 2,
    containment_den: int = 3,
    min_common: int = 1,
    max_postings: int = 4096,
    num_shards: int = 32,
    pair_buckets: int = 16,
) -> rd.Dataset:
    """Generic SET-CONTAINMENT SIMILARITY JOIN over (group, item) rows
    — which groups' item sets are substantially contained in another's
    (near-identical orders, users with subset behavior, duplicated
    playlists)? Same inverted-index machinery as
    :func:`ngram_containment_dups` with the group's items as the
    "grams": integer items pass through EXACTLY (uint64 reinterpret, no
    hashing — the oracle joins on raw values), the df cap drops
    ubiquitous items (documented semantics, mirrored in SQL), and
    ``min_common`` prunes trivial one-item overlaps. Output:
    (``group_col``, dup_of, n_common, n_small), group id > dup_of."""

    def explode(tbl: pa.Table) -> pa.Table:
        ids = tbl.column(group_col).to_numpy(zero_copy_only=False).astype(np.int64)
        g = tbl.column(item_col).to_numpy(zero_copy_only=False).astype(np.int64)
        shard = (g.astype(np.uint64) % np.uint64(num_shards)).astype(np.int64)
        return pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "g": pa.array(g.astype(np.uint64), pa.uint64()),
                "__shard": pa.array(shard, pa.int64()),
            }
        )

    grams = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    out = _containment_core(
        grams, group_col, containment_num, containment_den,
        max_postings, pair_buckets, min_common=min_common,
    )
    return out


def _containment_core(
    grams: rd.Dataset,
    id_col: str,
    containment_num: int,
    containment_den: int,
    max_postings: int,
    pair_buckets: int,
    min_common: int = 1,
) -> rd.Dataset:
    """Shared posting-list containment machinery: ``grams`` rows are
    (id:int64, g:uint64, __shard:int64) — see the two public wrappers
    for the semantics and the scale shape."""
    from vaero_ray.stages.joins import auto_join
    from vaero_ray.stages.keyed import bucketed_keyed_sum

    def shard_pairs(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"ida": pd.Series([], dtype="int64"), "idb": pd.Series([], dtype="int64"),
             "c": pd.Series([], dtype="int64")}
        )
        if not len(df):
            return empty
        df = df.drop_duplicates(["g", "id"])
        dfc = df.groupby("g", sort=False)["id"].transform("size").to_numpy()
        df = df[dfc <= max_postings]
        if not len(df):
            return empty
        # per-doc kept-gram counts -> sentinel rows (idb = -1)
        kn = df.groupby("id", sort=False).size().rename("c").reset_index()
        sent = pd.DataFrame(
            {"ida": kn["id"].to_numpy(np.int64),
             "idb": np.full(len(kn), -1, np.int64),
             "c": kn["c"].to_numpy(np.int64)}
        )
        # intra-gram pair emission (ida > idb), numpy offset arithmetic
        df = df.sort_values(["g", "id"], kind="mergesort")
        g = df["g"].to_numpy()
        ids = df["id"].to_numpy(np.int64)
        n = len(df)
        bounds = np.flatnonzero(g[1:] != g[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [n]))
        sizes = ends - starts
        end_at = np.repeat(ends, sizes)
        reps = end_at - np.arange(n) - 1
        total = int(reps.sum())
        if not total:
            return sent
        left = np.repeat(np.arange(n), reps)
        cum = np.concatenate(([0], np.cumsum(reps)))
        right = np.arange(total) - cum[left] + left + 1
        # ids ascend within a gram -> right id > left id; emit ida > idb
        part = pd.DataFrame({"ida": ids[right], "idb": ids[left]})
        pairs = part.groupby(["ida", "idb"], sort=False).size().rename("c").reset_index()
        pairs["c"] = pairs["c"].astype("int64")
        return pd.concat([pairs, sent], ignore_index=True)

    partials = grams.groupby("__shard").map_groups(
        lambda df: pa.Table.from_pandas(
            shard_pairs(df.drop(columns=["__shard"])), preserve_index=False
        ).replace_schema_metadata(None),
        batch_format="pandas",
    )
    merged = bucketed_keyed_sum(
        partials, ["ida", "idb"], ["c"], num_buckets=pair_buckets
    )

    def split_counts(tbl: pa.Table) -> pa.Table:
        t = tbl.filter(pc.equal(tbl.column("idb"), pa.scalar(-1, pa.int64())))
        return pa.table({"id": t.column("ida"), "kn": t.column("c")})

    def split_pairs(tbl: pa.Table) -> pa.Table:
        t = tbl.filter(pc.not_equal(tbl.column("idb"), pa.scalar(-1, pa.int64())))
        return pa.table(
            {"ida": t.column("ida"), "idb": t.column("idb"), "inter": t.column("c")}
        )

    counts = merged.map_batches(split_counts, batch_format="pyarrow", zero_copy_batch=True)
    pairs = merged.map_batches(split_pairs, batch_format="pyarrow", zero_copy_batch=True)

    def as_a(tbl: pa.Table) -> pa.Table:
        return tbl.rename_columns(["ida", "n_a"])

    def as_b(tbl: pa.Table) -> pa.Table:
        return tbl.rename_columns(["idb", "n_b"])

    j = auto_join(pairs, counts.map_batches(as_a, batch_format="pyarrow"), keys="ida")
    j = auto_join(j, counts.map_batches(as_b, batch_format="pyarrow"), keys="idb")

    def finalize(tbl: pa.Table) -> pa.Table:
        if not tbl.num_rows:
            return pa.table(
                {id_col: pa.array([], pa.int64()), "dup_of": pa.array([], pa.int64()),
                 "n_common": pa.array([], pa.int64()), "n_small": pa.array([], pa.int64())}
            )
        inter = tbl.column("inter").to_numpy(zero_copy_only=False)
        small = np.minimum(
            tbl.column("n_a").to_numpy(zero_copy_only=False),
            tbl.column("n_b").to_numpy(zero_copy_only=False),
        )
        keep = (containment_den * inter >= containment_num * small) & (
            inter >= min_common
        )
        return pa.table(
            {id_col: pa.array(tbl.column("ida").to_numpy(zero_copy_only=False)[keep], pa.int64()),
             "dup_of": pa.array(tbl.column("idb").to_numpy(zero_copy_only=False)[keep], pa.int64()),
             "n_common": pa.array(inter[keep], pa.int64()),
             "n_small": pa.array(small[keep], pa.int64())}
        )

    return j.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------- Winnowing


def winnow_fingerprints(
    tbl: pa.Table,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 8,
    w: int = 4,
) -> pa.Table:
    """Winnowing document fingerprints (Schleimer/Wilkerson/Aiken, the
    MOSS local-sampling scheme): k-char gram hashes of the normalized
    text, then the MIN hash of every full window of ``w`` consecutive
    grams; the per-doc fingerprint set is the DISTINCT selected values.
    Winnowing guarantees any shared substring of length >= k + w - 1
    yields at least one shared fingerprint (position-free, unlike
    MinHash's whole-doc sampling).

    SQL-reproducible by construction: gram hash = polynomial char-code
    fold base 31 mod FP_MOD over the lowercased whitespace-collapsed
    text (the `_FP_SQL` family), window min via MIN() OVER w-row frames,
    full windows only (docs with < k+w-1 normalized chars select
    nothing). All-vectorized: k shifted-add passes over the flat byte
    buffer for the grams, one sliding_window_view min for the windows,
    one segmented unique for the sets — no per-doc Python.

    Returns exploded rows (id_col, fp) — one row per distinct
    fingerprint per doc.
    """
    from vaero_ray.stages.textstats import FP_BASE, FP_MOD

    if k < 1 or k * 255 * FP_MOD >= 2**63:
        # the gram hash below sums k byte*power terms before one modulo;
        # past this k the int64 sum would overflow silently
        raise ValueError(f"winnow_fingerprints: k={k} must be in [1, {(2**63 - 1) // (255 * FP_MOD)}]")
    norm = pc.utf8_lower(pc.replace_substring_regex(tbl.column(text_col), r"\s+", " "))
    data, off = _flat_texts(pa.table({"__t": norm}), "__t")
    lens = off[1:] - off[:-1]
    n = len(lens)
    ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
    empty = pa.table(
        {id_col: pa.array([], pa.int64()), "fp": pa.array([], pa.int64())}
    )
    s = np.maximum(lens - k + 1, 0)  # grams per doc (full grams only)
    wins = np.maximum(s - w + 1, 0)  # full windows per doc
    if not int(wins.sum()):
        return empty
    # all flat-buffer k-gram hashes mod FP_MOD (per-term products stay
    # < FP_MOD * 255 < 2^48; the k-term sum < 2^52 -- int64-safe with a
    # single final reduction)
    n_flat = len(data) - k + 1
    d = data.astype(np.int64)
    pows = np.empty(k, dtype=np.int64)
    acc = 1
    for j in range(k - 1, -1, -1):
        pows[j] = acc
        acc = (acc * FP_BASE) % FP_MOD
    h = np.zeros(n_flat, dtype=np.int64)
    for j in range(k):
        # no per-term mod: each product < 256 * FP_MOD < 2^48 and the
        # k-term running sum < 2^51 — one final reduction is exact by
        # modular arithmetic and saves k full-array modulo passes
        h += d[j : j + n_flat] * pows[j]
    h %= FP_MOD
    # per-doc gram positions in the flat hash array
    gpos = np.repeat(off[:-1][s > 0], s[s > 0]) + _seg_arange(s[s > 0])
    gh = h[gpos]
    goff = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(s, out=goff[1:])
    # sliding min over the per-doc gram stream; windows crossing doc
    # boundaries are excluded by indexing only each doc's full windows
    fm = np.lib.stride_tricks.sliding_window_view(gh, w).min(axis=1)
    wpos = np.repeat(goff[:-1][wins > 0], wins[wins > 0]) + _seg_arange(wins[wins > 0])
    sel = fm[wpos]
    fp_vals, fp_off = _unique_per_seg(sel, wins)
    counts = fp_off[1:] - fp_off[:-1]
    return pa.table(
        {
            id_col: pa.array(np.repeat(ids, counts), pa.int64()),
            "fp": pa.array(fp_vals.astype(np.int64), pa.int64()),
        }
    )


def winnow_dup_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 8,
    w: int = 4,
    min_shared: int = 10,
    max_df: int = 16,
    max_bucket: int = DEFAULT_MAX_BUCKET,
    num_shards: "int | None" = None,
    pair_buckets: int = 16,
) -> rd.Dataset:
    """Near-duplicate pairs by SHARED WINNOWING FINGERPRINTS: docs whose
    fingerprint sets overlap in >= ``min_shared`` values, with
    fingerprints occurring in more than ``max_df`` docs dropped as
    stop-fingerprints (boilerplate grams would otherwise pair half the
    corpus; the cap is part of the CONTRACT, mirrored by the SQL
    oracle, not a silent heuristic).

    Scale shape: fingerprints emitted per block (no shuffle), ONE
    exchange sharded by fp hash co-locates each fingerprint's posting
    list (df filter is exact within a shard — a fingerprint lives in
    exactly one shard), pairs emitted array-sliced (right element x its
    left partners, no per-group Python), then a second small exchange
    sums shared counts per pair. ``max_bucket`` caps adversarial
    posting lists ABOVE the df filter only if ``max_df`` is raised past
    it. ``num_shards`` defaults DATA-SIZE-AWARE: the exploded
    fingerprint table is ~(len/k)x the input bytes in (doc, fp) rows,
    so the shard count derives from the read lineage like
    ``keyed.derive_num_buckets`` (explicit values always win). Output:
    (doc_id, dup_of, shared_fps), doc_id > dup_of.

    Stop-fingerprint pre-collapse (exactness-preserving): a fingerprint
    whose WITHIN-BLOCK document frequency already exceeds ``max_df`` is
    certainly over the cap globally (block rows are a subset), so its
    posting rows collapse to ONE marker row per block — (fp, doc_id=-1,
    cnt=block_df) — before the exchange. The shard-side df filter sums
    ``cnt`` (real rows carry 1), so the total per fingerprint is the
    exact global df and any marker forces the group over the cap —
    bit-identical output to the naive explode, with boilerplate grams
    (the bulk of the exploded volume on real corpora) never shipped.
    This is the inverted-index sampled-df trick (textstats.py) in its
    zero-extra-pass form: the "sample" is each block itself, and the
    certainty direction (subset df is a lower bound) makes the drop
    decision exact without a confirmation pass.
    """
    if num_shards is None:
        from vaero_ray.stages.keyed import derive_num_buckets

        # fingerprints explode ~2x the text bytes into fixed 16-byte
        # rows; derive against a halved per-task budget to absorb it
        num_shards = derive_num_buckets(ds, target_task_bytes=128 << 20,
                                        floor=32)

    def fps(tbl: pa.Table) -> pa.Table:
        out = winnow_fingerprints(tbl, text_col, id_col, k, w)
        fp = out.column("fp").to_numpy(zero_copy_only=False)
        ids = out.column(id_col).to_numpy(zero_copy_only=False)
        # within-block df per fp; over-cap fps collapse to one marker row
        # carrying the replaced count (see docstring: subset df > max_df
        # proves global df > max_df, so the drop is exact)
        uniq, inv, counts = np.unique(fp, return_inverse=True, return_counts=True)
        over = counts > max_df
        if not over.any():
            cnt = np.ones(len(fp), dtype=np.int64)
            return out.append_column("cnt", pa.array(cnt))
        keep = ~over[inv]
        return pa.table(
            {
                id_col: pa.array(
                    np.concatenate([ids[keep], np.full(int(over.sum()), -1, np.int64)]),
                    pa.int64(),
                ),
                "fp": pa.array(
                    np.concatenate([fp[keep], uniq[over]]).astype(np.int64), pa.int64()
                ),
                "cnt": pa.array(
                    np.concatenate(
                        [np.ones(int(keep.sum()), np.int64), counts[over].astype(np.int64)]
                    ),
                    pa.int64(),
                ),
            }
        )

    def shard(tbl: pa.Table) -> pa.Table:
        # fp is already a well-mixed polynomial hash mod a prime — its
        # residue shards evenly; no second hash needed
        fp = tbl.column("fp").to_numpy(zero_copy_only=False)
        return tbl.append_column("__shard", pa.array(fp % num_shards, pa.int64()))

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {id_col: pd.array([], dtype="int64"),
             "dup_of": pd.array([], dtype="int64"),
             "shared": pd.array([], dtype="int64")}
        )
        if not len(df):
            return empty
        df = df.sort_values(["fp", id_col], kind="mergesort", ignore_index=True)
        # exact global df = sum of cnt (real rows carry 1; a marker row
        # carries its block's collapsed count and forces the group over
        # the cap — its doc_id=-1 sorts first and is dropped with the
        # whole group here)
        sizes = df.groupby("fp", sort=False)["cnt"].transform("sum").to_numpy()
        keep = (sizes > 1) & (sizes <= max_df)
        df = df[keep]
        if not len(df):
            return empty
        df = df.drop(columns=["cnt"])
        if max_df > max_bucket:
            df = pd.concat(
                [_cap_bucket(g, max_bucket, "winnow_dup_pairs", fpk)
                 for fpk, g in df.groupby("fp", sort=False)],
                ignore_index=True,
            )
        fp = df["fp"].to_numpy()
        ids = df[id_col].to_numpy(np.int64)
        first = np.ones(len(fp), dtype=bool)
        first[1:] = fp[1:] != fp[:-1]
        grp = np.cumsum(first) - 1
        gstart = np.flatnonzero(first)
        within = np.arange(len(fp), dtype=np.int64) - gstart[grp]
        # each element pairs (as the id-larger side) with its `within`
        # left neighbours of the same fingerprint group
        rights = np.repeat(np.arange(len(fp), dtype=np.int64), within)
        lefts = rights - (_seg_arange(within) + 1)
        # NOT pre-aggregated: in-shard pair repeats are <1% (measured
        # 169.1M -> 168.4M at the 4M-turn rehearsal) — a lexsort of the
        # full pair stream buys nothing; the bucketed merge sums exactly
        return pd.DataFrame(
            {id_col: ids[rights], "dup_of": ids[lefts],
             "shared": np.ones(len(rights), dtype=np.int64)}
        )

    from vaero_ray.stages.keyed import bucketed_map_groups

    pairs = (
        ds.map_batches(fps, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(shard, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__shard")
        .map_groups(lambda df: emit(df.drop(columns=["__shard"])), batch_format="pandas")
    )

    def merge_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # sum the per-shard pre-aggregated counts, then apply min_shared
        # INSIDE the bucket — the overwhelming majority of candidate
        # pairs fall below the threshold, and emitting them only to
        # filter downstream materializes a table ~10^4x the answer
        # (measured 77M rows vs 6.7k at the 4M-turn rehearsal)
        g = df.groupby([id_col, "dup_of"], sort=False, as_index=False)["shared"].sum()
        g = g[g["shared"] >= min_shared]
        return g.rename(columns={"shared": "shared_fps"})

    return bucketed_map_groups(pairs, id_col, merge_pairs, num_buckets=pair_buckets)


# ------------------------------------------------- Sorted-neighborhood


def sorted_neighborhood_pairs(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    key_len: int = 16,
    window: int = 8,
    min_lcp: int = 8,
    bucket_rows: int = 65536,
) -> rd.Dataset:
    """Sorted-neighborhood-method (SNM) candidate pairs — the classic
    sort-based entity-resolution blocking that complements the hash
    (exact), LSH (minhash/simhash), and fingerprint (winnowing)
    families: sort the corpus by a fixed-width blocking key (first
    ``key_len`` chars of the normalized text, space-padded), slide a
    ``window``-row neighborhood over the TOTAL order, and emit every
    in-window pair whose keys share a common prefix of >= ``min_lcp``
    chars. SNM catches near-keys that hash into different buckets
    (typo in char 12) which pure blocking misses.

    Scale shape: one total-order sort (``global_row_number`` — the
    unavoidable all-to-all), then pair emission is LOCAL: rows route to
    ``rn // bucket_rows`` with the first ``window - 1`` rows of each
    bucket replicated to the previous bucket (halo), so every in-window
    pair materializes in exactly one bucket (the left row's native
    bucket) with no quadratic blowup — per-bucket work is
    O(rows x window). LCP is a vectorized codepoint-matrix cumprod.
    Output: (id_col = later-in-order doc, dup_of = earlier, rn_gap,
    key_lcp), exact-mirrorable by a ROW_NUMBER self-join."""
    from vaero_ray.stages.rowwindow import global_row_number

    def key_stage(tbl: pa.Table) -> pa.Table:
        norm = pc.utf8_lower(
            pc.replace_substring_regex(tbl.column(text_col), r"\s+", " ")
        )
        key = pc.utf8_rpad(pc.utf8_slice_codeunits(norm, 0, key_len), key_len, " ")
        return pa.table({id_col: tbl.column(id_col), "key": key})

    numbered = global_row_number(
        ds.map_batches(key_stage, batch_format="pyarrow", zero_copy_batch=True),
        ["key", id_col], out_col="rn", start=0,
    )

    def route(tbl: pa.Table) -> pa.Table:
        if not tbl.num_rows:
            return pa.table(
                {id_col: pa.array([], pa.int64()), "key": pa.array([], pa.string()),
                 "rn": pa.array([], pa.int64()), "__bkt": pa.array([], pa.int64())}
            )
        rn = tbl.column("rn").to_numpy(zero_copy_only=False)
        b = rn // bucket_rows
        halo = (rn % bucket_rows < window - 1) & (b > 0)
        out = pa.table(
            {
                id_col: pa.array(
                    np.concatenate([tbl.column(id_col).to_numpy(zero_copy_only=False),
                                    tbl.column(id_col).to_numpy(zero_copy_only=False)[halo]]),
                    pa.int64(),
                ),
                "key": pa.concat_arrays(
                    [tbl.column("key").combine_chunks(),
                     tbl.column("key").combine_chunks().filter(pa.array(halo))]
                ),
                "rn": pa.array(np.concatenate([rn, rn[halo]]), pa.int64()),
                "__bkt": pa.array(np.concatenate([b, b[halo] - 1]), pa.int64()),
            }
        )
        return out

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {id_col: pd.array([], dtype="int64"), "dup_of": pd.array([], dtype="int64"),
             "rn_gap": pd.array([], dtype="int64"), "key_lcp": pd.array([], dtype="int64")}
        )
        if len(df) < 2:
            return empty
        bkt = int(df["__bkt"].iloc[0])
        df = df.sort_values("rn", ignore_index=True)
        rn = df["rn"].to_numpy(np.int64)
        ids = df[id_col].to_numpy(np.int64)
        kmat = df["key"].to_numpy().astype(f"U{key_len}")
        k32 = kmat.view(np.uint32).reshape(len(kmat), key_len)
        native = rn // bucket_rows == bkt
        outs = []
        for g in range(1, window):
            if g >= len(rn):
                break
            li = np.arange(len(rn) - g)
            ri = li + g
            ok = native[li] & (rn[ri] - rn[li] == g)
            li, ri = li[ok], ri[ok]
            if not len(li):
                continue
            eq = k32[li] == k32[ri]
            lcp = np.cumprod(eq, axis=1).sum(axis=1)
            keepm = lcp >= min_lcp
            if keepm.any():
                outs.append(pd.DataFrame(
                    {id_col: ids[ri][keepm], "dup_of": ids[li][keepm],
                     "rn_gap": np.full(int(keepm.sum()), g, np.int64),
                     "key_lcp": lcp[keepm].astype(np.int64)}
                ))
        return pd.concat(outs, ignore_index=True) if outs else empty

    return (
        numbered.map_batches(route, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bkt")
        .map_groups(emit, batch_format="pandas")
    )
