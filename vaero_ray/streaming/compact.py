"""Small-file compaction for the exactly-once sink's committed output.

A long-running streaming job accumulates one file per (partition, epoch)
— thousands of small parts after days of micro-batches. Compaction
merges each partition's committed epoch files into ONE canonical file
WITHOUT touching the exactly-once machinery:

- epoch manifests are never modified (they remain the source of truth
  for resume/replay); compaction writes its own ``compaction.json``
  sidecar manifest (fsync + atomic rename — same commit discipline);
- the compacted file is written with the sink's canonical writer
  (all-column sort, no wall-clock metadata), so re-running compaction
  over the same epochs is byte-identical;
- the reader (:func:`compacted_output_files`) serves the compacted file
  for every partition covered ``through_epoch`` and the ORIGINAL epoch
  files for anything later — readers see exactly the committed rows at
  every instant, whether or not compaction has run, half-run, or
  crashed (a missing/partial sidecar simply falls back to the epoch
  files);
- replaced originals are deleted only by an explicit :func:`gc_replaced`
  call AFTER the sidecar is committed (crash between commit and GC
  leaves stale-but-ignored files, the same safety posture as the epoch
  writer's tmp files).

Each partition compacts inside ONE Ray task (per-partition file IO —
the Dataset API has nothing to add over a task here); the driver only
moves the tiny lineage.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from vaero_ray.streaming.checkpoint import CheckpointStore, write_json_durably
from vaero_ray.streaming.sink import write_canonical_file

SIDECAR = "compaction.json"


def _sidecar_path(out_dir: str) -> str:
    return os.path.join(out_dir, SIDECAR)


def _load_sidecar(out_dir: str) -> dict | None:
    p = _sidecar_path(out_dir)
    if not os.path.exists(p):
        return None
    try:
        with open(p) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None  # partial/corrupt sidecar: fall back to epoch files


def _partition_files(store: CheckpointStore, through_epoch: int) -> dict[str, list[tuple[int, str]]]:
    """partition id -> [(epoch, file), ...] with epoch <= through_epoch."""
    out: dict[str, list[tuple[int, str]]] = {}
    for e in store.committed_epochs():
        if e > through_epoch:
            continue
        for part, meta in store.load(e).partitions.items():
            out.setdefault(str(part), []).extend((e, f) for f in meta["files"])
    return out


def compact_committed_output(store: CheckpointStore, out_dir: str,
                             min_files: int = 2) -> dict:
    """Merge each partition's committed epoch files (including any prior
    compacted file) into one canonical file, then commit the sidecar.
    Partitions with fewer than ``min_files`` inputs are carried through
    unchanged. Returns the committed sidecar dict."""
    import ray

    epochs = store.committed_epochs()
    if not epochs:
        return {"through_epoch": -1, "partitions": {}}
    through = max(epochs)
    by_part = _partition_files(store, through)
    parts = {b: [f for _, f in pairs] for b, pairs in by_part.items()}
    prior = _load_sidecar(out_dir)
    if prior:
        for b, meta in prior["partitions"].items():
            # the prior compacted file REPLACES the read view of epochs
            # <= its OWN through epoch — filter by epoch coverage, not
            # by its `replaces` list, which names only the prior
            # generation's DIRECT inputs (epochs compacted two
            # generations ago appear in no current replaces entry and
            # would be re-included: duplicate rows)
            t = meta.get("through", prior["through_epoch"])
            parts[b] = [f for e, f in by_part.get(b, []) if e > t]
            parts[b].insert(0, meta["file"])

    @ray.remote
    def _compact_one(bucket: str, files: list[str], out_dir: str,
                     through: int) -> tuple[str, dict]:
        # permissive concat: epoch files of one partition may type a
        # column differently (an all-null column is the null type)
        tbl = pa.concat_tables([pq.read_table(f) for f in files],
                               promote_options="permissive")
        # Generation-unique name: a re-compaction after more epochs commit
        # must NOT overwrite the prior generation's file in place — until
        # the new sidecar commits, the old sidecar is still the read view
        # and its "file" must keep serving exactly its own through_epoch's
        # rows. The prior generation is deleted by gc_replaced only after
        # the new sidecar (which lists it under "replaces") is durable.
        # Same through_epoch re-runs rewrite the same bytes (canonical
        # writer), so the shared path is then harmless.
        path = os.path.join(
            out_dir, f"part-{bucket}", f"compacted-{through:08d}.parquet"
        )
        p, digest, rows = write_canonical_file(tbl, path)
        return bucket, {"file": p, "sha256": digest, "rows": rows,
                        "through": through, "replaces": sorted(files)}

    todo = {b: fs for b, fs in parts.items() if len(fs) >= min_files}
    futs = [
        _compact_one.remote(b, fs, out_dir, through) for b, fs in todo.items()
    ]
    merged: dict[str, dict] = {}
    for b, meta in (ray.get(f) for f in futs):
        merged[b] = meta
    if prior:
        # partitions compacted before but skipped now keep their entry,
        # covering only epochs <= their OWN generation's through (a
        # skipped partition may still hold newer epoch files when the
        # caller raised min_files — those stay served as originals)
        for b, meta in prior["partitions"].items():
            meta.setdefault("through", prior["through_epoch"])
            merged.setdefault(b, meta)
    sidecar = {"through_epoch": through, "partitions": merged}
    # durable before anyone may GC the replaced files; the pid-suffixed
    # tmp keeps a concurrent compaction from interleaving writes into the
    # same tmp file and committing a torn sidecar
    write_json_durably(_sidecar_path(out_dir), sidecar, f".tmp{os.getpid()}")
    return sidecar


def compacted_output_files(store: CheckpointStore, out_dir: str) -> list[str]:
    """The exactly-once read view WITH compaction: per partition, the
    compacted file stands in for every committed epoch file of epochs
    <= the sidecar's ``through_epoch``; everything not covered (later
    epochs, never-compacted partitions, absent or unreadable sidecar)
    is served from the original committed files.

    Coverage is derived from ``through_epoch`` against the checkpoint
    store — NOT from the sidecar's ``replaces`` lists, which name only
    each generation's DIRECT inputs (the prior generation's compacted
    file plus the epochs since). Epochs compacted two generations ago
    appear in no current ``replaces`` entry, so a replaces-based view
    would re-serve (or fail to find, post-GC) those originals —
    duplicate rows. ``replaces`` exists solely for :func:`gc_replaced`.

    Each entry carries its OWN ``through`` epoch (entries carried over
    from a prior sidecar keep the prior generation's), so a partition
    skipped this generation while holding newer epoch files (possible
    when the caller raised ``min_files``) still serves those newer
    epochs from the originals."""
    side = _load_sidecar(out_dir)
    files = store.committed_output_files()
    if not side:
        return files
    # every entry's own through is at most the sidecar's
    by_part = _partition_files(store, side["through_epoch"])
    add, drop = [], set()
    for b, meta in side["partitions"].items():
        add.append(meta["file"])
        t = meta.get("through", side["through_epoch"])
        drop.update(f for e, f in by_part.get(b, []) if e <= t)
    return add + [f for f in files if f not in drop]


def gc_replaced(out_dir: str) -> int:
    """Delete files replaced by a COMMITTED sidecar. Safe to call any
    number of times; returns how many files were removed."""
    side = _load_sidecar(out_dir)
    if not side:
        return 0
    n = 0
    keep = {meta["file"] for meta in side["partitions"].values()}
    for meta in side["partitions"].values():
        for f in meta["replaces"]:
            if f in keep:
                continue  # a prior compacted file may be an input later
            if os.path.exists(f):
                os.remove(f)
                n += 1
    return n
