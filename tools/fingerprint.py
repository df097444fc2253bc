#!/usr/bin/env python
"""Print what streaming jobs committed, without absolute paths.

Usage: python tools/fingerprint.py DIR...

For each committed epoch of every checkpoint directory (one holding
``manifests/``) under each DIR, DIR itself included, one JSON list: the
checkpoint's path relative to DIR (``.`` for DIR), then the manifest
counters (epoch, watermark, rows in/late/out, state rows),
(partition, rows, sha256) of every output and state file, and the
sha256 of the canonical Parquet bytes of all the epoch's output rows
(``sink.canonical_bytes``; for a one-file epoch, that file's sha256).
The counters and per-file entries come from the manifests, so they work
on checkpoints any version wrote, and two runs wrote the same bytes
exactly when their lines ``diff`` equal. The rows digest reads the
epoch's output files, which must still be in place: each file's bytes
must match the sha256 its manifest recorded, or the tool exits 1 naming
the file. Two runs that split the same rows into different files have
the same rows digest. To compare
two trees, run the same jobs on each and ``diff`` the tool's output over
their run directories, e.g. the gates' ``/tmp/vaero_ray_gate/sf0.01``
after each tree's ``tools/selfcheck.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from vaero_ray.streaming.checkpoint import CheckpointStore  # noqa: E402
from vaero_ray.streaming.sink import canonical_bytes  # noqa: E402


def rows_digest(files: list[tuple[str, str]]) -> str | None:
    """sha256 of the canonical Parquet bytes of all rows of ``files``
    ((path, manifest sha256) pairs; None for no files): the same for any
    split of the same rows. A file whose bytes do not match its manifest
    sha256 raises ``ValueError`` naming it."""
    if not files:
        return None
    tables = []
    for f, sha in files:
        with open(f, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != sha:
            raise ValueError(f"{f}: its bytes do not match the sha256 its manifest recorded")
        tables.append(pq.read_table(pa.BufferReader(data)))
    tbl = pa.concat_tables(tables, promote_options="permissive")
    return hashlib.sha256(canonical_bytes(tbl)[0]).hexdigest()


def fingerprint(ckpt_dir: str) -> list:
    """Per committed epoch: (epoch, watermark_us, rows_in, rows_late,
    rows_out, state_rows, {"out"|"state": sorted (partition, rows,
    sha256s)}, rows digest of the output files)."""
    store = CheckpointStore(ckpt_dir)
    out = []
    for e in store.committed_epochs():
        m = store.load(e)
        files = {
            kind: sorted((k, p["rows"], tuple(p["sha256"])) for k, p in parts.items())
            for kind, parts in (("out", m.partitions), ("state", m.state_partitions))
        }
        digest = rows_digest(sorted(fs for p in m.partitions.values() for fs in zip(p["files"], p["sha256"])))
        out.append((m.epoch, m.watermark_us, m.rows_in, m.rows_late, m.rows_out, m.state_rows, files, digest))
    return out


def checkpoints(root: str) -> list[str]:
    """Every checkpoint directory under ``root``, ``root`` included, sorted."""
    return sorted(d for d, subdirs, _ in os.walk(root) if "manifests" in subdirs)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for root in argv:
        for ckpt_dir in checkpoints(root):
            try:
                epochs = fingerprint(ckpt_dir)
            except ValueError as e:
                print(f"fingerprint: {e}", file=sys.stderr)
                return 1
            for epoch in epochs:
                print(json.dumps([os.path.relpath(ckpt_dir, root), *epoch]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
