#!/usr/bin/env python
"""Print what a streaming job committed, without absolute paths.

Usage: python tools/fingerprint.py CKPT_DIR...

For each committed epoch of each checkpoint directory, one JSON line:
the manifest counters (epoch, watermark, rows in/late/out, state rows)
plus (partition, rows, sha256) of every output and state file. It reads
only the manifests, so it works on checkpoints any version wrote, and
two runs wrote the same bytes exactly when their lines ``diff`` equal.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from vaero_ray.streaming.checkpoint import CheckpointStore  # noqa: E402


def fingerprint(ckpt_dir: str) -> list:
    """Per committed epoch: (epoch, watermark_us, rows_in, rows_late,
    rows_out, state_rows, {"out"|"state": sorted (partition, rows,
    sha256s)})."""
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


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for ckpt_dir in argv:
        for epoch in fingerprint(ckpt_dir):
            print(json.dumps(epoch))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
