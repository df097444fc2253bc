"""Checkpoint store for the streaming engine: per-epoch lineage manifests.

Layout (all under the job's checkpoint dir)::

  manifests/epoch-00000042.json   <- THE commit point (atomic rename)
  state/epoch-00000042/...        <- the epoch's state files (sink.Write)
  metrics.jsonl                   <- one line per committed epoch

Exactly-once protocol (SURVEY.md §2b): an epoch's output files and state
snapshot are written FIRST, to deterministic paths derived from
(epoch, partition) only; the manifest — listing consumed input slices,
output lineage per partition, watermark, and state path — is then written
to a temp file, fsynced, and atomically renamed. A crash before the
rename leaves stale files that the deterministic re-run of the same epoch
overwrites byte-identically; a crash after the rename means the epoch is
done and resume skips it. Readers (``committed_output_files``) only ever
see files listed in committed manifests.

The reference has no such machinery — its sinks are at-most-once
(/root/reference/integrations/sinks/sink_s3.go:60-62 logs and drops on
failure; buffered events die with the process, SURVEY.md §4.1). The
checkpoint design replaces the reference's only persistent state, the
source cursor pickle (/root/reference/vaero_cdk/api_cursor.py:20-31),
with input-slice offsets in the manifest.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field


def lineage_entry(rows: int, path: str, sha256: str) -> dict:
    """One partition's manifest lineage: ``{"rows", "files", "sha256"}``."""
    return {"rows": rows, "files": [path], "sha256": [sha256]}


def write_json_durably(path: str, doc: dict, tmp_suffix: str = ".tmp") -> None:
    """Commit ``doc`` as JSON at ``path``: write ``path + tmp_suffix``,
    fsync it, rename it over ``path``, then fsync the directory. File
    fsync + rename alone do not order dirent durability: without the
    directory fsync a crash could persist a later commit while losing
    this rename."""
    tmp = path + tmp_suffix
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dfd = os.open(os.path.dirname(path), os.O_RDONLY)
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)


@dataclass
class EpochManifest:
    epoch: int
    input_files: list[str]
    watermark_us: int  # event-time watermark AFTER this epoch
    rows_in: int
    rows_late: int
    rows_out: int
    # partition id (str) -> {"rows": int, "files": [paths], "sha256": [hex]}
    partitions: dict = field(default_factory=dict)
    state_rows: int = 0
    state_path: str | None = None  # dir of the state snapshot; None if no state
    # partition id (str) -> {"rows", "files", "sha256"} for the state
    # snapshot — the NEXT epoch restores from exactly these files (never a
    # directory glob, which could include stale files from an aborted
    # attempt that claimed a different input set).
    state_partitions: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def state_files(self, prefix: str = "") -> list[str]:
        """Files of the state partitions whose key starts with ``prefix``."""
        files: list[str] = []
        for key, part in self.state_partitions.items():
            if key.startswith(prefix):
                files.extend(part["files"])
        return files


class CheckpointStore:
    def __init__(self, ckpt_dir: str):
        self.dir = ckpt_dir
        self.manifest_dir = os.path.join(ckpt_dir, "manifests")
        self.state_dir = os.path.join(ckpt_dir, "state")
        os.makedirs(self.manifest_dir, exist_ok=True)
        os.makedirs(self.state_dir, exist_ok=True)
        # manifest parse cache: the store is the single writer for its
        # job, so a committed manifest never changes — without the cache
        # every pending_files()/committed_output() call re-parsed EVERY
        # manifest JSON (O(epochs^2) driver work over a stream's life)
        self._cache: "dict[int, EpochManifest]" = {}

    # -- reads ---------------------------------------------------------
    def committed_epochs(self) -> list[int]:
        out = []
        for f in os.listdir(self.manifest_dir):
            if f.startswith("epoch-") and f.endswith(".json"):
                out.append(int(f[len("epoch-"):-len(".json")]))
        return sorted(out)

    def load(self, epoch: int) -> EpochManifest:
        m = self._cache.get(epoch)
        if m is None:
            with open(self._mpath(epoch)) as fh:
                m = EpochManifest(**json.load(fh))
            self._cache[epoch] = m
        return m

    def last(self) -> EpochManifest | None:
        eps = self.committed_epochs()
        return self.load(eps[-1]) if eps else None

    def consumed_files(self) -> set[str]:
        files: set[str] = set()
        for e in self.committed_epochs():
            files.update(self.load(e).input_files)
        return files

    def committed_output_files(self, prefix: str = "") -> list[str]:
        """Every output file across committed epochs whose partition key
        starts with ``prefix`` — the exactly-once read view of the sink."""
        out: list[str] = []
        for e in self.committed_epochs():
            for key, part in self.load(e).partitions.items():
                if key.startswith(prefix):
                    out.extend(part["files"])
        return out

    # -- writes --------------------------------------------------------
    def state_path_for(self, epoch: int) -> str:
        return os.path.join(self.state_dir, f"epoch-{epoch:08d}")

    def commit(self, m: EpochManifest) -> None:
        """THE commit point: fsync'd atomic rename of the manifest. The
        directory fsync matters: a crash that persisted epoch k+1 but lost
        epoch k's rename would make resume re-ingest epoch k's input
        files (duplicate aggregation)."""
        write_json_durably(self._mpath(m.epoch), asdict(m))
        self._cache[m.epoch] = m
        # prune state snapshots older than the previous epoch (resume needs
        # only epoch-1's state; keep one extra for debugging)
        self._gc_state(keep_from=m.epoch - 1)

    def append_metrics(self, record: dict) -> None:
        with open(os.path.join(self.dir, "metrics.jsonl"), "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    def last_metrics_epoch(self) -> int | None:
        """The epoch of the last ``metrics.jsonl`` record, if any."""
        last = None
        path = os.path.join(self.dir, "metrics.jsonl")
        if os.path.exists(path):
            with open(path) as fh:
                for last in fh:
                    pass
        return None if last is None else json.loads(last)["epoch"]

    def metrics_summary(self) -> dict:
        """Live job health: per-partition rows in/out across committed
        epochs, current watermark, watermark lag, checkpoint age (seconds
        since the last commit), late/emitted totals. Cheap — reads only
        manifests, never data files."""
        import time as _time

        eps = self.committed_epochs()
        if not eps:
            return {"epochs": 0}
        per_partition: dict[str, dict] = {}
        rows_in = rows_late = rows_out = 0
        for e in eps:
            m = self.load(e)
            rows_in += m.rows_in
            rows_late += m.rows_late
            rows_out += m.rows_out
            for p, part in m.partitions.items():
                agg = per_partition.setdefault(p, {"rows_out": 0, "files": 0})
                agg["rows_out"] += part["rows"]
                agg["files"] += len(part["files"])
        last = self.load(eps[-1])
        ckpt_age_s = round(_time.time() - os.path.getmtime(self._mpath(last.epoch)), 1)
        return {
            "epochs": len(eps),
            "rows_in": rows_in,
            "rows_late": rows_late,
            "rows_out": rows_out,
            "state_rows": last.state_rows,
            "watermark_us": last.watermark_us,
            "checkpoint_age_s": ckpt_age_s,
            "per_partition": per_partition,
        }

    def _gc_state(self, keep_from: int) -> None:
        import shutil

        for f in os.listdir(self.state_dir):
            if f.startswith("epoch-") and int(f[len("epoch-"):]) < keep_from:
                shutil.rmtree(os.path.join(self.state_dir, f), ignore_errors=True)

    def _mpath(self, epoch: int) -> str:
        return os.path.join(self.manifest_dir, f"epoch-{epoch:08d}.json")
