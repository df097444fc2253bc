"""Job lifecycle registry: the reference's control surface
(``vaero add/start/stop/delete/list/detail``) re-expressed as a JSON
registry directory + epoch-loop worker threads.

Reference semantics (/root/reference/cmd/util.go:163-359):

- ``add``    : evaluate a spec -> task graph, store as status=staged,
               interval read from the source task's args (:222-227)
- ``start``  : admin routine polls the jobs table and launches every
               staged job; a running job whose ``alive`` flag drops is
               told to stop (:322-334, adminRoutine)
- ``stop``   : sets status=stopping / alive=0; the runner observes the
               flag and transitions to stopped (:337-359)
- ``delete`` : stop if running, wait for stopped, remove (:253-296)
- ``list`` / ``detail`` : table dumps (:299-319)

Differences, on purpose: SQLite -> one JSON file per job under the
registry dir (atomic rename, greppable, consistent with the streaming
checkpoint store); goroutine pipelines -> a thread per job driving the
exactly-once ``StreamingTransformJob`` epoch loop (each epoch claims
pending input files, so "running" means polling for new chunks on the
job's interval). The alive flag is re-read from disk between epochs —
exactly the reference's poll-the-table contract — so stop/delete work
from ANY process sharing the registry dir, not just the starter.
"""

from __future__ import annotations

import glob
import json
import os
import threading
import time

from vaero_ray.planner import Planner

STATUSES = ("staged", "running", "stopping", "stopped")


class JobRegistry:
    def __init__(self, root: str):
        self.root = root
        self.jobs_dir = os.path.join(root, "jobs")
        self.work_dir = os.path.join(root, "work")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.work_dir, exist_ok=True)
        self._threads: dict[int, threading.Thread] = {}

    # -- storage -------------------------------------------------------
    def _path(self, job_id: int) -> str:
        return os.path.join(self.jobs_dir, f"{job_id:06d}.json")

    def _write(self, entry: dict) -> None:
        p = self._path(entry["id"])
        tmp = p + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
        os.replace(tmp, p)

    def _read(self, job_id: int) -> dict | None:
        p = self._path(job_id)
        if not os.path.exists(p):
            return None
        with open(p) as fh:
            return json.load(fh)

    # -- control surface ----------------------------------------------
    def add(self, graph: list, spec: str = "<inline>") -> int:
        """Register a task graph as a staged job; returns the job id.
        Interval comes from the source task's args (reference :222-227).
        The graph is validated through the planner before storage."""
        Planner(graph)  # raises on malformed graphs before anything lands
        ids = self.list()
        job_id = 1 + max((e["id"] for e in ids), default=0)
        interval = 0
        if graph and isinstance(graph[0], dict):
            interval = int(graph[0].get("args", {}).get("interval", 0) or 0)
        self._write(
            {
                "id": job_id,
                "interval": interval,
                "task_graph": graph,
                "spec": spec,
                "status": "staged",
                "alive": 1,
            }
        )
        return job_id

    def list(self) -> list[dict]:
        out = []
        for f in sorted(glob.glob(os.path.join(self.jobs_dir, "*.json"))):
            with open(f) as fh:
                out.append(json.load(fh))
        return out

    def detail(self, job_id: int) -> dict | None:
        return self._read(job_id)

    def start(self, input_dirs: dict[int, str] | None = None, max_epochs_per_poll: int | None = None) -> list[int]:
        """Launch every staged job in a worker thread (the reference's
        adminRoutine launches all staged rows). ``input_dirs`` maps job id
        -> stream input dir, overriding the source task's ``path`` arg.
        Returns the started job ids; non-blocking (join via ``wait``)."""
        # pre-warm lazy imports that are not thread-safe to race: two job
        # threads hitting rd.read_parquet simultaneously can import fsspec
        # halfway ("cannot import name HTTPFileSystem from fsspec...")
        try:
            import fsspec.implementations.http  # noqa: F401
            import ray.data  # noqa: F401
        except ImportError:
            pass
        started = []
        for entry in self.list():
            if entry["status"] != "staged":
                continue
            job_id = entry["id"]
            src_args = entry["task_graph"][0].get("args", {}) if entry["task_graph"] else {}
            input_dir = (input_dirs or {}).get(job_id) or src_args.get("path")
            if not input_dir:
                raise ValueError(f"job {job_id}: no input dir (source args.path or input_dirs)")
            entry["status"] = "running"
            self._write(entry)
            t = threading.Thread(
                target=self._run_job,
                args=(job_id, input_dir, max_epochs_per_poll),
                name=f"vaero-job-{job_id}",
                daemon=True,
            )
            self._threads[job_id] = t
            t.start()
            started.append(job_id)
        return started

    def stop(self, job_id: int) -> bool:
        """Reference StopHandler: status=stopping, alive=0; the runner
        observes the flag between epochs and lands on stopped."""
        entry = self._read(job_id)
        if entry is None:
            return False
        entry["status"] = "stopping" if entry["status"] == "running" else "stopped"
        entry["alive"] = 0
        self._write(entry)
        return True

    def delete(self, job_id: int, timeout_s: float = 30.0) -> bool:
        """Reference DeleteHandler: stop if running, wait until the runner
        reports stopped/staged, then remove the entry."""
        entry = self._read(job_id)
        if entry is None:
            return False
        if entry["status"] == "running":
            self.stop(job_id)
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            entry = self._read(job_id)
            if entry is None or entry["status"] in ("stopped", "staged"):
                break
            time.sleep(0.05)
        if os.path.exists(self._path(job_id)):
            os.remove(self._path(job_id))
        return True

    def wait(self, job_id: int, timeout_s: float | None = None) -> None:
        t = self._threads.get(job_id)
        if t is not None:
            t.join(timeout_s)

    def committed_output(self, job_id: int):
        from vaero_ray.streaming.transform_job import StreamingTransformJob

        entry = self._read(job_id)
        if entry is None:
            raise ValueError(f"job {job_id} not found")
        job = StreamingTransformJob(
            input_dir="",  # read-only view: only the checkpoint store is used
            out_dir=os.path.join(self.work_dir, f"{job_id:06d}", "out"),
            ckpt_dir=os.path.join(self.work_dir, f"{job_id:06d}", "ckpt"),
            graph=entry["task_graph"],
        )
        return job.committed_output()

    # -- the runner thread --------------------------------------------
    def _run_job(self, job_id: int, input_dir: str, max_epochs_per_poll: int | None) -> None:
        from vaero_ray.streaming.transform_job import StreamingTransformJob

        entry = self._read(job_id)
        wd = os.path.join(self.work_dir, f"{job_id:06d}")
        interval = max(float(entry.get("interval") or 0), 0.05)
        error: str | None = None
        try:
            # built inside the try: a graph the job rejects (e.g. a sink
            # timestamp_key missing from its branch output) lands in detail()
            job = StreamingTransformJob(
                input_dir=input_dir,
                out_dir=os.path.join(wd, "out"),
                ckpt_dir=os.path.join(wd, "ckpt"),
                graph=entry["task_graph"],
                max_files_per_epoch=1,
            )
            while True:
                cur = self._read(job_id)
                if cur is None or not cur.get("alive", 0):
                    break
                ran = 0
                while max_epochs_per_poll is None or ran < max_epochs_per_poll:
                    m = job.run_epoch()
                    if m is None:
                        break
                    ran += 1
                    cur = self._read(job_id)
                    if cur is None or not cur.get("alive", 0):
                        break
                cur = self._read(job_id)
                if cur is None or not cur.get("alive", 0):
                    break
                time.sleep(interval)
        except BaseException as e:  # surfaced in detail() — a silent dead thread is undebuggable
            import traceback

            error = f"{type(e).__name__}: {e}\n{traceback.format_exc(limit=5)}"
        finally:
            cur = self._read(job_id)
            if cur is not None:
                cur["status"] = "stopped"
                cur["alive"] = 0
                if error:
                    cur["error"] = error
                self._write(cur)
