"""Streaming shell: micro-batch epochs over a growing Parquet directory
with event-time watermarks, carried window state, and an exactly-once
checkpointed sink (SURVEY.md §2b / §3.4)."""

from vaero_ray.streaming.checkpoint import CheckpointStore, EpochManifest
from vaero_ray.streaming.driver import WM_FINAL
from vaero_ray.streaming.fold_job import StreamingFoldJob
from vaero_ray.streaming.job import StreamingWindowedJob
from vaero_ray.streaming.session_job import StreamingSessionJob
from vaero_ray.streaming.stitch_job import StreamingStitchJob

__all__ = [
    "CheckpointStore",
    "EpochManifest",
    "StreamingFoldJob",
    "StreamingSessionJob",
    "StreamingStitchJob",
    "StreamingWindowedJob",
    "WM_FINAL",
]
