"""The Vaero pipeline-spec DSL — API-compatible fluent builder.

Produces the SAME JSON task-graph IR as the reference's Python DSL
(/root/reference/vaero/stream.py:1-162): a list of
``{"type", "op", "args"}`` nodes where fan-out (calling two methods on the
same intermediate) becomes a nested list of sub-chains
(stream.py:141-162). Differences:

- ``start()`` RETURNS the task graph (and only prints the JSON when asked)
  instead of printing for a Go CLI to capture (stream.py:127-132);
- a ``reset()`` classmethod clears the module-global graph between specs
  (the reference runs each spec in a fresh subprocess, cmd/util.go:197-205,
  so it never needed one).

Node construction mirrors stream.py line-for-line in behavior: same arg
names, same defaults (source defaults stream.py:19-22, sink defaults
:35-43), ``.option``/``.option_file``/``.secret`` modifiers (:83-109).

Beyond the reference's seven transforms, the fluent surface also exposes
the engine's relational/window tier (the reference has no such ops —
SURVEY.md §2b) as ``"rel"`` nodes: ``.window(...)`` (two-phase grouped /
tumbling aggregate), ``.join(other, on=...)`` (adaptive broadcast-vs-
partitioned hash join), ``.dedup(...)`` (exact content dedup). A join's
right side is a detached chain built with ``Vaero.side()`` — same fluent
verbs, but it never claims the module-global graph root and is embedded
into the join node as a nested sub-graph IR.
"""

from __future__ import annotations

import json
from typing import Any, List, Mapping

try:
    import tomllib as _toml  # py3.11+
except ImportError:  # pragma: no cover
    import tomli as _toml  # type: ignore


class Vaero:
    """Fluent builder producing the task-graph JSON IR."""

    tg_start: Mapping[str, Any] | None = None  # first node of the global graph

    def __init__(self, ptr: Mapping[str, Any] | None = None, root: Mapping[str, Any] | None = None, detached: bool = False):
        self._ptr = ptr
        self._root = root
        self._detached = detached

    @classmethod
    def reset(cls) -> None:
        cls.tg_start = None

    @classmethod
    def side(cls) -> "Vaero":
        """A detached chain root — build a join's right side with the same
        fluent verbs without claiming the module-global graph start."""
        return cls(detached=True)

    # --- sources (defaults per vaero/stream.py:19-31) -------------------
    def source(
        self,
        source_type: str,
        interval: int = 10,
        host: str = "",
        token: str = "",
        name: str = "",
        max_calls_per_period: int = 60,
        limit_period: int = 60,
        max_retries: int = 6,
        endpoint: str = "/logevent",
        port: int = 8080,
        event_breaker: str = "jsonarray",
        bucket: str = "",
        prefix: str = "",
        region: str = "",
        **extra: Any,
    ) -> "Vaero":
        if not endpoint.startswith("/"):
            endpoint = "/" + endpoint
        args = {
            "interval": interval,
            "host": host,
            "token": token,
            "name": name,
            "max_calls_per_period": max_calls_per_period,
            "limit_period": limit_period,
            "max_retries": max_retries,
            "endpoint": endpoint,
            "port": port,
            "event_breaker": event_breaker,
            "bucket": bucket,
            "prefix": prefix,
            "region": region,
        }
        args.update(extra)
        return self._add({"type": "source", "op": source_type, "args": args})

    # --- sinks (defaults per vaero/stream.py:35-43) ---------------------
    def sink(
        self,
        sink_type: str,
        timestamp_key: str = "timestamp",
        timestamp_format: str = "RFC3339",
        filename_prefix: str = "%Y/%m/%d",
        filename_format: str = "%s.log",
        batch_max_bytes: int = 1_000_000,
        batch_max_time: int = 60 * 5,
        bucket: str = "",
        region: str = "",
        **extra: Any,
    ) -> "Vaero":
        args = {
            "timestamp_key": timestamp_key,
            "timestamp_format": timestamp_format,
            "filename_prefix": filename_prefix,
            "filename_format": filename_format,
            "batch_max_bytes": batch_max_bytes,
            "batch_max_time": batch_max_time,
            "bucket": bucket,
            "region": region,
        }
        args.update(extra)
        return self._add({"type": "sink", "op": sink_type, "args": args})

    # --- transforms (vaero/stream.py:47-80) -----------------------------
    def add(self, path: str, value: Any) -> "Vaero":
        return self._add({"type": "tn", "op": "add", "args": {"path": path, "value": value}})

    def delete(self, path: str) -> "Vaero":
        return self._add({"type": "tn", "op": "delete", "args": {"path": path}})

    def filter_regexp(self, path: str, regexp: str) -> "Vaero":
        return self._add({"type": "tn", "op": "filter_regexp", "args": {"path": path, "regex": regexp}})

    def mask(self, path: str, regexp: str, replace_expr: str) -> "Vaero":
        return self._add(
            {"type": "tn", "op": "mask", "args": {"path": path, "regex": regexp, "replace_expr": replace_expr}}
        )

    def parse_regexp(self, path: str, regexp: str) -> "Vaero":
        return self._add({"type": "tn", "op": "parse_regexp", "args": {"path": path, "regex": regexp}})

    def parse_json(self, path: str) -> "Vaero":
        return self._add({"type": "tn", "op": "parse_json", "args": {"path": path}})

    def rename(self, path: str, new_path: str) -> "Vaero":
        return self._add({"type": "tn", "op": "rename", "args": {"path": path, "new_path": new_path}})

    def select(self, path: str) -> "Vaero":
        return self._add({"type": "tn", "op": "select", "args": {"path": path}})

    # --- relational tier (engine extension; no reference counterpart) ---
    def window(
        self,
        keys: List[str],
        aggs: List[Any],
        ts_col: str = "ts",
        size_s: int | None = 60,
        window_col: str = "window_start",
    ) -> "Vaero":
        """Two-phase grouped aggregate, optionally windowed (tumbling when
        ``size_s`` is set, plain group-by when ``None``). ``aggs`` is a list
        of ``[col, fn, alias]`` (fn in sum/min/max/count/mean)."""
        return self._add(
            {
                "type": "rel",
                "op": "window",
                "args": {
                    "keys": list(keys),
                    "aggs": [list(a) for a in aggs],
                    "ts_col": ts_col,
                    "size_s": size_s,
                    "window_col": window_col,
                },
            }
        )

    def join(
        self,
        right: "Vaero | list",
        on: str | List[str],
        how: str = "inner",
        suffix: str = "_r",
    ) -> "Vaero":
        """Adaptive join against a detached chain (``Vaero.side()...``) or
        a pre-built sub-graph IR. Compiles to ``stages.joins.auto_join``:
        broadcast when the build side is small, partitioned hash join
        otherwise."""
        if isinstance(right, Vaero):
            if right._root is None:
                raise ValueError(".join right side is an empty chain")
            right_ir = Vaero.linked_list_to_arr(right._root)
        else:
            right_ir = right
        return self._add(
            {
                "type": "rel",
                "op": "join",
                "args": {
                    "on": [on] if isinstance(on, str) else list(on),
                    "how": how,
                    "suffix": suffix,
                },
                "right": right_ir,
            }
        )

    def filter_expr(self, expr: str) -> "Vaero":
        """Dataset-level row filter by an Arrow expression string (e.g.
        ``"n_chars >= 100 and lang == 'en'"``), unlike the per-event
        ``filter_regexp``. It runs as a dataset operator at its position
        in the chain, after the steps before it; it is not pushed into
        the scan."""
        return self._add({"type": "rel", "op": "filter", "args": {"expr": expr}})

    def limit(self, n: int) -> "Vaero":
        """Keep the first ``n`` rows (streaming-truncates the pipeline)."""
        return self._add({"type": "rel", "op": "limit", "args": {"n": int(n)}})

    def dedup(
        self,
        path: str = "text",
        id_path: str = "doc_id",
        mode: str = "auto",
    ) -> "Vaero":
        """Exact content dedup: keep the min-``id_path`` row per distinct
        ``path`` value (``stages.dedup.exact_dedup``; mode in
        carry/project/auto picks the exchange shape)."""
        return self._add(
            {
                "type": "rel",
                "op": "dedup",
                "args": {"path": path, "id_path": id_path, "mode": mode},
            }
        )

    # --- modifiers (vaero/stream.py:83-109) -----------------------------
    def option(self, arg_name: str, value: Any) -> "Vaero":
        self._ptr["args"][arg_name] = value
        return self

    def option_file(self, file_name: str) -> "Vaero":
        with open(file_name, "rb") as f:
            self._ptr["args"].update(_toml.load(f))
        return self

    def secret(
        self,
        command: str = "",
        secrets: List[Mapping[str, str]] | None = None,
        cache_time_seconds: int = 86400 * 30,
        timeout_seconds: int = 30,
    ) -> "Vaero":
        self._ptr["secret"] = {
            "command": command,
            "secrets": secrets or [],
            "cache_time_seconds": cache_time_seconds,
            "timeout_seconds": timeout_seconds,
        }
        return self

    # --- graph assembly (vaero/stream.py:111-162) -----------------------
    def _add(self, node: Mapping[str, Any]) -> "Vaero":
        node["next"] = []
        node.setdefault("args", {})
        if self._ptr is None:
            self._ptr = node
            self._root = node
            if not self._detached:
                Vaero.tg_start = node
        else:
            self._ptr["next"].append(node)
        return Vaero(node, root=self._root or node, detached=self._detached)

    @classmethod
    def start(cls, print_json: bool = False) -> list:
        """Flatten the linked-list graph to the array IR and return it."""
        graph = cls.linked_list_to_arr(cls.tg_start)
        if print_json:
            print(json.dumps(graph))
        return graph

    @staticmethod
    def linked_list_to_arr(start_node: Mapping[str, Any] | None) -> list:
        """Linked list -> array IR; fan-out becomes a nested list of
        sub-chains (semantics of stream.py:141-162, without mutating the
        nodes so ``start()`` is re-runnable)."""
        result: list = []
        node = start_node
        while node is not None:
            flat = {k: v for k, v in node.items() if k != "next"}
            result.append(flat)
            nxt = node.get("next", [])
            if len(nxt) == 0:
                break
            if len(nxt) == 1:
                node = nxt[0]
            else:
                result.append([Vaero.linked_list_to_arr(n) for n in nxt])
                break
        return result
