"""The sink prefix (sinks/parquet_sink.derive_prefix) formats each
distinct floored timestamp once; its prefixes equal ``pc.strftime`` run
over every row, for timestamps before and after 1970, nulls and
unparseable strings."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from vaero_ray.sinks.parquet_sink import PREFIX_COL, _floor_unit, _parse_ts, derive_prefix

FORMATS = {
    "%Y/%m/%d/%H": "hour",
    "%Y/%m/%d": "day",
    "%Y-%m-%dT%H:%M:%S": None,
    "%I%p": "hour",
    "%G-W%V-%u": "day",
    "%j": "day",
    "%%": "day",
    "sink-prefix": "day",
    "%H:%M": "minute",
    "%y %C %e %a %A %b %B %h %U %W %w %g %D %F %R%n%t": "minute",
    "%Y %c": None,  # %c is not in the floor rule: every row formatted
}


def _timestamps(n: int, seed: int) -> pa.Array:
    rng = np.random.default_rng(seed)
    # 1875..2095 at microsecond resolution, plus a few hours around the epoch
    us = np.concatenate([rng.integers(-3 * 10**15, 4 * 10**15, n - n // 4), rng.integers(-10**10, 10**10, n // 4)])
    return pa.array(us.astype("datetime64[us]"), mask=rng.random(n) < 0.05)


def _columns(seed: int) -> dict:
    ts = _timestamps(400, seed)
    text = pc.strftime(ts, format="%Y-%m-%dT%H:%M:%SZ").to_pylist()
    text[::7] = ["not a time"] * len(text[::7])
    unix = pc.divide(pc.cast(ts, pa.int64()), 1_000_000)
    return {"timestamp": ts, "string": pa.array(text), "unix-seconds": unix}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("kind", ["timestamp", "string", "unix-seconds"])
def test_prefix_equals_per_row_strftime(kind, fmt):
    assert _floor_unit(fmt) == FORMATS[fmt]
    for seed in range(3):
        col = _columns(seed)[kind]
        tbl = pa.table({"ts": col, "row": pa.array(range(len(col)))})
        ts = _parse_ts(tbl.column("ts"))
        want = tbl.append_column(PREFIX_COL, pc.strftime(ts, format=fmt)).filter(pc.is_valid(ts))
        got = derive_prefix(tbl, "ts", fmt)
        assert 0 < want.num_rows < tbl.num_rows
        assert got.equals(want)


def test_prefix_of_a_time_just_before_1970():
    ts = pa.array(np.array(["1969-12-31T23:59:59.5", "2026-01-02T03:04:05"], dtype="datetime64[us]"))
    got = derive_prefix(pa.table({"ts": ts}), "ts", "%Y/%m/%d/%H")
    assert got.column(PREFIX_COL).to_pylist() == ["1969/12/31/23", "2026/01/02/03"]
