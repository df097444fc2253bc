"""The Arrow canonical writer writes the bytes the pandas writer it
replaced wrote.

``pandas_writer`` below is that former writer, kept as the reference:
sort a DataFrame on every column with a stable sort, convert it back to
Arrow, drop the schema metadata and write. Tables reach it through
``to_pandas`` with pandas' nullable integer dtypes (``_to_frame``), so
an integer column with nulls keeps its type and values, as the writer
keeps them."""

from __future__ import annotations

import datetime
import decimal
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from vaero_ray.streaming.sink import canonical_table, write_canonical_file

NULLABLE_INTS = {
    pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(), pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(), pa.uint32(): pd.UInt32Dtype(),
    pa.uint64(): pd.UInt64Dtype(),
}


def _to_frame(tbl: pa.Table) -> pd.DataFrame:
    return tbl.to_pandas(types_mapper=NULLABLE_INTS.get)


def pandas_writer(df: pd.DataFrame, path: str) -> str:
    df = df.sort_values(list(df.columns), kind="mergesort", ignore_index=True)
    tbl = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
    pq.write_table(tbl, path, row_group_size=1 << 20)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


CASES = {
    "all_null_string": {"s": pa.array([None, None, None], pa.string()), "k": [3, 1, 2]},
    "all_null_bool": {"b": pa.array([None, None, None], pa.bool_()), "k": [3, 1, 2]},
    "bool_with_nulls": {"b": pa.array([True, None, False]), "k": [1, 1, 1]},
    "int_with_nulls": {"i": pa.array([5, None, -2], pa.int32()), "k": [1, 2, 3]},
    "int_all_null": {"i": pa.array([None, None], pa.int64()), "k": [2, 1]},
    "nan_next_to_null": {"f": pa.array([1.5, float("nan"), None, -0.5, float("nan")]), "k": [1, 2, 3, 4, 5]},
    "large_string": {"s": pa.array(["b", None, "a", "é", ""], pa.large_string()), "k": [1, 2, 3, 4, 5]},
    "large_binary": {"s": pa.array([b"b", None, b"a"], pa.large_binary()), "k": [1, 2, 3]},
    "tz_timestamps": {
        "t": pa.array([3_000_000, None, 1_000_000, 2], pa.timestamp("us", tz="Europe/Berlin")),
        "u": pa.array([1, 2, 3, 4], pa.timestamp("ns", tz="+01:00")),
    },
    "date32": {"d": pa.array([datetime.date(2024, 3, 1), None, datetime.date(2023, 1, 9)]), "k": [1, 2, 3]},
    "date64": {"d": pa.array([datetime.date(2024, 3, 1), None], pa.date64()), "k": [1, 2]},
    "ties_and_null_sort_keys": {
        "a": pa.array([None, "x", None, "x", "y", None], pa.string()),
        "b": pa.array([2, None, 2, 1, None, None], pa.int64()),
        "c": pa.array([0.5, 0.5, None, 0.5, 1.0, None]),
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_bytes_as_pandas_writer(name, tmp_path):
    tbl = pa.table(CASES[name])
    # several chunks, like a table filtered out of a concatenated read
    tbl = pa.concat_tables([tbl.slice(0, 1), tbl.slice(1)])
    want = pandas_writer(_to_frame(tbl), f"{tmp_path}/want.parquet")
    path, sha, rows = write_canonical_file(tbl, f"{tmp_path}/got/part.parquet")
    assert (path, rows) == (f"{tmp_path}/got/part.parquet", tbl.num_rows)
    assert sha == want == _sha(path)
    assert os.listdir(f"{tmp_path}/got") == ["part.parquet"]  # no tmp file left


def test_frame_built_tables_keep_pandas_types(tmp_path):
    """A job's DataFrame converts once with ``from_pandas``; a nullable
    ``Int64`` column stays int64, as the pandas writer wrote it."""
    df = pd.DataFrame(
        {
            "k": ["b", "a", None, "a"],
            "n": pd.array([1, None, 3, None], dtype="Int64"),
            "f": [np.nan, 1.0, 2.0, np.nan],
            "o": [None, None, None, None],
        },
        index=[7, 3, 5, 1],
    )
    want = pandas_writer(df, f"{tmp_path}/want.parquet")
    _, sha, _ = write_canonical_file(pa.Table.from_pandas(df, preserve_index=False), f"{tmp_path}/got.parquet")
    assert sha == want
    assert pq.read_schema(f"{tmp_path}/got.parquet").field("n").type == pa.int64()


def test_an_integer_column_with_nulls_keeps_its_type_and_values(tmp_path):
    big = (1 << 53) + 1  # a float64 would round it to 2**53
    tbl = pa.table({"i": pa.array([big, None, -big], pa.int64()), "u": pa.array([None, 7, 1], pa.uint32())})
    path, _, _ = write_canonical_file(tbl, f"{tmp_path}/i.parquet")
    got = pq.read_table(path)
    assert got.schema == pa.schema([pa.field("i", pa.int64()), pa.field("u", pa.uint32())])
    assert got.column("i").to_pylist() == [-big, big, None]
    assert got.column("u").to_pylist() == [1, None, 7]


def test_random_tables_match_pandas_writer(tmp_path):
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 50))

        def masked(values):
            return pa.array(values, mask=rng.random(n) < 0.25)

        tbl = pa.table(
            {
                "s": masked(rng.choice(["a", "b", "é"], n).astype(object)),
                "i": masked(rng.integers(-2, 2, n)),
                "f": masked(rng.choice([0.0, -1.5, np.nan, np.inf], n)),
                "b": masked(rng.random(n) < 0.5),
                "t": pa.array(rng.integers(0, 3, n), pa.timestamp("us"), mask=rng.random(n) < 0.2),
            }
        )
        tbl = tbl.select(list(rng.permutation(tbl.column_names)))
        want = pandas_writer(_to_frame(tbl), f"{tmp_path}/want.parquet")
        _, sha, _ = write_canonical_file(tbl, f"{tmp_path}/got.parquet")
        assert sha == want, tbl.schema


def test_rewrite_is_byte_identical(tmp_path):
    tbl = pa.table(CASES["ties_and_null_sort_keys"])
    _, first, _ = write_canonical_file(tbl, f"{tmp_path}/a.parquet")
    shuffled = tbl.take(pa.array([5, 3, 1, 0, 4, 2]))
    _, second, _ = write_canonical_file(shuffled, f"{tmp_path}/a.parquet")
    assert first == second == _sha(f"{tmp_path}/a.parquet")


def test_dictionary_columns_are_written_decoded(tmp_path):
    """Arrow cannot sort a dictionary column, so the writer decodes it:
    the file holds the plain value column, byte-identical to writing the
    decoded table."""
    plain = pa.table({"role": pa.array(["user", None, "tool", "user"]), "k": [4, 3, 2, 1]})
    encoded = plain.set_column(0, "role", plain.column("role").dictionary_encode())
    _, sha, _ = write_canonical_file(encoded, f"{tmp_path}/enc.parquet")
    _, want, _ = write_canonical_file(plain, f"{tmp_path}/plain.parquet")
    assert sha == want
    assert pq.read_schema(f"{tmp_path}/enc.parquet").field("role").type == pa.string()


def test_decimals_keep_their_declared_type(tmp_path):
    """The pandas writer re-inferred a decimal's precision from the
    values, so files of one column could disagree; the writer keeps the
    declared type and the same values."""
    d = pa.array([decimal.Decimal("2.25"), None, decimal.Decimal("1.50")], pa.decimal128(10, 2))
    tbl = pa.table({"d": d})
    pandas_writer(_to_frame(tbl), f"{tmp_path}/want.parquet")
    write_canonical_file(tbl, f"{tmp_path}/got.parquet")
    got, want = pq.read_table(f"{tmp_path}/got.parquet"), pq.read_table(f"{tmp_path}/want.parquet")
    assert got.schema.field("d").type == pa.decimal128(10, 2)
    assert want.schema.field("d").type == pa.decimal128(3, 2)
    assert got.column("d").to_pylist() == want.column("d").to_pylist()


def test_canonical_schema_is_plain():
    schema = pa.schema([pa.field("k", pa.int64(), nullable=False, metadata={"a": "b"})], metadata={"x": "y"})
    tbl = canonical_table(pa.table({"k": [2, 1]}, schema=schema))
    assert tbl.schema == pa.schema([pa.field("k", pa.int64())])
    assert tbl.schema.metadata is None and tbl.schema.field("k").metadata is None
    assert tbl.column("k").to_pylist() == [1, 2]


def test_unsortable_column_raises_clear_error(tmp_path):
    tbl = pa.table({"l": pa.array([[2], [1]], pa.list_(pa.int64()))})
    with pytest.raises(ValueError, match="canonical writer cannot sort"):
        write_canonical_file(tbl, f"{tmp_path}/l.parquet")
