"""The exact distinct kernel: ``np.unique``'s answer, sorted for integers.

:func:`repro.distinct.distinct` must return what a plain ``np.unique``
returns — values and dtype — for every dtype; only the route differs.
The last test keeps the hash route of plain ``np.unique`` from coming
back into the package outside the kernel's module.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.db.schema import Column, TableSchema
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.db.types import FLOAT64, INT32
from repro.distinct import distinct

SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=40)
INT_DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"]
# numpy drops a bytes value's trailing NULs, so none are drawn.
BYTES = st.binary(max_size=4).map(lambda b: b.rstrip(b"\0"))


def int_arrays(dtype):
    """Arrays over the dtype's whole range, with a small pool mixed in so
    that most arrays repeat values."""
    info = np.iinfo(dtype)
    small = st.integers(max(info.min, -3), min(info.max, 3))
    edges = st.sampled_from([info.min, info.max])
    whole = st.integers(info.min, info.max)
    return hnp.arrays(dtype, SHAPES, elements=st.one_of(small, edges, whole))


def assert_same_as_unique(values):
    got, want = distinct(values), np.unique(values)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestEqualsUnique:
    @pytest.mark.parametrize("dtype", INT_DTYPES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_integers(self, dtype, data):
        assert_same_as_unique(data.draw(int_arrays(dtype)))

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.bool_, SHAPES))
    def test_bool(self, values):
        assert_same_as_unique(values)

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays("S4", SHAPES, elements=BYTES))
    def test_bytes(self, values):
        assert_same_as_unique(values)

    def test_uint64_top(self):
        top = 2**64 - 1
        values = np.array([top, 0, top, 2**63, 1], dtype=np.uint64)
        assert distinct(values).tolist() == [0, 1, 2**63, top]
        assert_same_as_unique(values)

    @pytest.mark.parametrize("dtype", INT_DTYPES + ["bool", "S3", "float64"])
    def test_empty_and_one_element(self, dtype):
        assert_same_as_unique(np.array([], dtype=dtype))
        one = np.zeros(1, dtype=dtype)
        assert_same_as_unique(one)
        assert_same_as_unique(one[0])  # a scalar answers as one element

    def test_leaves_its_input_alone(self):
        values = np.array([3, 1, 3, 2], dtype=np.int64)
        distinct(values)
        assert values.tolist() == [3, 1, 3, 2]

    def test_takes_a_list(self):
        assert_same_as_unique([5, 2, 5, 9])


SPECIALS = [math.nan, 0.0, -0.0, math.inf, -math.inf, 1.5, -1.5]


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.sampled_from(SPECIALS)))
def test_float_count_counts_nan_once(values):
    finite_or_inf = {float(v) for v in values if not math.isnan(v)}  # -0.0 == 0.0
    want = len(finite_or_inf) + bool(np.isnan(values).any())
    assert distinct(values).size == np.unique(values).size == want


def test_ndv_counts_nan_and_signed_zero_once():
    schema = TableSchema("f", [Column("k", INT32), Column("x", FLOAT64)])
    table = Table(schema)
    xs = [math.nan, 0.0, -0.0, math.nan, 2.5, -0.0]
    table.append_arrays(
        {
            "k": np.array([1, 2, 1, 3, 2, 1], dtype=np.int32),
            "x": np.array(xs, dtype=np.float64),
        }
    )
    stats = TableStats.collect(table)
    assert stats.column("k").ndv == 3
    assert stats.column("x").ndv == 3  # nan, 0.0 (either sign), 2.5


# ----------------------------------------------------------------------
# No plain np.unique outside the kernel's module.
# ----------------------------------------------------------------------
def plain_unique_calls(root: Path):
    """``file:line`` of every ``np.unique(...)`` (or ``numpy.unique``)
    call under ``root`` that passes no ``return_*`` keyword, outside
    ``distinct.py``: numpy 2 hashes those when given integers."""
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "distinct.py" and path.parent == root:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and not any(
                    kw.arg and kw.arg.startswith("return_") for kw in node.keywords
                )
            ):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_no_plain_unique_outside_the_kernel():
    root = Path(repro.__file__).parent
    assert plain_unique_calls(root) == [], (
        "call repro.distinct.distinct instead: plain np.unique hashes integers"
    )


def test_the_guard_sees_a_plain_call(tmp_path):
    (tmp_path / "distinct.py").write_text("np.unique(a)\n")
    (tmp_path / "m.py").write_text(
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b, c = np.unique(x, return_inverse=True)\n"
        "d = numpy.unique(x, axis=0)\n"
    )
    assert plain_unique_calls(tmp_path) == ["m.py:2", "m.py:4"]
