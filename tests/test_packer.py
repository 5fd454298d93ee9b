"""Tests for the pack/unpack dataflow (the fabric's functional half)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unittest import mock

from repro.core import packer
from repro.core.geometry import DataGeometry, FieldSlice
from repro.core.packer import gather, pack, record_view, unpack
from repro.errors import GeometryError

GEO = DataGeometry(
    row_stride=32,
    fields=(
        FieldSlice("key", 0, 8, "<i8"),
        FieldSlice("val", 16, 4, "<i4"),
        FieldSlice("tag", 28, 2),
    ),
)


def frame(nrows=20, stride=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(nrows, stride), dtype=np.uint8)


class TestPack:
    def test_shape_and_density(self):
        packed = pack(frame(), GEO)
        assert packed.shape == (20, 14)
        assert packed.flags["C_CONTIGUOUS"]

    def test_bytes_relocated_exactly(self):
        f = frame()
        packed = pack(f, GEO)
        assert np.array_equal(packed[:, 0:8], f[:, 0:8])
        assert np.array_equal(packed[:, 8:12], f[:, 16:20])
        assert np.array_equal(packed[:, 12:14], f[:, 28:30])

    def test_row_mask_selects(self):
        f = frame()
        mask = np.zeros(20, dtype=bool)
        mask[[1, 5, 7]] = True
        packed = pack(f, GEO, row_mask=mask)
        assert packed.shape[0] == 3
        assert np.array_equal(packed[0, 0:8], f[1, 0:8])

    def test_empty_mask_gives_zero_rows(self):
        packed = pack(frame(), GEO, row_mask=np.zeros(20, dtype=bool))
        assert packed.shape == (0, 14)

    def test_single_field_geometry(self):
        g = DataGeometry(row_stride=32, fields=(FieldSlice("a", 4, 4),))
        f = frame()
        packed = pack(f, g)
        assert np.array_equal(packed, f[:, 4:8])

    def test_frame_validation(self):
        with pytest.raises(GeometryError):
            pack(np.zeros((4, 16), dtype=np.uint8), GEO)  # wrong stride
        with pytest.raises(GeometryError):
            pack(np.zeros((4, 32), dtype=np.int32), GEO)  # wrong dtype
        with pytest.raises(GeometryError):
            pack(np.zeros(32, dtype=np.uint8), GEO)  # wrong rank

    def test_source_frame_untouched(self):
        """Ephemeral semantics: packing never mutates the base image."""
        f = frame()
        before = f.copy()
        pack(f, GEO)
        assert np.array_equal(f, before)


class TestUnpack:
    def test_roundtrip_on_selected_bytes(self):
        f = frame()
        restored = unpack(pack(f, GEO), GEO)
        for fld in GEO.fields:
            assert np.array_equal(
                restored[:, fld.offset : fld.end], f[:, fld.offset : fld.end]
            )

    def test_untouched_bytes_filled(self):
        restored = unpack(pack(frame(), GEO), GEO, fill=0xAB)
        assert (restored[:, 8:16] == 0xAB).all()

    def test_bad_packed_shape(self):
        with pytest.raises(GeometryError):
            unpack(np.zeros((5, 99), dtype=np.uint8), GEO)


class TestDecode:
    def test_decode_typed_field(self):
        f = frame()
        keys = gather(record_view(f, GEO), ("key",))["key"]
        expected = np.ascontiguousarray(f[:, 0:8]).view("<i8").reshape(-1)
        assert keys.dtype == np.dtype("<i8")
        assert np.array_equal(keys, expected)

    def test_decode_frame_field_matches_packed_decode(self):
        f = frame()
        mask = np.arange(20) % 3 == 0
        a = gather(record_view(f, GEO), ("val",), mask)["val"]
        b = _referee_field(pack(f, GEO, row_mask=mask), GEO, "val")
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@st.composite
def frame_and_geometry(draw):
    stride = draw(st.sampled_from([16, 32, 64]))
    nrows = draw(st.integers(min_value=0, max_value=50))
    f = draw(
        hnp.arrays(dtype=np.uint8, shape=(nrows, stride), elements=st.integers(0, 255))
    )
    n_fields = draw(st.integers(min_value=1, max_value=4))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=stride),
                min_size=2 * n_fields,
                max_size=2 * n_fields,
                unique=True,
            )
        )
    )
    fields = []
    for i in range(0, len(cuts) - 1, 2):
        if cuts[i + 1] > cuts[i]:
            fields.append(FieldSlice(f"f{i}", cuts[i], cuts[i + 1] - cuts[i]))
    if not fields:
        fields = [FieldSlice("f0", 0, 4)]
    return f, DataGeometry(row_stride=stride, fields=tuple(fields))


class TestProperties:
    @given(frame_and_geometry())
    @settings(max_examples=80, deadline=None)
    def test_pack_unpack_roundtrip(self, fg):
        f, g = fg
        restored = unpack(pack(f, g), g)
        for fld in g.fields:
            assert np.array_equal(
                restored[:, fld.offset : fld.end], f[:, fld.offset : fld.end]
            )

    @given(frame_and_geometry(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=60, deadline=None)
    def test_masked_pack_equals_pack_of_masked_frame(self, fg, seed):
        f, g = fg
        rng = np.random.default_rng(seed)
        mask = rng.random(f.shape[0]) < 0.5
        assert np.array_equal(pack(f, g, row_mask=mask), pack(f[mask], g))

    @given(frame_and_geometry())
    @settings(max_examples=60, deadline=None)
    def test_packed_bytes_are_exactly_selected_bytes(self, fg):
        f, g = fg
        packed = pack(f, g)
        manual = np.concatenate(
            [f[:, fld.offset : fld.end] for fld in g.fields], axis=1
        ) if len(g.fields) > 1 else f[:, g.fields[0].offset : g.fields[0].end]
        assert np.array_equal(packed, manual)


#: Scalar dtypes a field of a given width may carry (None: opaque bytes).
_TYPES_BY_WIDTH = {
    1: ["<i1", "u1"],
    2: ["<i2", "<u2"],
    4: ["<i4", "<f4"],
    8: ["<i8", "<f8"],
}


@st.composite
def view_case(draw):
    """A frame, a geometry with typed and opaque fields at arbitrary
    (often unaligned) offsets, and a row mask (None, all-false or random).

    The frame is a prefix slice of a larger buffer, as ``Table.frame`` is.
    """
    f, g = draw(frame_and_geometry())
    fields = tuple(
        FieldSlice(
            fld.name,
            fld.offset,
            fld.width,
            draw(st.sampled_from([None] + _TYPES_BY_WIDTH.get(fld.width, []))),
        )
        for fld in g.fields
    )
    spare = draw(st.integers(min_value=0, max_value=3))
    buffer = np.zeros((f.shape[0] + spare, g.row_stride), dtype=np.uint8)
    buffer[: f.shape[0]] = f
    mask = draw(
        st.one_of(
            st.none(),
            st.just(np.zeros(f.shape[0], dtype=bool)),
            hnp.arrays(dtype=bool, shape=f.shape[0]),
        )
    )
    return buffer[: f.shape[0]], DataGeometry(g.row_stride, fields), mask


def _referee_field(packed: np.ndarray, g: DataGeometry, name: str) -> np.ndarray:
    """Decode one field of the pack() image: its packed byte columns,
    read as the field's scalar dtype or as ``S<width>`` strings."""
    fld = g.packed_field(name)
    raw = np.ascontiguousarray(packed[:, fld.offset : fld.end])
    return raw.view(fld.dtype or f"S{fld.width}").reshape(-1)


class TestBlocks:
    @given(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=2048),
    )
    @settings(max_examples=200, deadline=None)
    def test_blocks_partition_the_rows(self, nrows, stride, block_bytes):
        """Consecutive slices covering every row once: full blocks, then a
        last one of at least half and under one and a half blocks."""
        with mock.patch.object(packer, "_BLOCK_BYTES", block_bytes):
            parts = list(packer.blocks(nrows, stride))
        step = max(1, block_bytes // stride)
        bounds = [0] + [p.stop for p in parts]
        assert [p.start for p in parts] == bounds[:-1]
        assert bounds[-1] == nrows
        sizes = [p.stop - p.start for p in parts]
        assert all(size == step for size in sizes[:-1])
        if sizes:
            assert 0 < sizes[-1] and 2 * sizes[-1] < 3 * step
        if len(sizes) > 1:
            assert 2 * sizes[-1] >= step

    def test_short_remainder_joins_the_block_before(self):
        stride = 4
        with mock.patch.object(packer, "_BLOCK_BYTES", 10 * stride):
            merged = [(p.start, p.stop) for p in packer.blocks(24, stride)]
            kept = [(p.start, p.stop) for p in packer.blocks(25, stride)]
            alone = [(p.start, p.stop) for p in packer.blocks(4, stride)]
        assert merged == [(0, 10), (10, 24)]
        assert kept == [(0, 10), (10, 20), (20, 25)]
        assert alone == [(0, 4)]


class TestRecordView:
    @given(view_case(), st.integers(min_value=1, max_value=256))
    @settings(max_examples=120, deadline=None)
    def test_fields_equal_decode_of_pack_referee(self, case, block_bytes):
        f, g, mask = case
        view = record_view(f, g)
        assert view.shape == (f.shape[0],)
        assert np.shares_memory(view, f) or f.size == 0
        packed = pack(f, g, row_mask=mask)
        # Small blocks make the gather cross many block boundaries.
        with mock.patch.object(packer, "_BLOCK_BYTES", block_bytes):
            got = gather(view, g.field_names, mask)
        for fld in g.fields:
            want = _referee_field(packed, g, fld.name)
            assert got[fld.name].dtype == want.dtype
            assert got[fld.name].shape == want.shape
            assert got[fld.name].tobytes() == want.tobytes()
            assert got[fld.name].flags["C_CONTIGUOUS"]
            assert not np.shares_memory(got[fld.name], f)

    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.5, 0.9, 0.95, 1.0]), st.floats(0, 1)),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_mask_of_every_density_equals_boolean_index(self, densities, block_rows, seed):
        """One block per density: blocks that keep none, few, a mixed
        share, most or all of their rows give exactly
        ``view[name][mask]``."""
        rng = np.random.default_rng(seed)
        f = frame(nrows=len(densities) * block_rows, seed=seed)
        mask = np.concatenate(
            [rng.permutation(block_rows) < round(d * block_rows) for d in densities]
        )
        view = record_view(f, GEO)
        with mock.patch.object(packer, "_BLOCK_BYTES", block_rows * GEO.row_stride):
            got = gather(view, GEO.field_names, mask)
        for name in GEO.field_names:
            want = view[name][mask]
            assert got[name].dtype == want.dtype
            assert got[name].tobytes() == want.tobytes()
            assert got[name].flags["C_CONTIGUOUS"]

    @given(
        st.lists(st.integers(min_value=0, max_value=59), max_size=80),
        st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=60, deadline=None)
    def test_positions_gather_in_their_order(self, positions, block_bytes):
        """Integer positions (unsorted, repeated) copy those records in
        that order, whatever the block size."""
        view = record_view(frame(nrows=60, seed=3), GEO)
        rows = np.asarray(positions, dtype=np.int64)
        with mock.patch.object(packer, "_BLOCK_BYTES", block_bytes):
            got = gather(view, GEO.field_names, rows)
        for name in GEO.field_names:
            assert got[name].tobytes() == view[rows][name].tobytes()
            assert got[name].dtype == view[name].dtype

    @given(
        st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.9, 1.0]),
        st.sampled_from(["ascending", "shuffled", "repeated"]),
        st.sampled_from([np.int64, np.int32, np.uint16]),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_positions_of_every_density_equal_field_take(
        self, density, order, dtype, block_rows, seed
    ):
        """Positions at any density and in any order give exactly
        ``view[name][rows]``: each field taken at them, a block of
        positions at a time, into contiguous arrays."""
        rng = np.random.default_rng(seed)
        view = record_view(frame(nrows=50, seed=seed % 7), GEO)
        rows = np.flatnonzero(rng.random(50) < density)
        if order == "shuffled":
            rows = rng.permutation(rows)
        elif order == "repeated":
            rows = rng.choice(rows, 2 * len(rows)) if len(rows) else rows
        rows = rows.astype(dtype)
        with mock.patch.object(packer, "_BLOCK_BYTES", block_rows * GEO.row_stride):
            got = gather(view, GEO.field_names, rows)
        for name in GEO.field_names:
            want = view[name][rows]
            assert got[name].dtype == want.dtype
            assert got[name].tobytes() == want.tobytes()
            assert got[name].flags["C_CONTIGUOUS"]

    def test_fields_alias_the_frame(self):
        f = frame()
        view = record_view(f, GEO)
        f[3, 0:8] = np.array([77], dtype="<i8").view(np.uint8)
        assert view["key"][3] == 77

    def test_opaque_field_is_full_width_bytes(self):
        f = frame()
        f[:, 29] = 0  # trailing NUL of every tag
        tags = record_view(f, GEO)["tag"]
        assert tags.dtype == np.dtype("S2")
        assert tags.tobytes() == np.ascontiguousarray(f[:, 28:30]).tobytes()

    def test_frame_validation(self):
        with pytest.raises(GeometryError):
            record_view(np.zeros((4, 16), dtype=np.uint8), GEO)
        with pytest.raises(GeometryError):
            record_view(np.asfortranarray(frame()), GEO)
        with pytest.raises(GeometryError):
            gather(record_view(frame(), GEO), ("nope",))
