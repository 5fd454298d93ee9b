"""The row→packed-line dataflow of the fabric, bit-exact.

This is the *functional* half of the hardware. :func:`record_view` reads
a row-major frame under a :class:`~repro.core.geometry.DataGeometry` as
a zero-copy structured array: every field is a typed view straight out
of the row image, the host-side analogue of a fabric that reads fields
in place. It is the one path from stored bytes to a column, and
:func:`gather` is the single copy, of qualifying rows only.
:func:`pack`/:func:`unpack` build and invert the densely packed byte
image the CPU would observe through an ephemeral variable; they are the
byte-exactness referee for that path. The *timing* half lives in
:mod:`repro.hw.engine`; keeping them separate lets tests verify
byte-exactness independently of cost calibration.

Frames are ``numpy`` arrays of shape ``(nrows, row_stride)`` and dtype
``uint8`` — the simulated main-memory image of a row-oriented table.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, Optional, Sequence

import numpy as np

from repro.core.geometry import DataGeometry, FieldSlice
from repro.errors import GeometryError


def check_frame(frame: np.ndarray, geometry: DataGeometry) -> None:
    """Validate that ``frame`` is a row image matching ``geometry``."""
    if frame.ndim != 2:
        raise GeometryError(f"frame must be 2-D (rows × bytes), got {frame.ndim}-D")
    if frame.dtype != np.uint8:
        raise GeometryError(f"frame dtype must be uint8, got {frame.dtype}")
    if frame.shape[1] != geometry.row_stride:
        raise GeometryError(
            f"frame row width {frame.shape[1]} != geometry stride {geometry.row_stride}"
        )


def field_dtype(f: FieldSlice) -> np.dtype:
    """How a stored field reads as an array: its scalar dtype, or
    ``S<width>`` (full-width byte strings) for opaque fields."""
    return np.dtype(f.dtype if f.dtype is not None else f"S{f.width}")


@lru_cache(maxsize=1024)
def _record_dtype(geometry: DataGeometry) -> np.dtype:
    """The structured dtype of one row under ``geometry``: field names and
    offsets as laid out, ``itemsize`` the row stride."""
    return np.dtype(
        {
            "names": list(geometry.field_names),
            "formats": [field_dtype(f) for f in geometry.fields],
            "offsets": [f.offset for f in geometry.fields],
            "itemsize": geometry.row_stride,
        }
    )


def record_view(image: np.ndarray, geometry: DataGeometry) -> np.ndarray:
    """A zero-copy ``(nrows,)`` structured view of a row image.

    ``view[name]`` is one field as a typed array aliasing ``image``;
    :func:`gather` copies just the selected rows. Anything kept beyond the
    caller's frame must be such a copy: the image is written in place and
    may be reallocated.
    """
    check_frame(image, geometry)
    if image.size and image.strides[1] != 1:
        raise GeometryError("a record view needs each row's bytes contiguous")
    return image.view(_record_dtype(geometry)).reshape(-1)


#: Bytes of image per block: small enough that a block stays
#: cache-resident while every wanted field is copied out of it (by
#: :func:`gather`) or written into it (by a bulk load).
_BLOCK_BYTES = 1 << 19


def blocks(nrows: int, row_stride: int) -> Iterator[slice]:
    """Consecutive row slices over ``nrows`` records of ``row_stride``
    bytes, each about :data:`_BLOCK_BYTES` of image: the unit in which
    the row image is read and written.

    A remainder shorter than half a block joins the block before it: a
    numpy call on it would cost about its per-call overhead, more than
    the extra rows spare in cache residency.
    """
    step = max(1, _BLOCK_BYTES // row_stride)
    count = -(-nrows // step)
    if count > 1 and 2 * (nrows - (count - 1) * step) < step:
        count -= 1
    return (
        slice(i * step, nrows if i == count - 1 else (i + 1) * step)
        for i in range(count)
    )


def gather(
    view: np.ndarray,
    names: Sequence[str],
    rows: Optional[np.ndarray] = None,
) -> Dict[str, np.ndarray]:
    """Owned, contiguous copies of fields of a :func:`record_view`, keeping
    the rows where the boolean mask ``rows`` is set (all rows if None),
    or the rows at the integer positions ``rows``, in that order.

    This is the single copy from the image. It walks the image once, in
    cache-sized :func:`blocks`, and copies every field out of a block
    while the block is resident; a strided pass per field would fetch
    every row's lines once per field. Positions go a block of positions
    at a time, each field taken at them, so no whole record is copied.
    """
    fields = view.dtype.fields
    for name in names:
        if name not in fields:
            raise GeometryError(f"no field named {name!r} in geometry")
    stride = view.dtype.itemsize
    if rows is not None and rows.dtype != bool:
        out = {name: np.empty(len(rows), fields[name][0]) for name in names}
        for part in blocks(len(rows), stride):
            at = rows[part]
            for name in names:
                out[name][part] = view[name][at]
        return out
    total = len(view) if rows is None else int(np.count_nonzero(rows))
    out = {name: np.empty(total, fields[name][0]) for name in names}
    pos = 0
    for part in blocks(len(view), stride):
        chunk = view[part]
        keep = slice(None) if rows is None else rows[part]
        stop = pos + (len(chunk) if rows is None else int(np.count_nonzero(keep)))
        for name in names:
            out[name][pos:stop] = chunk[name][keep]
        pos = stop
    return out


def pack(
    frame: np.ndarray,
    geometry: DataGeometry,
    row_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Transform rows to the packed column-group layout.

    Returns a C-contiguous ``(n_selected, packed_width)`` uint8 array —
    the byte stream the fabric pushes toward the CPU cache. With
    ``row_mask`` (boolean, one entry per row) only qualifying rows are
    emitted, modelling selection or MVCC visibility pushed into the
    fabric.
    """
    check_frame(frame, geometry)
    src = frame if row_mask is None else frame[row_mask]
    parts = [src[:, f.offset : f.end] for f in geometry.fields]
    if len(parts) == 1:
        return np.ascontiguousarray(parts[0])
    return np.ascontiguousarray(np.concatenate(parts, axis=1))


def unpack(
    packed: np.ndarray,
    geometry: DataGeometry,
    fill: int = 0,
) -> np.ndarray:
    """Inverse of :func:`pack` for verification: scatter packed bytes back
    into a full-stride frame, filling untouched bytes with ``fill``.
    """
    if packed.ndim != 2 or packed.shape[1] != geometry.packed_width:
        raise GeometryError(
            f"packed image must be (n, {geometry.packed_width}), got {packed.shape}"
        )
    out = np.full((packed.shape[0], geometry.row_stride), fill, dtype=np.uint8)
    cursor = 0
    for f in geometry.fields:
        out[:, f.offset : f.end] = packed[:, cursor : cursor + f.width]
        cursor += f.width
    return out
