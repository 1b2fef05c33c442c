"""Bit-exact image I/O and decomposition into (sub-)patch grids.

Only binary netpbm rasters (P6 color / P5 gray, maxval 255) are supported:
they roundtrip byte-for-byte, which every encryption test here depends on.
Images are HxWxC uint8 arrays in row-major (row, column, channel) order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecodeError, GeometryError


@dataclass(frozen=True)
class Image:
    """8-bit raster; ``pixels`` has shape (height, width, channels)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8:
            # a bare cast would wrap 300 to 44 and -1.7 to 255
            if not np.all((px >= 0) & (px <= 255) & (px == np.rint(px))):
                raise GeometryError("pixels must be integers in [0, 255]")
            px = px.astype(np.uint8)
        if px.ndim != 3:
            raise GeometryError(f"pixels must be HxWxC, got shape {px.shape}")
        if px.shape[2] not in (1, 3):
            raise GeometryError(f"channels must be 1 or 3, got {px.shape[2]}")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class PatchGrid:
    """Row-major sequence of equally-sized square patches plus grid geometry.

    ``patches`` is one (rows * cols, patch_size, patch_size, channels) uint8
    array; a sequence of equal patches is stacked into one. ``holes`` is
    an optional (rows * cols,) bool mask of dropped patches, and a grid
    built without it has none; drop_patches zeroes the pixels of the
    patches it marks. ``interval`` records the pixel gap that was skipped
    between patches when the grid was cut.
    """

    rows: int
    cols: int
    patch_size: int
    channels: int
    interval: int
    patches: np.ndarray
    holes: np.ndarray | None = None

    def __post_init__(self):
        try:
            patches = np.asarray(self.patches)
        except ValueError:  # a ragged sequence of patches
            raise GeometryError("patches differ in shape") from None
        n = self.rows * self.cols
        shape = (n, self.patch_size, self.patch_size, self.channels)
        if patches.shape != shape or patches.dtype != np.uint8:
            raise GeometryError(
                f"patches have shape {patches.shape} and dtype {patches.dtype}, "
                f"expected {shape} uint8"
            )
        holes = np.zeros(n, dtype=bool) if self.holes is None else self.holes
        holes = np.asarray(holes, dtype=bool)
        if holes.shape != (n,):
            raise GeometryError(f"holes must be a ({n},) bool mask, got {holes.shape}")
        object.__setattr__(self, "patches", patches)
        object.__setattr__(self, "holes", holes)

    @property
    def n_patches(self) -> int:
        return self.rows * self.cols

    def hole_count(self) -> int:
        return int(self.holes.sum())


def _read_token(data: bytes, pos: int, field: str):
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise DecodeError(f"unterminated comment while reading {field}")
            pos = nl + 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise DecodeError(f"truncated header: missing {field}")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def load_ppm(path) -> Image:
    """Load a binary PPM (P6) or PGM (P5) file with maxval 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _read_token(data, 0, "magic")
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise DecodeError(f"magic must be P6 or P5, got {magic!r}")
    fields = {}
    for field in ("width", "height", "maxval"):
        token, pos = _read_token(data, pos, field)
        try:
            fields[field] = int(token)
        except ValueError:
            raise DecodeError(f"{field} is not an integer: {token!r}") from None
    width, height, maxval = fields["width"], fields["height"], fields["maxval"]
    if width <= 0 or height <= 0:
        raise DecodeError(f"width/height must be positive, got {width}x{height}")
    if maxval != 255:
        raise DecodeError(f"maxval must be 255, got {maxval}")
    # exactly one whitespace byte separates the header from the payload
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise DecodeError("missing whitespace after maxval")
    pos += 1
    expected = height * width * channels
    payload = data[pos : pos + expected]
    if len(payload) != expected:
        raise DecodeError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Image(pixels=pixels)


def save_ppm(img: Image, path) -> None:
    """Write ``img`` with the canonical single-whitespace header.

    P6 for 3-channel images, P5 for 1-channel; load_ppm inverts the result
    exactly.
    """
    magic = b"P6" if img.channels == 3 else b"P5"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes())


def grid_shape(height: int, width: int, patch_size: int, interval: int) -> tuple:
    """(rows, cols) of the patch grid that split_patches cuts from an image
    of this size; GeometryError if the geometry admits no grid.

    Patches are sampled at stride patch_size + interval starting at (0, 0).
    With interval 0 the image sides must be exact multiples of patch_size.
    """
    if patch_size < 2:
        raise GeometryError(f"patch_size must be >= 2, got {patch_size}")
    if interval < 0:
        raise GeometryError(f"interval must be >= 0, got {interval}")
    if patch_size > min(height, width):
        raise GeometryError(
            f"patch_size {patch_size} exceeds image dimensions {height}x{width}"
        )
    if interval == 0 and (height % patch_size or width % patch_size):
        raise GeometryError(
            f"image {height}x{width} not divisible by patch_size {patch_size} with interval 0"
        )
    stride = patch_size + interval
    return (height - patch_size) // stride + 1, (width - patch_size) // stride + 1


def split_patches(img: Image, patch_size: int, interval: int = 0) -> PatchGrid:
    """Cut ``img`` into square patches of side ``patch_size``, in the grid
    that grid_shape describes; pixels inside the gaps are discarded and
    never enter the grid.
    """
    rows, cols = grid_shape(img.height, img.width, patch_size, interval)
    stride = patch_size + interval
    windows = np.lib.stride_tricks.sliding_window_view(
        img.pixels, (patch_size, patch_size), axis=(0, 1)
    )[::stride, ::stride]
    # copy before the reshape: on 1xk and kx1 grids a bare reshape is a view
    # of the caller's pixels, and the grid must not alias them
    blocks = windows.transpose(0, 1, 3, 4, 2).copy().reshape(
        rows * cols, patch_size, patch_size, img.channels
    )
    return PatchGrid(
        rows=rows,
        cols=cols,
        patch_size=patch_size,
        channels=img.channels,
        interval=interval,
        patches=blocks,
    )


def assemble(grid: PatchGrid) -> Image:
    """Reassemble a gap-free, hole-free grid into an image.

    Inverse of split_patches for interval 0; gaps discard pixels, so grids
    with interval > 0 cannot be assembled.
    """
    if grid.interval != 0:
        raise GeometryError(
            f"cannot assemble a grid with interval {grid.interval}: gap pixels were discarded"
        )
    if grid.hole_count():
        raise GeometryError(f"cannot assemble a grid with {grid.hole_count()} holes")
    p = grid.patch_size
    blocks = grid.patches.reshape(grid.rows, grid.cols, p, p, grid.channels)
    return Image(pixels=blocks.transpose(0, 2, 1, 3, 4).reshape(
        grid.rows * p, grid.cols * p, grid.channels
    ))


def split_subpatches(patch: np.ndarray):
    """Quarter a patch into [top-left, top-right, bottom-left, bottom-right]."""
    p = patch.shape[0]
    if p % 2:
        raise GeometryError(f"patch size must be even to form sub-patches, got {p}")
    half = p // 2
    return [
        patch[:half, :half].copy(),
        patch[:half, half:].copy(),
        patch[half:, :half].copy(),
        patch[half:, half:].copy(),
    ]
