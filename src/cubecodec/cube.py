"""Spectral cube data model, the SCUB on-disk container, and synthetic cubes.

A :class:`SpectralCube` is an immutable H x W x N stack of spectral samples
stored band-major (one contiguous spatial plane per band) together with a
strictly increasing wavelength axis in nanometers.  The SCUB container is the
bit-exact serialization of that model:

    magic "SCUB" | version u8=1 | dtype u8=1 (f32) | reserved u16=0 |
    width u32 | height u32 | bands u32 |
    wavelengths f32 x N | samples f32 x (H*W*N), band-major

everything little-endian, 20 + 4*N + 4*H*W*N bytes total.  Samples are
float32 both on disk and in memory, which is what makes write/read round
trips bit-exact for every valid cube.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import (ArgumentError, CorruptError, FormatError, SizeLimitError, ValidationError,
                     check_array, check_axis, check_int, check_type)

SCUB_MAGIC = b"SCUB"
SCUB_VERSION = 1
SCUB_DTYPE_F32 = 1

_HEADER = struct.Struct("<4sBBHIII")
_F32_MAX = float(np.finfo(np.float32).max)

#: the most samples (bands x width x height) a cube may hold to be synthesized
#: or compressed, or a stream may claim to be parsed.  A decode peaks near 4
#: bytes per sample, the float32 cube, beside the int32 quantized blocks of its
#: planes and chunks of about 1 MiB (33.6 MiB for a 31.25 MiB, 2000-band cube
#: with 20 planes), so this bounds it near 0.5 GB, or twice that when every
#: band is a plane, whatever a header says.  The cap lives here only:
#: every check reads it through :func:`check_cube_size` at call time.
MAX_CUBE_SAMPLES = 1 << 27


def check_cube_size(bands: int, width: int, height: int) -> None:
    """Raise :class:`SizeLimitError` above :data:`MAX_CUBE_SAMPLES` samples."""
    samples = bands * width * height
    if samples > MAX_CUBE_SAMPLES:
        raise SizeLimitError(f"{bands} x {width} x {height} = {samples} samples exceeds "
                             f"MAX_CUBE_SAMPLES = {MAX_CUBE_SAMPLES}")


#: about how many float64 samples (1 MiB) one chunk of a pass keeps alive, summed
#: over every temporary the pass holds at once, so that its working set stays
#: near 1 MiB and its freed arrays are reused instead of faulted in anew
CHUNK_SAMPLES = 1 << 17

#: the pixel alignment of :func:`chunks`' edges, and the multiple the PCA forward
#: pads its pixel count to: a BLAS product over a chunk of pixels then rounds each
#: as the product over all does, as its kernel's register blocks (8 wide in
#: OpenBLAS's Haswell DGEMM) fall on the same pixels and no chunk is one column
#: wide, a matrix-vector product (Goto & van de Geijn, ACM TOMS 34(3), 2008).
CHUNK_ALIGN = 16


def chunks(count: int, item_samples: int, align: int = CHUNK_ALIGN) -> list[tuple[int, int]]:
    """``(lo, hi)`` spans splitting ``range(count)`` into chunks of about
    :data:`CHUNK_SAMPLES` samples at ``item_samples`` per item.

    ``item_samples`` counts every float64 sample the pass keeps alive per
    item, in all the arrays it holds together, not only the largest; each
    caller names the arrays it counts where it calls, or says why its count
    is a measured choice or set by a BLAS kernel's rounding instead.

    Every edge but the last is a multiple of ``align``, and the last chunk
    takes what is left, so none is narrower than the others.
    """
    width = max(align, CHUNK_SAMPLES // max(item_samples, 1) // align * align)
    edges = [*range(0, max(count - width, 0) + 1, width), count]
    return list(zip(edges, edges[1:]))


def scub_nbytes(width: int, height: int, bands: int) -> int:
    """Serialized SCUB size in bytes for the given dimensions."""
    return _HEADER.size + 4 * bands + 4 * width * height * bands


#: the largest width, height or band count: SCUB stores each as a u32
MAX_DIM = 2 ** 32 - 1


def freeze(record, **arrays) -> None:
    """Set the fields of a frozen dataclass ``record`` to read-only copies of
    ``arrays``, so the caller's own arrays stay writable and the record's stay as built.
    A copy keeps its array's memory order, which the BLAS products that read it run in."""
    for name, array in arrays.items():
        array = array.copy(order="K")
        array.setflags(write=False)
        object.__setattr__(record, name, array)


def values_equal(self, other) -> bool:
    """``__eq__`` of the value records: ``NotImplemented`` for another type, else
    whether every dataclass field is equal, arrays by value."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class SpectralCube:
    """Immutable spectral image: ``samples[b, y, x]`` is band ``b`` at pixel (x, y).

    The cube keeps a copy of the wavelengths, but takes ``samples`` over as it
    is when it is already a C-contiguous float32 array: that array becomes
    read-only, the caller's name for it included.
    """

    width: int
    height: int
    bands: int
    wavelengths: np.ndarray  # (bands,) float32, nm, strictly increasing
    samples: np.ndarray  # (bands, height, width) float32, finite

    def __post_init__(self):
        for name in ("width", "height", "bands"):
            check_int(name, getattr(self, name), 1, MAX_DIM, ValidationError)
        wl = check_axis("wavelengths", self.wavelengths, np.float32,
                        range(self.bands, self.bands + 1), ValidationError)
        s = np.ascontiguousarray(check_array("samples", self.samples, np.float32, ValidationError))
        # a sample past float32 was cast to inf; two reductions and no
        # temporary, as a NaN makes both bounds NaN
        if s.size and not (-_F32_MAX <= s.min() and s.max() <= _F32_MAX):
            raise ValidationError("samples are non-finite or outside the float32 range")
        if s.shape != (self.bands, self.height, self.width):
            raise ValidationError(
                f"samples has shape {s.shape}, expected "
                f"({self.bands}, {self.height}, {self.width})"
            )
        freeze(self, wavelengths=wl)
        # the samples are taken over, not copied: read_cube's view of its bytes
        # and the decoder's float32 cube stay the only copy
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    __eq__ = values_equal  # cubes are value objects; equality is bit-exact

    def pixel_matrix(self) -> np.ndarray:
        """Read-only (H*W, bands) view: one spectrum per row, raster order."""
        return self.samples.reshape(self.bands, -1).T

    @property
    def scub_size(self) -> int:
        """Byte size of this cube's SCUB serialization."""
        return scub_nbytes(self.width, self.height, self.bands)


def write_cube(cube: SpectralCube) -> bytes:
    """Serialize a cube to SCUB bytes (deterministic, bit-exact round trip)."""
    check_type("cube", cube, SpectralCube)
    header = _HEADER.pack(
        SCUB_MAGIC, SCUB_VERSION, SCUB_DTYPE_F32, 0,
        cube.width, cube.height, cube.bands,
    )
    wl = np.ascontiguousarray(cube.wavelengths, dtype="<f4")
    s = np.ascontiguousarray(cube.samples, dtype="<f4")
    return b"".join([header, wl.tobytes(), memoryview(s)])  # the samples copied once


def read_cube(data: bytes) -> SpectralCube:
    """Parse SCUB bytes; the exact inverse of :func:`write_cube`.

    From immutable ``bytes`` the cube's arrays are read-only views of
    ``data``.  Any other buffer (``bytearray``, any ``memoryview``) is first
    copied to ``bytes``, its raw bytes in C order, so a later change to the
    buffer leaves the cube as it is.
    """
    if not isinstance(check_type("data", data, (bytes, bytearray, memoryview)), bytes):
        data = bytes(data)
    if len(data) < _HEADER.size:
        raise CorruptError(f"SCUB truncated: {len(data)} bytes < {_HEADER.size} header")
    magic, version, dtype, reserved, width, height, bands = _HEADER.unpack_from(data, 0)
    if magic != SCUB_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {SCUB_MAGIC!r}")
    if version != SCUB_VERSION:
        raise FormatError(f"unsupported SCUB version {version}")
    if dtype != SCUB_DTYPE_F32:
        raise FormatError(f"unsupported dtype tag {dtype}")
    if reserved != 0:
        raise FormatError(f"reserved field must be 0, got {reserved}")
    if min(width, height, bands) < 1:
        raise CorruptError(f"non-positive dimensions {(width, height, bands)}")
    expected = scub_nbytes(width, height, bands)
    if len(data) != expected:
        raise CorruptError(f"SCUB length {len(data)} != expected {expected}")
    values = np.frombuffer(data, dtype="<f4", count=bands + width * height * bands,
                           offset=_HEADER.size)
    return SpectralCube(
        width=width,
        height=height,
        bands=bands,
        wavelengths=values[:bands],
        samples=values[bands:].reshape(bands, height, width),
    )


def default_wavelengths(bands: int) -> np.ndarray:
    """Default grid for synthesized cubes: 400-700 nm; 10 nm steps at N=31."""
    if bands == 1:
        wl = np.array([550.0])
    else:
        wl = np.linspace(400.0, 700.0, bands)
    return wl.astype(np.float32)


def _bilinear_upsample(lattice: np.ndarray, height: int, width: int) -> np.ndarray:
    """Bilinear interpolation of a coarse (gh, gw) lattice onto (height, width)."""
    gh, gw = lattice.shape
    ys = np.linspace(0.0, gh - 1.0, height)
    xs = np.linspace(0.0, gw - 1.0, width)
    y0 = np.minimum(ys.astype(int), gh - 2) if gh > 1 else np.zeros(height, int)
    x0 = np.minimum(xs.astype(int), gw - 2) if gw > 1 else np.zeros(width, int)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    a = lattice[np.ix_(y0, x0)]
    b = lattice[np.ix_(y0, x1)]
    c = lattice[np.ix_(y1, x0)]
    d = lattice[np.ix_(y1, x1)]
    return (a * (1 - fy) * (1 - fx) + b * (1 - fy) * fx
            + c * fy * (1 - fx) + d * fy * fx)


def smooth_field(rng: np.random.Generator, height: int, width: int,
                 lo: float, hi: float, cells: int = 4) -> np.ndarray:
    """Spatially smooth random field in [lo, hi], from a coarse random lattice."""
    lattice = rng.standard_normal((cells + 1, cells + 1))
    f = _bilinear_upsample(lattice, height, width)
    fmin, fmax = f.min(), f.max()
    if fmax - fmin < 1e-12:
        return np.full((height, width), 0.5 * (lo + hi))
    return lo + (hi - lo) * (f - fmin) / (fmax - fmin)


# each generator draws from ``rng`` and returns values(lo, hi): bands lo..hi - 1

def _synth_flat(rng, width, height, bands):
    return lambda lo, hi: np.full((hi - lo, height, width), 0.5)


def _synth_ramp(rng, width, height, bands):
    sx = np.arange(width) / max(width - 1, 1)
    sy = np.arange(height) / max(height - 1, 1)
    sb = np.arange(bands) / max(bands - 1, 1)
    return lambda lo, hi: (sb[lo:hi, None, None] + sy[None, :, None] + sx[None, None, :]) / 3.0


def _synth_gaussian(rng, width, height, bands):
    wl = default_wavelengths(bands).astype(np.float64)
    mu = smooth_field(rng, height, width, 430.0, 670.0)
    sigma = smooth_field(rng, height, width, 18.0, 60.0)
    amp = smooth_field(rng, height, width, 0.3, 0.9)
    return lambda lo, hi: 0.05 + amp[None] * np.exp(
        -0.5 * ((wl[lo:hi, None, None] - mu[None]) / sigma[None]) ** 2)


def _synth_random_smooth(rng, width, height, bands):
    # Anchor values every <= 6 bands in [0.25, 0.75]; linear interpolation
    # between anchors bounds every band-to-band step by 0.5/6 < 0.1.
    n_anchors = max(2, math.ceil((bands - 1) / 6) + 1) if bands > 1 else 1
    anchors = np.stack(
        [smooth_field(rng, height, width, 0.25, 0.75, cells=3) for _ in range(n_anchors)]
    )  # (A, H, W)
    if bands == 1:
        return lambda lo, hi: anchors[:1]
    pos = np.linspace(0.0, bands - 1.0, n_anchors)
    grid = np.arange(bands, dtype=np.float64)
    seg = np.clip(np.searchsorted(pos, grid, side="right") - 1, 0, n_anchors - 2)
    t = (grid - pos[seg]) / (pos[seg + 1] - pos[seg])
    return lambda lo, hi: ((1 - t)[lo:hi, None, None] * anchors[seg[lo:hi]]
                           + t[lo:hi, None, None] * anchors[seg[lo:hi] + 1])


_GENERATORS = {
    "flat": _synth_flat,
    "ramp": _synth_ramp,
    "gaussian-spectra": _synth_gaussian,
    "random-smooth": _synth_random_smooth,
}

#: patterns understood by :func:`synthesize_cube`
PATTERNS = tuple(_GENERATORS)


def synthesize_cube(width: int, height: int, bands: int,
                    pattern: str, seed: int = 0) -> SpectralCube:
    """Deterministic test cube with values in [0, 1].

    ``random-smooth`` guarantees per-pixel spectra with band-to-band steps
    <= 0.1, which makes them well suited to spline-based reduction.  The
    float32 samples are written a chunk of bands at a time.  More than
    :data:`MAX_CUBE_SAMPLES` samples raise :class:`SizeLimitError` before any
    allocation.
    """
    width, height, bands = (check_int(name, value, 1, MAX_DIM) for name, value in
                            (("width", width), ("height", height), ("bands", bands)))
    check_cube_size(bands, width, height)
    if check_type("pattern", pattern, str) not in _GENERATORS:
        raise ArgumentError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    rng = np.random.default_rng(check_int("seed", seed, 0))
    values = _GENERATORS[pattern](rng, width, height, bands)
    samples = np.empty((bands, height, width), dtype=np.float32)
    for lo, hi in chunks(bands, width * height, align=1):
        samples[lo:hi] = np.clip(values(lo, hi), 0.0, 1.0)
    return SpectralCube(width=width, height=height, bands=bands,
                        wavelengths=default_wavelengths(bands), samples=samples)
