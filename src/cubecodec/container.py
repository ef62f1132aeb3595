"""End-to-end codec: spectral reduction + plane coding in one SCMP stream.

Stream layout (little-endian):

    magic "SCMP" | version u8=1 | method u8 (1=PCA, 2=CSI) | p u16 | n u16 |
    w u32 | h u32 | quality u8 | wavelengths f32 x N |
    side-info block | p x (u32 w | u32 h | u8 q | f64 offset | f64 scale |
                           u32 n | payload)

Each plane record repeats the header's w, h and q, then holds the fields of
its :class:`~cubecodec.spatial.EncodedPlane`: offset, scale and n payload bytes.
:class:`CompressedStream` states each fact once: p and N are its plane and
wavelength counts.

Each spectral method is defined once, as an entry of :data:`SPECTRAL_METHODS`
(tag, side-info type, reduce, expand, side-info size, writer and reader).
Reduce returns the P planes as a plain ``(P, H, W)`` array (PCA's float64
scores, CSI's float32 knot bands), which goes straight to the plane coder.
The decoder entropy decodes every plane first; expand then takes the planes
as :class:`~cubecodec.spatial.PlaneBands`, dequantized and inverse
transformed one band of rows at a time, and both methods run one synthesis,
``matrix @ planes (+ mean)``, chunk by chunk into the float32 cube.  The
decoder makes no whole-cube float64 array, so a decode peaks near the size
of its cube.
Side info is stored uncompressed: PCA writes the band-mean vector, the N x P
basis (column-major by component) and the P eigenvalues as f32
(4N + 4NP + 4P bytes); CSI writes P u16 knot indices (2P bytes).  Each
side-info record checks that it fits the stream's N bands
(``check_for_bands``), so nothing is serialized to learn its size.

Records raise :class:`ValidationError` for a bad field, the side-info
readers included; :func:`parse_stream` reports each one, with what failed,
as a :class:`CorruptError` at one boundary.

Rate control is an integer binary search on the single shared plane
quality, run count-then-emit on one :class:`~cubecodec.spatial.PlaneStack`:
all P planes are normalized and DCT-transformed once, together; each probe
quantizes and counts the Huffman bits of every plane in one pass over the
stack, and the stream size is worked out from the layout above
(:func:`stream_nbytes`) without serializing anything.  Only the chosen
quality is entropy coded, again in one pass over all planes, from the
symbols of the last probe when the search ends on it.  A stream
whose compression rate lands within the requested tolerance counts as an
in-window success; when the quality grid straddles the window, the search
falls back to the smallest achievable rate at or above the target and
reports ``in_window=False``.  Targets that are unreachable even at quality 1
raise :class:`RateError`.

A cube of more than :data:`cubecodec.cube.MAX_CUBE_SAMPLES` samples is
neither compressed nor, going by its header, parsed: :class:`SizeLimitError`
from :func:`cubecodec.cube.check_cube_size`, the one place the cap is read.
"""

from __future__ import annotations

import struct
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cube import SpectralCube, check_cube_size, freeze, values_equal
from .errors import (
    ArgumentError,
    CorruptError,
    FormatError,
    RateError,
    SizeLimitError,
    ValidationError,
    check_axis,
    check_int,
    check_real,
    check_type,
)
from .reduction import (
    CsiSideInfo,
    PcaSideInfo,
    csi_forward,
    csi_inverse,
    csi_select_knots,
    pca_fit,
    pca_forward,
    pca_inverse,
)
from .spatial import (
    EncodedPlane,
    PlaneBands,
    PlaneStack,
    quality_to_table,
)

SCMP_MAGIC = b"SCMP"
SCMP_VERSION = 1

_HEADER = struct.Struct("<4sBBHHIIB")
_PLANE_HEADER = struct.Struct("<IIBddI")

@dataclass(frozen=True)
class SpectralMethod:
    """One spectral reducer: everything the codec needs to know about it."""

    tag: int  # method byte in the SCMP header
    side_type: type
    reduce: Callable  # (cube, p) -> ((P, H, W) planes, side info)
    expand: Callable  # (planes or PlaneBands, side info, wavelengths) -> SpectralCube
    side_nbytes: Callable  # (n, p) -> side-info bytes in the stream
    write_side: Callable  # side info -> bytes
    read_side: Callable  # (bytes, n, p) -> side info; raises ValidationError


# reduce/expand look the reducers up in this module at call time: rebinding one here takes effect

def _pca_reduce(cube: SpectralCube, p: int):
    side = pca_fit(cube, p)
    return pca_forward(cube, side), side


def _pca_write(side: PcaSideInfo) -> bytes:
    values = np.concatenate([side.mean, side.basis.T.ravel(), side.eigenvalues])
    with np.errstate(over="ignore"):  # a value past float32 becomes inf, which PcaSideInfo rejects
        return values.astype("<f4").tobytes()


def _pca_read(data: bytes, n: int, p: int) -> PcaSideInfo:
    with np.errstate(invalid="ignore"):  # a signaling NaN turns quiet, and PcaSideInfo rejects it
        values = np.frombuffer(data, dtype="<f4").astype(np.float64)
    side = PcaSideInfo(mean=values[:n], basis=values[n:n + n * p].reshape(p, n).T,
                       eigenvalues=values[n + n * p:])
    if (defect := side.orthonormality_defect()) > 1e-4:  # loose: the stream rounds to f32
        raise ValidationError(f"basis columns not orthonormal: defect {defect:.3e}")
    return side


def _csi_reduce(cube: SpectralCube, p: int):
    side = csi_select_knots(cube.bands, p)
    return csi_forward(cube, side), side


def _csi_read(data: bytes, n: int, p: int) -> CsiSideInfo:
    side = CsiSideInfo(knot_indices=np.frombuffer(data, dtype="<u2").astype(np.int64))
    side.check_for_bands(n, ValidationError)
    return side


SPECTRAL_METHODS = {
    "pca": SpectralMethod(
        tag=1, side_type=PcaSideInfo, reduce=_pca_reduce,
        expand=lambda planes, side, wl: pca_inverse(planes, side, wl),
        side_nbytes=lambda n, p: 4 * n + 4 * n * p + 4 * p,
        write_side=_pca_write, read_side=_pca_read,
    ),
    "csi": SpectralMethod(
        tag=2, side_type=CsiSideInfo, reduce=_csi_reduce,
        expand=lambda planes, side, wl: csi_inverse(planes, side, wl),
        side_nbytes=lambda n, p: 2 * p,
        write_side=lambda side: side.knot_indices.astype("<u2").tobytes(),
        read_side=_csi_read,
    ),
}


def spectral_method(method: str, error: type = ArgumentError) -> SpectralMethod:
    """The table entry of ``method``; ``error`` if there is none."""
    if check_type("method", method, str, error) not in SPECTRAL_METHODS:
        raise error(f"unknown method {method!r}; expected one of {tuple(SPECTRAL_METHODS)}")
    return SPECTRAL_METHODS[method]


@dataclass(frozen=True)
class RateTarget:
    """Target compression rate with a relative tolerance window."""

    target_cr: float
    tolerance: float = 0.05

    def __post_init__(self):
        check_real("target_cr", self.target_cr, 1)
        check_real("tolerance", self.tolerance, 0, 1)

    @property
    def window(self) -> tuple[float, float]:
        return (self.target_cr * (1 - self.tolerance), self.target_cr * (1 + self.tolerance))


@dataclass(frozen=True)
class StageTimes:
    """Wall milliseconds of one compress or decompress, split by stage.

    Spectral: fit + forward on compress, the synthesis of every band on
    decompress.  Spatial: plane transform, rate probes and emit on compress,
    entropy decode, dequantize and IDCT on decompress.
    """

    spectral_ms: float
    spatial_ms: float


@dataclass(frozen=True)
class RateReport:
    """Outcome of :func:`compress_with_report`: the quality search and the stage times."""

    quality: int
    achieved_cr: float
    in_window: bool
    encodes: int
    times: StageTimes


@dataclass(frozen=True, eq=False)
class CompressedStream:
    """An SCMP stream as values; built only if :func:`serialize_stream` can write it
    and :func:`parse_stream` reads the bytes back to an equal stream; frozen, so it stays so."""

    method: str  # a key of SPECTRAL_METHODS
    side: PcaSideInfo | CsiSideInfo
    wavelengths: np.ndarray  # (N,) float32
    quality: int
    planes: tuple[EncodedPlane, ...]
    width: int
    height: int

    def __post_init__(self):
        spec = spectral_method(self.method, ValidationError)
        if not 1 <= len(check_type("planes", self.planes, (list, tuple), ValidationError)) <= 0xFFFF:
            raise ValidationError(f"planes must hold 1 to 65535 plane records, got {len(self.planes)}")
        object.__setattr__(self, "planes", tuple(self.planes))
        for plane in self.planes:
            check_type("plane record", plane, EncodedPlane, ValidationError)
        check_int("quality", self.quality, 1, 100, ValidationError)
        check_int("width", self.width, 1, 2 ** 32 - 1, ValidationError)
        check_int("height", self.height, 1, 2 ** 32 - 1, ValidationError)
        freeze(self, wavelengths=check_axis("wavelengths", self.wavelengths, np.float32,
                                            range(1, 0x10000), ValidationError))
        if check_type("side", self.side, spec.side_type, ValidationError).p != self.p:
            raise ValidationError(f"side info for p={self.side.p} beside {self.p} plane records")
        self.side.check_for_bands(self.bands, ValidationError)
        # keep the side info as the decoder reads it (PCA: rounded to f32)
        side = spec.write_side(self.side)
        object.__setattr__(self, "side", spec.read_side(side, self.bands, self.p))

    @property
    def p(self) -> int:
        return len(self.planes)

    @property
    def bands(self) -> int:
        return len(self.wavelengths)

    __eq__ = values_equal


def stream_nbytes(method: str, p: int, bands: int, payload_nbytes: int) -> int:
    """Byte size of a serialized stream whose plane payloads total ``payload_nbytes``.

    Equals ``len(serialize_stream(stream))`` without building the bytes.
    """
    side = SPECTRAL_METHODS[method].side_nbytes(bands, p)
    return _HEADER.size + 4 * bands + side + p * _PLANE_HEADER.size + payload_nbytes


def serialize_stream(stream: CompressedStream) -> bytes:
    """Serialize to SCMP bytes; bijective with :func:`parse_stream`."""
    check_type("stream", stream, CompressedStream)
    out = bytearray()
    out += _HEADER.pack(
        SCMP_MAGIC, SCMP_VERSION, SPECTRAL_METHODS[stream.method].tag,
        stream.p, stream.bands, stream.width, stream.height, stream.quality,
    )
    out += np.ascontiguousarray(stream.wavelengths, dtype="<f4").tobytes()
    out += SPECTRAL_METHODS[stream.method].write_side(stream.side)
    for plane in stream.planes:
        out += _PLANE_HEADER.pack(stream.width, stream.height, stream.quality,
                                  plane.offset, plane.scale, len(plane.payload))
        out += plane.payload
    return bytes(out)


def parse_stream(data: bytes) -> CompressedStream:
    """Parse SCMP bytes back into a stream; exact inverse of serialization."""
    if len(check_type("data", data, (bytes, bytearray, memoryview))) < _HEADER.size:
        raise CorruptError("SCMP truncated before header end")
    magic, version, tag, p, n, width, height, quality = _HEADER.unpack_from(data, 0)
    if magic != SCMP_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {SCMP_MAGIC!r}")
    if version != SCMP_VERSION:
        raise FormatError(f"unsupported SCMP version {version}")
    method = next((name for name, m in SPECTRAL_METHODS.items() if m.tag == tag), None)
    if method is None:
        raise CorruptError(f"unknown method tag {tag}")
    if min(p, n, width, height) < 1 or not 1 <= quality <= 100:
        raise CorruptError("bad header fields")
    check_cube_size(n, width, height)
    spec = SPECTRAL_METHODS[method]
    side_at = _HEADER.size + 4 * n
    off = side_at + spec.side_nbytes(n, p)
    if off > len(data):
        raise CorruptError("SCMP truncated before the plane records")
    wavelengths = np.frombuffer(data, dtype="<f4", count=n, offset=_HEADER.size).copy()
    try:  # every record raises ValidationError: here, and only here, it becomes CorruptError
        what = f"{method.upper()} side info"
        side = spec.read_side(data[side_at:off], n, p)
        planes = []
        for i in range(p):
            if off + _PLANE_HEADER.size > len(data):
                raise CorruptError("truncated plane record header")
            w, h, q, offset, scale, count = _PLANE_HEADER.unpack_from(data, off)
            if (w, h, q) != (width, height, quality):
                raise CorruptError(f"plane record {i} disagrees with stream header")
            off += _PLANE_HEADER.size
            if off + count > len(data):
                raise CorruptError("truncated plane payload")
            what = f"normalization in plane record {i}"
            planes.append(EncodedPlane(offset, scale, bytes(data[off:off + count])))
            off += count
        if off != len(data):
            raise CorruptError(f"{len(data) - off} trailing bytes after last plane")
        what = "stream"  # the wavelengths, the one field not checked above
        return CompressedStream(method=method, side=side, wavelengths=wavelengths,
                                quality=quality, planes=planes, width=width, height=height)
    except ValidationError as exc:
        raise CorruptError(f"bad {what}: {exc}") from None


def compression_rate(original: SpectralCube, stream_nbytes: int) -> float:
    """SCUB byte size of the original divided by the stream byte size."""
    check_type("original", original, SpectralCube)
    return original.scub_size / check_int("stream_nbytes", stream_nbytes, 1)


# ---------------------------------------------------------------------------
# pipeline stages

def _search_quality(cube: SpectralCube, rate: RateTarget, overhead: int,
                    stack: PlaneStack) -> tuple[int, bool, int]:
    """Binary-search the plane quality for ``rate``; returns (quality, in window, probes)."""
    lo_cr, hi_cr = rate.window
    best_above = None  # (cr, q) with smallest cr >= target
    probes = 0
    lo, hi = 1, 100
    while lo <= hi:
        mid = (lo + hi) // 2
        cr = compression_rate(cube, overhead + int(stack.count_nbytes(mid).sum()))
        probes += 1
        if lo_cr <= cr <= hi_cr:
            return mid, True, probes
        if cr >= rate.target_cr and (best_above is None or cr < best_above[0]):
            best_above = (cr, mid)
        if cr > hi_cr:
            lo = mid + 1  # too much compression: raise quality
        else:
            hi = mid - 1  # too little compression: lower quality
    if best_above is not None:
        return best_above[1], False, probes
    # every probe fell below the window, so each lowered hi: the last, cr, was quality 1
    if overhead * rate.target_cr >= cube.scub_size:
        raise RateError(
            f"stream overhead alone ({overhead} B) exceeds the byte budget for "
            f"CR {rate.target_cr}; best achieved CR {cr:.4g}", best_cr=cr)
    raise RateError(
        f"target CR {rate.target_cr} unreachable: quality 1 achieves only {cr:.4g}",
        best_cr=cr)


def compress_with_report(cube: SpectralCube, method: str, p: int,
                         rate: RateTarget | None = None,
                         quality: int | None = None):
    """Compress a cube; returns (stream, RateReport).

    Exactly one of ``rate`` and ``quality`` drives the plane quality: a
    fixed ``quality`` (an integer in 1..100) skips rate control entirely.
    Each rate probe counts the stream size without emitting or serializing
    it; only the chosen quality is entropy coded.  Running out of memory
    raises :class:`SizeLimitError`.
    """
    check_type("cube", cube, SpectralCube)
    if (rate is None) == (quality is None):
        raise ArgumentError("provide exactly one of rate target or fixed quality")
    if quality is not None:
        quality_to_table(quality)  # raises unless an integer in 1..100
    else:
        check_type("rate", rate, RateTarget)
    p = check_int("p", p, 1, 0xFFFF)
    if cube.bands > 0xFFFF:
        raise ArgumentError(f"SCMP holds at most 65535 bands, cube has {cube.bands}")
    check_cube_size(cube.bands, cube.width, cube.height)
    try:
        t0 = time.perf_counter_ns()
        planes, side = spectral_method(method).reduce(cube, p)
        t1 = time.perf_counter_ns()
        stack = PlaneStack.of(planes)
        del planes  # free the planes: the stack carries all the search and the emit need
        overhead = stream_nbytes(method, p, cube.bands, 0)
        if quality is None:
            quality, in_window, probes = _search_quality(cube, rate, overhead, stack)
        else:
            quality, in_window, probes = int(quality), True, 1
        encoded = stack.encode(quality)
        t2 = time.perf_counter_ns()
    except MemoryError:
        raise SizeLimitError(f"out of memory compressing a {cube.bands} x {cube.width} x "
                             f"{cube.height} cube") from None
    stream = CompressedStream(method=method, side=side, wavelengths=cube.wavelengths,
                              quality=quality, planes=encoded, width=cube.width,
                              height=cube.height)
    cr = compression_rate(cube, overhead + sum(len(plane.payload) for plane in encoded))
    return stream, RateReport(quality=quality, achieved_cr=cr, in_window=in_window, encodes=probes,
                              times=StageTimes(spectral_ms=(t1 - t0) / 1e6,
                                               spatial_ms=(t2 - t1) / 1e6))


def compress(cube: SpectralCube, method: str, p: int,
             rate: RateTarget | None = None,
             quality: int | None = None) -> CompressedStream:
    """Compress a cube to a stream (see :func:`compress_with_report`)."""
    return compress_with_report(cube, method, p, rate=rate, quality=quality)[0]


def decompress_with_report(stream: CompressedStream) -> tuple[SpectralCube, StageTimes]:
    """Decode all planes and invert the spectral reduction; returns (cube, StageTimes).

    The planes are entropy decoded first, then dequantized, inverse
    transformed and synthesized one band of rows at a time: the spectral time
    is the synthesis's share of that.  A plane scale that takes the planes
    past float64, or a reconstruction outside float32 (non-finite planes make
    one), raises :class:`CorruptError` before it is cast; running out of
    memory raises :class:`SizeLimitError`.
    """
    check_type("stream", stream, CompressedStream)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            t0 = time.perf_counter_ns()
            planes = PlaneBands(stream.planes, stream.width, stream.height, stream.quality)
            t1 = time.perf_counter_ns()
            cube = SPECTRAL_METHODS[stream.method].expand(planes, stream.side, stream.wavelengths)
            t2 = time.perf_counter_ns()
    except ValidationError as exc:
        raise CorruptError(f"decoded values out of range: {exc}") from None
    except MemoryError:
        raise SizeLimitError(f"out of memory decoding a {stream.bands} x {stream.width} x "
                             f"{stream.height} cube") from None
    return cube, StageTimes(spectral_ms=(t2 - t1 - planes.ns) / 1e6,
                            spatial_ms=(t1 - t0 + planes.ns) / 1e6)


def decompress(stream: CompressedStream) -> SpectralCube:
    """Decode a stream back to a cube (see :func:`decompress_with_report`)."""
    return decompress_with_report(stream)[0]
