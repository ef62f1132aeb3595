"""End-to-end codec: spectral reduction + plane coding in one SCMP stream.

Stream layout (little-endian):

    magic "SCMP" | version u8=1 | method u8 (1=PCA, 2=CSI) | p u16 | n u16 |
    w u32 | h u32 | quality u8 | wavelengths f32 x N |
    side-info block | p x EncodedPlane records

Side info is stored uncompressed in 32-bit floats: the PCA block is the
band-mean vector, the N x P basis (column-major by component), and the P
eigenvalues (4N + 4NP + 4P bytes); the CSI block is P u16 knot indices
(2P bytes).

Rate control is an integer binary search on the single shared plane
quality, run count-then-emit: each plane is normalized and transformed once,
each probe quantizes every plane and counts its Huffman bits, and the stream
size is worked out from the layout above (:func:`stream_nbytes`) without
serializing anything.  Only the chosen quality is entropy coded.  A stream
whose compression rate lands within the requested tolerance counts as an
in-window success; when the quality grid straddles the window, the search
falls back to the smallest achievable rate at or above the target and
reports ``in_window=False``.  Targets that are unreachable even at quality 1
raise :class:`RateError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .cube import SpectralCube
from .errors import ArgumentError, CorruptError, FormatError, RateError, ValidationError
from .reduction import (
    CsiSideInfo,
    PcaSideInfo,
    ReducedPlanes,
    csi_forward,
    csi_inverse,
    csi_select_knots,
    pca_fit,
    pca_forward,
    pca_inverse,
)
from .spatial import PLANE_HEADER_NBYTES, EncodedPlane, PlaneTransform, decode_plane, encode_plane

SCMP_MAGIC = b"SCMP"
SCMP_VERSION = 1
METHOD_TAGS = {"pca": 1, "csi": 2}
_TAG_METHODS = {v: k for k, v in METHOD_TAGS.items()}

_HEADER = struct.Struct("<4sBBHHIIB")


@dataclass(frozen=True)
class RateTarget:
    """Target compression rate with a relative tolerance window."""

    target_cr: float
    tolerance: float = 0.05

    def __post_init__(self):
        if not (np.isfinite(self.target_cr) and self.target_cr > 1):
            raise ArgumentError(f"target_cr must be > 1, got {self.target_cr}")
        if not 0 < self.tolerance < 1:
            raise ArgumentError(f"tolerance must be in (0, 1), got {self.tolerance}")

    @property
    def window(self) -> tuple[float, float]:
        return (self.target_cr * (1 - self.tolerance), self.target_cr * (1 + self.tolerance))


@dataclass(frozen=True)
class RateReport:
    """Outcome of the quality search inside :func:`compress_with_report`."""

    quality: int
    achieved_cr: float
    in_window: bool
    encodes: int


@dataclass(eq=False)
class CompressedStream:
    method: str  # "pca" | "csi"
    p: int
    side: PcaSideInfo | CsiSideInfo
    wavelengths: np.ndarray  # (N,) float32
    quality: int
    planes: list[EncodedPlane]
    width: int
    height: int
    bands: int

    def __post_init__(self):
        if self.method not in METHOD_TAGS:
            raise ValidationError(f"unknown method {self.method!r}")
        if len(self.planes) != self.p:
            raise ValidationError(f"{len(self.planes)} plane records for p={self.p}")
        expected = PcaSideInfo if self.method == "pca" else CsiSideInfo
        if not isinstance(self.side, expected):
            raise ValidationError(f"side info type does not match method {self.method!r}")
        self.wavelengths = np.ascontiguousarray(self.wavelengths, dtype=np.float32)
        if self.wavelengths.shape != (self.bands,):
            raise ValidationError("wavelength count disagrees with bands")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CompressedStream):
            return NotImplemented
        return (
            self.method == other.method
            and self.p == other.p
            and self.quality == other.quality
            and (self.width, self.height, self.bands) == (other.width, other.height, other.bands)
            and np.array_equal(self.wavelengths, other.wavelengths)
            and self.side == other.side
            and self.planes == other.planes
        )


def pca_side_nbytes(n: int, p: int) -> int:
    return 4 * n + 4 * n * p + 4 * p


def csi_side_nbytes(p: int) -> int:
    return 2 * p


def stream_nbytes(method: str, p: int, bands: int, payload_nbytes: int) -> int:
    """Byte size of a serialized stream whose plane payloads total ``payload_nbytes``.

    Equals ``len(serialize_stream(stream))`` without building the bytes.
    """
    side = pca_side_nbytes(bands, p) if method == "pca" else csi_side_nbytes(p)
    return _HEADER.size + 4 * bands + side + p * PLANE_HEADER_NBYTES + payload_nbytes


def serialize_stream(stream: CompressedStream) -> bytes:
    """Serialize to SCMP bytes; bijective with :func:`parse_stream`."""
    out = bytearray()
    out += _HEADER.pack(
        SCMP_MAGIC, SCMP_VERSION, METHOD_TAGS[stream.method],
        stream.p, stream.bands, stream.width, stream.height, stream.quality,
    )
    out += np.ascontiguousarray(stream.wavelengths, dtype="<f4").tobytes()
    if stream.method == "pca":
        side: PcaSideInfo = stream.side
        out += np.ascontiguousarray(side.mean, dtype="<f4").tobytes()
        out += np.ascontiguousarray(side.basis.T, dtype="<f4").tobytes()
        out += np.ascontiguousarray(side.eigenvalues, dtype="<f4").tobytes()
    else:
        side: CsiSideInfo = stream.side
        out += np.ascontiguousarray(side.knot_indices, dtype="<u2").tobytes()
    for plane in stream.planes:
        out += plane.to_bytes()
    return bytes(out)


def parse_stream(data: bytes) -> CompressedStream:
    """Parse SCMP bytes back into a stream; exact inverse of serialization."""
    if len(data) < _HEADER.size:
        raise CorruptError("SCMP truncated before header end")
    magic, version, tag, p, n, width, height, quality = _HEADER.unpack_from(data, 0)
    if magic != SCMP_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {SCMP_MAGIC!r}")
    if version != SCMP_VERSION:
        raise FormatError(f"unsupported SCMP version {version}")
    if tag not in _TAG_METHODS:
        raise CorruptError(f"unknown method tag {tag}")
    method = _TAG_METHODS[tag]
    if min(p, n, width, height) < 1 or not 1 <= quality <= 100:
        raise CorruptError("bad header fields")
    off = _HEADER.size

    def take(count, what):
        nonlocal off
        if off + count > len(data):
            raise CorruptError(f"SCMP truncated inside {what}")
        chunk = data[off:off + count]
        off += count
        return chunk

    wavelengths = np.frombuffer(take(4 * n, "wavelengths"), dtype="<f4").copy()
    if n > 1 and not np.all(np.diff(wavelengths) > 0):
        raise CorruptError("wavelengths not strictly increasing")
    if method == "pca":
        if p > n:
            raise CorruptError(f"p={p} exceeds n={n} for PCA")
        mean = np.frombuffer(take(4 * n, "PCA mean"), dtype="<f4").astype(np.float64)
        basis = np.frombuffer(take(4 * n * p, "PCA basis"), dtype="<f4").astype(np.float64)
        basis = basis.reshape(p, n).T
        eigenvalues = np.frombuffer(take(4 * p, "PCA eigenvalues"), dtype="<f4")
        eigenvalues = np.maximum(eigenvalues.astype(np.float64), 0.0)
        try:
            side = PcaSideInfo(mean=mean, basis=basis, eigenvalues=eigenvalues)
            side.check_orthonormal(tol=1e-4)  # loose: basis is f32-rounded in the stream
        except ValidationError as exc:
            raise CorruptError(f"bad PCA side info: {exc}") from None
    else:
        knots = np.frombuffer(take(2 * p, "CSI knots"), dtype="<u2").astype(np.int64)
        try:
            side = CsiSideInfo(knot_indices=knots)
            side.check_for_bands(n)
        except (ValidationError, ArgumentError) as exc:
            raise CorruptError(f"bad CSI side info: {exc}") from None
    planes = []
    for i in range(p):
        plane, off = EncodedPlane.from_bytes(data, off)
        if (plane.width, plane.height) != (width, height) or plane.quality != quality:
            raise CorruptError(f"plane record {i} disagrees with stream header")
        planes.append(plane)
    if off != len(data):
        raise CorruptError(f"{len(data) - off} trailing bytes after last plane")
    return CompressedStream(
        method=method, p=p, side=side, wavelengths=wavelengths, quality=quality,
        planes=planes, width=width, height=height, bands=n,
    )


def compression_rate(original: SpectralCube, stream_nbytes: int) -> float:
    """SCUB byte size of the original divided by the stream byte size."""
    if stream_nbytes <= 0:
        raise ArgumentError("stream byte count must be positive")
    return original.scub_size / stream_nbytes


# ---------------------------------------------------------------------------
# staged pipeline (also used by the benchmark harness for per-stage timing)

def spectral_forward(cube: SpectralCube, method: str, p: int):
    """Run the chosen reducer; returns (ReducedPlanes, side info)."""
    if method == "pca":
        side = pca_fit(cube, p)
        return pca_forward(cube, side), side
    if method == "csi":
        side = csi_select_knots(cube.bands, p)
        return csi_forward(cube, side), side
    raise ArgumentError(f"unknown method {method!r}; expected 'pca' or 'csi'")


def spectral_inverse(planes: ReducedPlanes, side, method: str, wavelengths) -> SpectralCube:
    """Invert the reducer back to a full cube."""
    if method == "pca":
        return pca_inverse(planes, side, wavelengths)
    if method == "csi":
        return csi_inverse(planes, side, wavelengths)
    raise ArgumentError(f"unknown method {method!r}; expected 'pca' or 'csi'")


def encode_planes(planes: ReducedPlanes, quality: int) -> list[EncodedPlane]:
    return [encode_plane(planes.planes[k], quality) for k in range(planes.count)]


def decode_planes(encoded: list[EncodedPlane]) -> ReducedPlanes:
    decoded = np.stack([decode_plane(e) for e in encoded])
    return ReducedPlanes(width=encoded[0].width, height=encoded[0].height, planes=decoded)


def _stream_side(side):
    """Round side info to the f32 precision the container stores.

    Keeps the in-memory stream identical to its parse(serialize(...)) image,
    and makes the encoder-side object match what the decoder will see.
    """
    if isinstance(side, PcaSideInfo):
        return PcaSideInfo(
            mean=side.mean.astype(np.float32).astype(np.float64),
            basis=side.basis.astype(np.float32).astype(np.float64),
            eigenvalues=side.eigenvalues.astype(np.float32).astype(np.float64),
        )
    return side


def _assemble(cube, method, p, side, encoded, quality) -> CompressedStream:
    return CompressedStream(
        method=method, p=p, side=_stream_side(side), wavelengths=cube.wavelengths,
        quality=quality, planes=encoded, width=cube.width, height=cube.height,
        bands=cube.bands,
    )


def compress_with_report(cube: SpectralCube, method: str, p: int,
                         rate: RateTarget | None = None,
                         quality: int | None = None):
    """Compress a cube; returns (stream, RateReport).

    Exactly one of ``rate`` and ``quality`` drives the plane quality: a
    fixed ``quality`` skips rate control entirely.  Each rate probe counts
    the stream size without emitting or serializing it; only the chosen
    quality is entropy coded.
    """
    if (rate is None) == (quality is None):
        raise ArgumentError("provide exactly one of rate target or fixed quality")
    reduced, side = spectral_forward(cube, method, p)
    transforms = [PlaneTransform.of(plane) for plane in reduced.planes]
    del reduced  # free the planes: the transforms carry all the search and the emit need
    overhead = stream_nbytes(method, p, cube.bands, 0)

    def build(q: int) -> CompressedStream:
        return _assemble(cube, method, p, side, [t.encode(q) for t in transforms], q)

    def probe(q: int) -> float:
        return compression_rate(cube, overhead + sum(t.payload_nbytes(q) for t in transforms))

    if quality is not None:
        stream = build(int(quality))
        cr = compression_rate(cube, overhead + sum(len(pl.payload) for pl in stream.planes))
        return stream, RateReport(quality=int(quality), achieved_cr=cr,
                                  in_window=True, encodes=1)

    lo_cr, hi_cr = rate.window
    best_above = None  # (cr, q) with smallest cr >= target
    encodes = 0
    lo, hi = 1, 100
    while lo <= hi:
        mid = (lo + hi) // 2
        cr = probe(mid)
        encodes += 1
        if lo_cr <= cr <= hi_cr:
            return build(mid), RateReport(quality=mid, achieved_cr=cr,
                                          in_window=True, encodes=encodes)
        if cr >= rate.target_cr and (best_above is None or cr < best_above[0]):
            best_above = (cr, mid)
        if cr > hi_cr:
            lo = mid + 1  # too much compression: raise quality
        else:
            hi = mid - 1  # too little compression: lower quality
    if best_above is None:
        cr = probe(1)
        if cr >= lo_cr:
            # quality 1 itself lands at or above the window floor
            return build(1), RateReport(quality=1, achieved_cr=cr,
                                        in_window=cr <= hi_cr, encodes=encodes + 1)
        if overhead * rate.target_cr >= cube.scub_size:
            raise RateError(
                f"stream overhead alone ({overhead} B) exceeds the byte budget for "
                f"CR {rate.target_cr}; best achieved CR {cr:.4g}", best_cr=cr)
        raise RateError(
            f"target CR {rate.target_cr} unreachable: quality 1 achieves only {cr:.4g}",
            best_cr=cr)
    cr, q = best_above
    return build(q), RateReport(quality=q, achieved_cr=cr, in_window=False, encodes=encodes)


def compress(cube: SpectralCube, method: str, p: int,
             rate: RateTarget | None = None,
             quality: int | None = None) -> CompressedStream:
    """Compress a cube to a stream (see :func:`compress_with_report`)."""
    stream, _ = compress_with_report(cube, method, p, rate=rate, quality=quality)
    return stream


def decompress(stream: CompressedStream) -> SpectralCube:
    """Decode all planes and invert the spectral reduction."""
    planes = decode_planes(stream.planes)
    cube = spectral_inverse(planes, stream.side, stream.method, stream.wavelengths)
    if (cube.width, cube.height, cube.bands) != (stream.width, stream.height, stream.bands):
        raise CorruptError("decoded dimensions disagree with stream header")
    return cube
