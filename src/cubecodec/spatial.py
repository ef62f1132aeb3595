"""Baseline-JPEG-style lossy coder for a single real-valued plane.

Pipeline: affine-normalize the plane into [0, 255] -> pad to 8-multiples by
edge replication -> per 8x8 block: level shift -128, orthonormal 2-D DCT-II,
scalar quantization (round half away from zero), zigzag -> DC differential
in raster order + AC run-length symbols -> canonical Huffman coding with
the standard luminance tables.  No subsampling anywhere; every lossy step
is confined to quantization (and the float normalization), so the entropy
stage is exactly invertible.

The encoder is split in two.  :class:`PlaneTransform` holds everything that
does not depend on quality (normalization, padding, DCT), so a rate search
transforms each plane once.  The entropy stage builds every block's Huffman
symbols with array operations (ITU-T T.81 Annex F.1.2 with the Annex K.3
tables): a DC category and amplitude, an AC run/size symbol per nonzero
coefficient with any ZRL codes of its zero run folded into the same field,
and an EOB unless the last coefficient is nonzero.  The symbol lengths serve
two consumers: :func:`entropy_count_bits` sums them, which is all a rate
probe needs, and :func:`entropy_encode_blocks` places each field at its
cumulative bit offset and packs the bits into bytes.

The bitstream is MSB-first and zero-padded to a whole byte.  A plane record
serializes as:

    u32 width | u32 height | u8 quality | f64 norm.offset | f64 norm.scale |
    u32 payload-byte-count | Huffman bitstream
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CorruptError, ValidationError

# ---------------------------------------------------------------------------
# fixed tables (JPEG Annex K: luminance quantization + typical Huffman)

BASE_LUMA_QUANT = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.int32)

# natural (row-major) index -> position in the zigzag sequence
_ZIGZAG_POS = np.array([
    0, 1, 5, 6, 14, 15, 27, 28,
    2, 4, 7, 13, 16, 26, 29, 42,
    3, 8, 12, 17, 25, 30, 41, 43,
    9, 11, 18, 24, 31, 40, 44, 53,
    10, 19, 23, 32, 39, 45, 52, 54,
    20, 22, 33, 38, 46, 51, 55, 60,
    21, 34, 37, 47, 50, 56, 59, 61,
    35, 36, 48, 49, 57, 58, 62, 63,
], dtype=np.int64)
#: ZIGZAG_ORDER[k] = natural flat index of the k-th zigzag element
ZIGZAG_ORDER = np.argsort(_ZIGZAG_POS)

_DC_BITS = (0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
_DC_VALS = tuple(range(12))

_AC_BITS = (0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D)
_AC_VALS = (
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
)

_EOB = 0x00
_ZRL = 0xF0


def _build_codes(bits, vals):
    """Canonical Huffman codes from (BITS, HUFFVAL): symbol -> (code, length)."""
    codes = {}
    code = 0
    k = 0
    for i, count in enumerate(bits):
        for _ in range(count):
            codes[vals[k]] = (code, i + 1)
            code += 1
            k += 1
        code <<= 1
    return codes


def _build_decode_lut(codes):
    """16-bit peek lookup: value -> (symbol, code length); length 0 = invalid."""
    sym = np.full(1 << 16, -1, dtype=np.int16)
    length = np.zeros(1 << 16, dtype=np.uint8)
    for symbol, (code, ln) in codes.items():
        start = code << (16 - ln)
        stop = (code + 1) << (16 - ln)
        sym[start:stop] = symbol
        length[start:stop] = ln
    return sym, length


_DC_CODES = _build_codes(_DC_BITS, _DC_VALS)
_AC_CODES = _build_codes(_AC_BITS, _AC_VALS)
_DC_LUT_SYM, _DC_LUT_LEN = _build_decode_lut(_DC_CODES)
_AC_LUT_SYM, _AC_LUT_LEN = _build_decode_lut(_AC_CODES)

# ---------------------------------------------------------------------------
# DCT

def _dct_matrix() -> np.ndarray:
    x = np.arange(8)
    u = x[:, None]
    d = np.cos((2 * x + 1) * u * np.pi / 16.0)
    d[0] *= np.sqrt(1.0 / 2.0)
    return d * 0.5  # rows orthonormal


_DCT = _dct_matrix()


def dct8_forward(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of an 8x8 block."""
    b = np.asarray(block, dtype=np.float64)
    if b.shape != (8, 8):
        raise ArgumentError(f"expected an 8x8 block, got shape {b.shape}")
    return _DCT @ b @ _DCT.T


def dct8_inverse(block: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct8_forward` (transpose of the orthonormal transform)."""
    b = np.asarray(block, dtype=np.float64)
    if b.shape != (8, 8):
        raise ArgumentError(f"expected an 8x8 block, got shape {b.shape}")
    return _DCT.T @ b @ _DCT


def _dct_batch(blocks: np.ndarray) -> np.ndarray:
    return _DCT @ blocks @ _DCT.T


def _idct_batch(coeffs: np.ndarray) -> np.ndarray:
    return _DCT.T @ coeffs @ _DCT


# ---------------------------------------------------------------------------
# quantization

def quality_to_table(base: np.ndarray, quality: int) -> np.ndarray:
    """Scale a base quantization table by the standard JPEG quality mapping."""
    if not isinstance(quality, (int, np.integer)) or not 1 <= quality <= 100:
        raise ArgumentError(f"quality must be an integer in [1, 100], got {quality!r}")
    base = np.asarray(base)
    if base.shape != (8, 8) or np.any(base < 1) or np.any(base > 32767):
        raise ArgumentError("base table must be 8x8 with entries in [1, 32767]")
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    steps = np.floor((base * scale + 50.0) / 100.0)
    return np.clip(steps, 1, 32767).astype(np.int32)


def _quantize(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    scaled = np.abs(coeffs) / table
    return (np.sign(coeffs) * np.floor(scaled + 0.5)).astype(np.int32)


# ---------------------------------------------------------------------------
# entropy stage (bijective on quantized blocks)

def _extend(bits: int, size: int) -> int:
    return bits if bits >= (1 << (size - 1)) else bits - (1 << size) + 1


def _code_table(codes, nsymbols):
    """Canonical codes as (code, length) arrays indexed by symbol; length 0 = unused."""
    code = np.zeros(nsymbols, dtype=np.int64)
    length = np.zeros(nsymbols, dtype=np.uint8)
    for symbol, (c, ln) in codes.items():
        code[symbol] = c
        length[symbol] = ln
    return code, length


_DC_CODE, _DC_LEN = _code_table(_DC_CODES, 12)
_AC_CODE, _AC_LEN = _code_table(_AC_CODES, 256)
# k ZRL codes back to back, k = 0..3: a run of at most 62 zeros needs three
_ZRL_CODE, _ZRL_LEN = _AC_CODES[_ZRL]
_ZRLS_CODE = np.array([sum(_ZRL_CODE << (_ZRL_LEN * i) for i in range(k)) for k in range(4)],
                      dtype=np.int64)
_ZRLS_LEN = (_ZRL_LEN * np.arange(4)).astype(np.uint8)
#: size category (bit length) of every magnitude a category <= 11 allows
_CATEGORY = np.frexp(np.arange(2048))[1].astype(np.uint8)
_AC_POS = np.arange(1, 64, dtype=np.uint8)


class _Symbols:
    """Annex F.1.2 symbols of quantized blocks, built with array operations.

    ``lengths`` is an ``(n, 65)`` array in stream order: per block the DC
    difference, the 63 AC positions of the zigzag scan, then the EOB.  The
    DC entry and each nonzero AC entry are one whole field -- the ZRL codes
    of the zero run before the coefficient, its Huffman code and its
    amplitude bits, at most 3 * 11 + 16 + 10 bits -- and every other entry
    has length 0.  :meth:`fields` gives the matching bit patterns.
    """

    def __init__(self, qblocks: np.ndarray):
        q = np.asarray(qblocks)
        if q.ndim != 3 or q.shape[1:] != (8, 8) or q.dtype.kind not in "iu":
            raise ArgumentError(f"expected (n, 8, 8) integer blocks, got {q.dtype} {q.shape}")
        zz = q.reshape(-1, 64)[:, ZIGZAG_ORDER]
        dc = np.diff(zz[:, 0].astype(np.int64), prepend=0)
        ac = zz[:, 1:]
        too_big = (dc < -2047) | (dc > 2047)
        if too_big.any():
            raise ValidationError(f"DC difference {dc[too_big][0]} exceeds category 11")
        too_big = (ac < -1023) | (ac > 1023)
        if too_big.any():
            raise ValidationError(f"AC coefficient {ac[too_big][0]} exceeds category 10")
        dc_size = _CATEGORY[np.abs(dc)]
        ac_size = _CATEGORY[np.abs(ac)]
        nonzero = ac != 0
        # zigzag position of the last nonzero AC before each position (0 = none)
        last = np.maximum.accumulate(np.where(nonzero, _AC_POS, 0), axis=1)
        run = _AC_POS - 1 - np.pad(last[:, :-1], ((0, 0), (1, 0)))
        self.dc, self.ac = dc, ac
        self.dc_size, self.ac_size = dc_size, ac_size
        self.symbol = ((run & 15) << 4) | ac_size
        self.zrls = run >> 4
        self.lengths = np.empty((zz.shape[0], 65), dtype=np.uint8)
        self.lengths[:, 0] = _DC_LEN[dc_size] + dc_size
        self.lengths[:, 1:64] = np.where(
            nonzero, _ZRLS_LEN[self.zrls] + _AC_LEN[self.symbol] + ac_size, 0)
        self.lengths[:, 64] = np.where(last[:, -1] == 63, 0, _AC_LEN[_EOB])

    def fields(self) -> np.ndarray:
        out = np.empty(self.lengths.shape, dtype=np.int64)
        dc_size = self.dc_size.astype(np.int64)
        out[:, 0] = (_DC_CODE[dc_size] << dc_size) | _amplitude_bits(self.dc, dc_size)
        ac_size = self.ac_size.astype(np.int64)
        code = (_ZRLS_CODE[self.zrls] << _AC_LEN[self.symbol]) | _AC_CODE[self.symbol]
        out[:, 1:64] = (code << ac_size) | _amplitude_bits(self.ac, ac_size)
        out[:, 64] = _AC_CODE[_EOB]
        return out


def _amplitude_bits(values: np.ndarray, size: np.ndarray) -> np.ndarray:
    """JPEG magnitude coding: v for v > 0, v + 2**size - 1 for v < 0."""
    values = values.astype(np.int64)
    return np.where(values < 0, values + (1 << size) - 1, values)


def entropy_count_bits(qblocks: np.ndarray) -> int:
    """Bit length of :func:`entropy_encode_blocks` output before its byte padding."""
    return int(_Symbols(qblocks).lengths.sum())


def entropy_encode_blocks(qblocks: np.ndarray) -> bytes:
    """Pack quantized 8x8 blocks (natural order) into the Huffman bitstream.

    Exactly invertible by :func:`entropy_decode_blocks`; includes the
    zigzag scan and the raster-order DC differential.
    """
    symbols = _Symbols(qblocks)
    kept = symbols.lengths > 0
    if not kept.any():
        return b""
    lengths = symbols.lengths[kept].astype(np.int64)
    fields = symbols.fields()[kept].astype(np.uint64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    # place each field in the 64-bit word its first bit falls in; a field
    # that runs past the word's end (over > 0) spills its low bits into the
    # next word, and no word boundary is crossed by more than one field
    word = starts >> 6
    over = lengths - 64 + (starts & 63)
    heads = ((fields << np.maximum(-over, 0).astype(np.uint64))
             >> np.maximum(over, 0).astype(np.uint64))
    words = np.zeros((int(ends[-1]) + 63) // 64, dtype=np.uint64)
    first = np.flatnonzero(np.diff(word, prepend=-1))
    words[word[first]] = np.bitwise_or.reduceat(heads, first)
    spills = over > 0
    words[word[spills] + 1] |= fields[spills] << (64 - over[spills]).astype(np.uint64)
    return words.astype(">u8").tobytes()[: (int(ends[-1]) + 7) // 8]


def entropy_decode_blocks(payload: bytes, nblocks: int) -> np.ndarray:
    """Exact inverse of :func:`entropy_encode_blocks`.

    Raises :class:`CorruptError` on truncated or invalid bitstreams, or when
    more than 7 padding bits remain after the last block.
    """
    total_bits = len(payload) * 8
    # every block costs at least 6 bits (DC category 0 + EOB): bound the
    # claimed count by the payload before it sizes an allocation
    if nblocks * 6 > total_bits:
        raise CorruptError(f"{len(payload)}-byte payload cannot hold {nblocks} blocks")
    # a 16-bit peek at the last bit position reads 3 bytes from its start
    buf = bytes(payload) + b"\x00\x00\x00"
    pos = 0
    zz = np.zeros((nblocks, 64), dtype=np.int32)
    prev_dc = 0
    dc_sym, dc_len = _DC_LUT_SYM, _DC_LUT_LEN
    ac_sym, ac_len = _AC_LUT_SYM, _AC_LUT_LEN

    def peek16(at):
        bi = at >> 3
        window = (buf[bi] << 16) | (buf[bi + 1] << 8) | buf[bi + 2]
        return (window >> (8 - (at & 7))) & 0xFFFF

    for i in range(nblocks):
        v = peek16(pos)
        size = int(dc_sym[v])
        ln = int(dc_len[v])
        if ln == 0 or pos + ln > total_bits:
            raise CorruptError(f"bad DC code in block {i}")
        pos += ln
        if size:
            if pos + size > total_bits:
                raise CorruptError(f"truncated DC amplitude in block {i}")
            bits = peek16(pos) >> (16 - size)
            pos += size
            prev_dc += _extend(bits, size)
        zz[i, 0] = prev_dc
        k = 1
        while k < 64:
            v = peek16(pos)
            sym = int(ac_sym[v])
            ln = int(ac_len[v])
            if ln == 0 or pos + ln > total_bits:
                raise CorruptError(f"bad AC code in block {i}")
            pos += ln
            if sym == _EOB:
                break
            if sym == _ZRL:
                k += 16
                if k > 63:
                    raise CorruptError(f"zero run overflows block {i}")
                continue
            run = sym >> 4
            size = sym & 0xF
            k += run
            if k > 63:
                raise CorruptError(f"coefficient index overflows block {i}")
            if pos + size > total_bits:
                raise CorruptError(f"truncated AC amplitude in block {i}")
            bits = peek16(pos) >> (16 - size)
            pos += size
            zz[i, k] = _extend(bits, size)
            k += 1
    if total_bits - pos >= 8:
        raise CorruptError(f"{total_bits - pos} unread payload bits after last block")
    out = np.zeros((nblocks, 64), dtype=np.int32)
    out[:, ZIGZAG_ORDER] = zz
    return out.reshape(nblocks, 8, 8)


# ---------------------------------------------------------------------------
# plane codec

@dataclass(frozen=True)
class PlaneNorm:
    """Affine map taking plane values into [0, 255]: normalized = (v - offset)/scale."""

    offset: float
    scale: float

    def __post_init__(self):
        if not (np.isfinite(self.offset) and np.isfinite(self.scale) and self.scale > 0):
            raise ValidationError(f"bad normalization offset={self.offset} scale={self.scale}")


_PLANE_HEADER = struct.Struct("<IIBddI")
PLANE_HEADER_NBYTES = _PLANE_HEADER.size


@dataclass(frozen=True)
class EncodedPlane:
    """One entropy-coded plane plus everything needed to decode it."""

    norm: PlaneNorm
    quality: int
    width: int
    height: int
    payload: bytes

    @property
    def nblocks(self) -> int:
        return ((self.height + 7) // 8) * ((self.width + 7) // 8)

    def to_bytes(self) -> bytes:
        return _PLANE_HEADER.pack(
            self.width, self.height, self.quality,
            self.norm.offset, self.norm.scale, len(self.payload),
        ) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> tuple["EncodedPlane", int]:
        """Parse one self-delimiting plane record; returns (plane, next offset)."""
        if offset + _PLANE_HEADER.size > len(data):
            raise CorruptError("truncated plane record header")
        width, height, quality, n_off, n_scale, count = _PLANE_HEADER.unpack_from(data, offset)
        if min(width, height) < 1 or not 1 <= quality <= 100:
            raise CorruptError(f"bad plane record fields w={width} h={height} q={quality}")
        start = offset + _PLANE_HEADER.size
        if start + count > len(data):
            raise CorruptError("truncated plane payload")
        try:
            norm = PlaneNorm(offset=n_off, scale=n_scale)
        except ValidationError as exc:
            raise CorruptError(str(exc)) from None
        plane = cls(norm=norm, quality=quality, width=width, height=height,
                    payload=bytes(data[start:start + count]))
        return plane, start + count


def _to_blocks(padded: np.ndarray) -> np.ndarray:
    h, w = padded.shape
    return padded.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)


def _from_blocks(blocks: np.ndarray, h8: int, w8: int) -> np.ndarray:
    return blocks.reshape(h8 // 8, w8 // 8, 8, 8).transpose(0, 2, 1, 3).reshape(h8, w8)


@dataclass(frozen=True, eq=False)
class PlaneTransform:
    """The quality-independent half of :func:`encode_plane`.

    Holds a plane's normalization and the DCT coefficients of its padded,
    level-shifted 8x8 blocks, so a rate search can quantize and count the
    same plane at many qualities without transforming it again.
    """

    norm: PlaneNorm
    width: int
    height: int
    coeffs: np.ndarray  # (nblocks, 8, 8)

    @classmethod
    def of(cls, plane: np.ndarray) -> "PlaneTransform":
        p = np.asarray(plane, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValidationError(f"plane must be 2-D and non-empty, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValidationError("plane contains non-finite values")
        height, width = p.shape
        mn = float(p.min())
        mx = float(p.max())
        norm = PlaneNorm(offset=mn, scale=(mx - mn) / 255.0 if mx > mn else 1.0)
        normalized = (p - norm.offset) / norm.scale
        padded = np.pad(normalized, ((0, (-height) % 8), (0, (-width) % 8)), mode="edge")
        coeffs = _dct_batch(_to_blocks(padded) - 128.0)
        return cls(norm=norm, width=width, height=height, coeffs=coeffs)

    def quantized(self, quality: int) -> np.ndarray:
        return _quantize(self.coeffs, quality_to_table(BASE_LUMA_QUANT, quality))

    def payload_nbytes(self, quality: int) -> int:
        """Payload size :meth:`encode` would produce, counted without emitting it."""
        return (entropy_count_bits(self.quantized(quality)) + 7) // 8

    def encode(self, quality: int) -> EncodedPlane:
        payload = entropy_encode_blocks(self.quantized(quality))
        return EncodedPlane(norm=self.norm, quality=int(quality),
                            width=self.width, height=self.height, payload=payload)


def encode_plane(plane: np.ndarray, quality: int) -> EncodedPlane:
    """Encode one real-valued plane at the given quality (1..100)."""
    return PlaneTransform.of(plane).encode(quality)


def decode_plane(enc: EncodedPlane) -> np.ndarray:
    """Decode a plane record back to its (H, W) float64 values (no clamping)."""
    table = quality_to_table(BASE_LUMA_QUANT, enc.quality)
    qblocks = entropy_decode_blocks(enc.payload, enc.nblocks)
    coeffs = qblocks.astype(np.float64) * table
    blocks = _idct_batch(coeffs) + 128.0
    h8 = ((enc.height + 7) // 8) * 8
    w8 = ((enc.width + 7) // 8) * 8
    padded = _from_blocks(blocks, h8, w8)
    normalized = padded[: enc.height, : enc.width]
    return normalized * enc.norm.scale + enc.norm.offset
