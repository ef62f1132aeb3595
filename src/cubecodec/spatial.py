"""Baseline-JPEG-style lossy coder for real-valued planes.

Pipeline: affine-normalize each plane into [0, 255] -> pad to 8-multiples by
edge replication -> per 8x8 block: level shift -128, orthonormal 2-D DCT-II,
scalar quantization (round half away from zero), zigzag -> DC differential
in raster order + AC run-length symbols -> canonical Huffman coding with
the standard luminance tables.  No subsampling anywhere; every lossy step
is confined to quantization (and the float normalization), so the entropy
stage is exactly invertible.

The encoder codes all P planes of a stream at once.  :class:`PlaneStack`
holds what does not depend on quality: the normalizations and the DCT
coefficients of every block of every plane, as one ``(P * nblocks, 64)``
array in zigzag order.  The entropy stage builds every block's Huffman
symbols with array operations (ITU-T T.81 Annex F.1.2 with the Annex K.3
tables): a DC category and amplitude, an AC run/size symbol per nonzero
coefficient with any ZRL codes of its zero run folded into the same field,
and an EOB unless the last coefficient is nonzero.  A :class:`Probe` holds
them, with the AC magnitudes as uint16, and each plane's bytes, summed from
the symbol lengths.  The emit quantizes nothing: it packs exactly a probe's
symbols, the amplitude bits from their magnitudes and the signs of the
stack's coefficients, each plane's fields from a byte boundary, and cuts
the packed bits into per-plane payloads.  Both work on runs of whole
planes sized by :func:`~cubecodec.cube.chunks`, as the decoder's bands of
rows are.  The decoder (:func:`entropy_decode_planes`) takes P payloads of
one block count and has no per-symbol loop either: it finds every block's
start by pointer doubling over per-bit-position symbol tables, four levels
of one uint32 array each packing the end and the k-step of a chain of 8, 4,
2 or 1 symbols, then steps the ``(P, nblocks)`` grid of blocks at once, one
symbol each per step.

The bitstream is MSB-first and zero-padded to a whole byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cube import chunks
from .errors import ArgumentError, CorruptError, ValidationError, check_array, check_int, check_real, check_type

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


def _huffman_tables(bits, vals):
    """Canonical Huffman codes from (BITS, HUFFVAL) (ITU-T T.81 Annex C).

    Returns the (code, length) arrays indexed by symbol, length 0 for an
    unused symbol, and the 16-bit peek lookup (symbol, length): the symbol
    whose code each 16-bit value starts with and the code's length, -1 and
    0 for an invalid code.
    """
    code = np.zeros(256, dtype=np.int64)
    length = np.zeros(256, dtype=np.uint8)
    peek_symbol = np.full(1 << 16, -1, dtype=np.int16)
    peek_length = np.zeros(1 << 16, dtype=np.uint8)
    next_code = 0
    k = 0
    for size, count in enumerate(bits, 1):
        for symbol in vals[k:k + count]:
            code[symbol] = next_code
            length[symbol] = size
            start = next_code << (16 - size)
            stop = (next_code + 1) << (16 - size)
            peek_symbol[start:stop] = symbol
            peek_length[start:stop] = size
            next_code += 1
        k += count
        next_code <<= 1
    return code, length, peek_symbol, peek_length


_DC_CODE, _DC_LEN, _DC_LUT_SYM, _DC_LUT_LEN = _huffman_tables(_DC_BITS, _DC_VALS)
_AC_CODE, _AC_LEN, _AC_LUT_SYM, _AC_LUT_LEN = _huffman_tables(_AC_BITS, _AC_VALS)

# ---------------------------------------------------------------------------
# DCT

def _dct_matrix() -> np.ndarray:
    x = np.arange(8)
    u = x[:, None]
    d = np.cos((2 * x + 1) * u * np.pi / 16.0)
    d[0] *= np.sqrt(1.0 / 2.0)
    return d * 0.5  # rows orthonormal


_DCT = _dct_matrix()


# ---------------------------------------------------------------------------
# quantization

def quality_to_table(quality: int) -> np.ndarray:
    """Scale :data:`BASE_LUMA_QUANT` by the standard JPEG quality mapping."""
    check_int("quality", quality, 1, 100)
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    steps = np.floor((BASE_LUMA_QUANT * scale + 50.0) / 100.0)
    return np.clip(steps, 1, 32767).astype(np.int32)


# ---------------------------------------------------------------------------
# entropy stage (bijective on quantized blocks)

def _ac_field_tables():
    """An AC field -- ``run >> 4`` ZRL codes, the code of ``(run & 15, size)``
    and ``size`` amplitude bits -- as (bits, length) tables.

    ``length`` is indexed by ``run << 4 | size``, 0 for size 0.  ``bits`` is
    indexed by that times two, plus one for a negative coefficient; XORed
    with the magnitude it gives the field (a negative amplitude is sent as
    the magnitude's complement).
    """
    index = np.arange(63 << 4)
    zrls, symbol, size = index >> 8, index & 0xFF, index & 15
    zrl_code, zrl_len = int(_AC_CODE[_ZRL]), int(_AC_LEN[_ZRL])
    zrls_code = np.array([sum(zrl_code << (zrl_len * i) for i in range(k)) for k in range(4)])
    code = (zrls_code[zrls] << _AC_LEN[symbol]) | _AC_CODE[symbol]
    bits = np.where(size > 0, code << size, 0)
    bits = np.stack([bits, bits | ((1 << size) - 1)], axis=1).ravel()
    length = np.where(size > 0, zrl_len * zrls + _AC_LEN[symbol] + size, 0)
    return bits.astype(np.int64), length.astype(np.uint8)


_AC_FIELD_BITS, _AC_FIELD_LEN = _ac_field_tables()
_AC_POS = np.arange(1, 64, dtype=np.uint8)
#: the size category, i.e. the bit length, of each magnitude 0..2048 (Tables F.1
#: and F.2): of an AC coefficient, which a probe clips at 2048, whose category 12
#: is refused, and of a DC difference, which is refused past 2047
_SIZE = np.array([int(v).bit_length() for v in range(2049)], dtype=np.uint8)
#: ``16 * (k - 1)`` per zigzag position k = 1..63: the index of a run over
#: every AC position before k
_RUN_BASE = np.arange(0, 16 * 63, 16, dtype=np.uint16)


def _runs(count: int, nblocks: int) -> list[tuple[int, int]]:
    """Runs of whole planes, at least one, that the stacked coder codes at once: at 128
    samples a block, the two float64 temporaries of 64 that the transform keeps alive."""
    return chunks(count, 128 * nblocks, align=1)


class _Symbols:
    """Annex F.1.2 symbols of quantized blocks, built with array operations.

    Takes whole planes of ``nblocks`` blocks each, back to back, as their DC
    values ``dc`` and the uint16 magnitudes ``ac`` of their AC coefficients
    in zigzag order, clipped at 2048; the DC prediction restarts at each
    plane's first block.  Keeps ``ac``, the amplitude bits that :meth:`pack`
    emits.  ``lengths`` is an ``(n, 65)`` array in stream order: per block
    the DC difference, the 63 AC positions of the zigzag scan, then the EOB.
    The DC entry and each nonzero AC entry are one whole field -- the ZRL
    codes of the zero run before the coefficient, its Huffman code and its
    amplitude bits, at most 3 * 11 + 16 + 10 bits -- and every other entry
    has length 0.
    """

    def __init__(self, dc: np.ndarray, ac: np.ndarray, nblocks: int):
        dc = np.asarray(dc, dtype=np.int64)
        diff = np.diff(dc, prepend=0)
        diff[::nblocks] = dc[::nblocks]
        too_big = (diff < -2047) | (diff > 2047)
        if too_big.any():
            raise ValidationError(f"DC difference {diff[too_big][0]} exceeds category 11")
        ac_size = _SIZE.take(ac)
        if ac_size.size and ac_size.max() > 10:
            raise ValidationError(f"AC coefficient of category {ac_size.max()} exceeds category 10")
        self.nblocks = nblocks
        self.ac = ac
        self.dc = diff
        self.dc_size = _SIZE.take(np.abs(diff))
        # zigzag position of the last nonzero AC up to each position (0 = none)
        last = np.maximum.accumulate((ac_size > 0) * _AC_POS, axis=1)
        # run << 4 | size, the run being the zeros since the previous nonzero AC
        self.index = _RUN_BASE + ac_size
        self.index[:, 1:] -= last[:, :-1] * np.uint16(16)
        self.lengths = np.empty((len(diff), 65), dtype=np.uint8)
        self.lengths[:, 0] = _DC_LEN[self.dc_size] + self.dc_size
        self.lengths[:, 1:64] = _AC_FIELD_LEN.take(self.index)
        self.lengths[:, 64] = (last[:, -1] < 63) * _AC_LEN[_EOB]

    def plane_bits(self) -> np.ndarray:
        """Each plane's bit count before its byte padding."""
        return self.lengths.reshape(-1, self.nblocks * 65).sum(axis=1, dtype=np.int64)

    def pack(self, negative: np.ndarray) -> list[bytes]:
        """Every plane's Huffman bitstream, zero-padded to a whole byte.

        ``negative`` marks the negative AC coefficients.
        """
        # the bit patterns of the fields, 0 where the length is 0
        fields = np.empty(self.lengths.shape, dtype=np.int64)
        dc, dc_size = self.dc, self.dc_size.astype(np.int64)
        # JPEG amplitude bits: v for v >= 0, v + 2**size - 1 for v < 0
        amplitude = np.where(dc < 0, dc + (1 << dc_size) - 1, dc)
        fields[:, 0] = (_DC_CODE[dc_size] << dc_size) | amplitude
        fields[:, 1:64] = _AC_FIELD_BITS.take((self.index << 1) | negative) ^ self.ac
        fields[:, 64] = (self.lengths[:, 64] > 0) * _AC_CODE[_EOB]
        fields = fields.ravel().view(np.uint64)
        # the end bit of every field, the fields of each plane back to back
        # from its byte-aligned start; the ones of length 0 are 0 and add no bits
        ends = np.cumsum(self.lengths.reshape(-1, self.nblocks * 65), axis=1, dtype=np.int64)
        plane_bytes = (ends[:, -1] + 7) // 8
        plane_starts = 8 * (np.cumsum(plane_bytes) - plane_bytes)
        ends += plane_starts[:, None]
        ends = ends.ravel().view(np.uint64)
        # a field (at most 59 bits) that ends at bit e puts its last e & 63 bits
        # at the top of word e >> 6 (none on a word boundary: numpy shifts a
        # uint64 by 64 to 0) and the rest at the bottom of the word before.
        # Words are offset by one, so words[0] takes the empty heads of the
        # fields that end in the stream's first word.
        used = ends & 63
        tails = fields << (64 - used)
        fields >>= used  # in place: the heads
        word = ends >> 6
        word += 1
        # one word more: a field of length 0 may end on the stream's last bit
        words = np.zeros(int(plane_bytes.sum()) // 8 + 2, dtype=np.uint64)
        first = np.append(0, np.flatnonzero(word[1:] != word[:-1]) + 1)
        words[word[first]] = np.bitwise_or.reduceat(tails, first)
        words[word[first] - 1] |= np.bitwise_or.reduceat(fields, first)
        data = words[1:].astype(">u8").tobytes()
        return [data[start // 8:start // 8 + count]
                for start, count in zip(plane_starts.tolist(), plane_bytes.tolist())]


def entropy_encode_blocks(qblocks: np.ndarray) -> bytes:
    """Pack quantized 8x8 blocks (natural order) into the Huffman bitstream.

    Exactly invertible by :func:`entropy_decode_planes` as one plane of
    ``len(qblocks)`` blocks; includes the zigzag scan and the raster-order
    DC differential.  The blocks are coded as the one plane of a
    :class:`PlaneStack` probed at quality 100, whose steps are all 1, so the
    emit codes the integers themselves.
    """
    q = check_array("qblocks", qblocks, None)
    if q.ndim != 3 or q.shape[1:] != (8, 8) or q.dtype.kind not in "iu":
        raise ArgumentError(f"expected (n, 8, 8) integer blocks, got {q.dtype} {q.shape}")
    if not len(q):
        return b""
    zigzag = q.reshape(-1, 64).take(ZIGZAG_ORDER, axis=1).astype(np.float64)
    stack = PlaneStack(offsets=np.zeros(1), scales=np.ones(1), coeffs=zigzag)
    return stack.encode(stack.probe(100))[0].payload


# ---------------------------------------------------------------------------
# entropy decoding (ITU-T T.81 Annex F.2.2) without a per-symbol loop
#
# Where an AC symbol ends, and how far it moves the zigzag index k (run + 1;
# 16 for ZRL; 64 for EOB, which ends the block), depend only on the bit
# position the symbol starts at.  Stage 1 tabulates both for every bit
# position and composes the tables by pointer doubling over 1, 2, 4 and 8
# symbols.  A block's walk repeats the 8-symbol jump while k stays below 64,
# then tries the 4-, 2- and 1-symbol jumps once each, so it finds the symbol
# at which k reaches 64 -- the block's last -- in at most 12 lookups, and a
# loop over blocks chains every block's start.  Each level is one uint32
# array over a window of bit positions: the end of the 2**j symbols from
# position b, local to the window, in the low 16 bits, and their summed
# k-step in the high 16, so composing a level is one gather.  Stage 2 then
# decodes the coefficients of every block of every plane at once, one AC
# symbol per block per step, in at most 63 steps.
#
# Stage 1 follows the chain of symbol lengths only.  It rejects invalid codes,
# and a block that runs past its plane's payload, which then ends or starts
# past the payload's last bit.  Stage 2 rejects what depends on k (a ZRL that
# reaches 64, a run past index 63) and a DC predictor that leaves int32.

#: bit positions whose stage-1 tables are built at once; bounds them to four
#: levels of 4 bytes per position, about 0.56 MB, whatever the stream size.
#: A window's local positions, up to ``_STAGE1_BITS + _BLOCK_BITS +
#: _AC_SYMBOL_BITS``, must fit the 16-bit jump field: that field, not a
#: memory budget, sets this window, so it is not sized by ``chunks``.
_STAGE1_BITS = 1 << 15
#: more than the longest block: DC 9 + 11 bits, then 63 AC symbols of 16 + 10
_BLOCK_BITS = 2048
#: the longest AC symbol (16-bit code + 10 amplitude bits)
_AC_SYMBOL_BITS = 26
#: jumps of 8, 4, 2 and 1 symbols, which the walk names.  Measured on 64²,
#: 128² and 256² streams, a fifth level's gather per bit position made stage
#: 1 up to 8% slower, and three levels, whose walk takes twice the coarsest
#: jumps, up to 6% slower at 128², the decode-bound size.
_DOUBLINGS = 4


def _ac_peek_tables():
    """Per 16-bit peek, stage 2's ``fields = advance | size << 11 | step << 16``
    (intp like the lanes; advance at most 26, size 15: ``fields & 0x7800`` is the
    size key of :data:`_EXTEND`), stage 1's level-0 entry ``packed = advance | step
    << 16``, and ``k_limit``, the most k may reach after the symbol: 64 after a
    coefficient, 63 after a ZRL, any value after an EOB.  The advance is the code
    and amplitude bits, 0 for an invalid code, which steps 64 like an EOB, so no
    doubling jump passes one."""
    size = (_AC_LUT_SYM & 15).astype(np.intp)
    advance = np.where(_AC_LUT_LEN > 0, _AC_LUT_LEN + size, 0).astype(np.intp)
    step = np.select([_AC_LUT_LEN == 0, _AC_LUT_SYM == _EOB, _AC_LUT_SYM == _ZRL],
                     [64, 64, 16], (_AC_LUT_SYM >> 4) + 1).astype(np.intp)
    k_limit = np.select([_AC_LUT_SYM == _EOB, _AC_LUT_SYM == _ZRL], [255, 63], 64)
    return (advance | size << 11 | step << 16, (advance | step << 16).astype(np.uint32),
            k_limit.astype(np.uint8))


_AC_FIELDS, _AC_PACKED, _AC_K_LIMIT = _ac_peek_tables()
_DC_SIZE = np.maximum(_DC_LUT_SYM, 0).astype(np.uint8)
_DC_ADVANCE = bytes(np.where(_DC_LUT_LEN > 0, _DC_LUT_LEN + _DC_SIZE, 0).astype(np.uint8))
#: zigzag slot written after a step to k: the coefficient's, k - 1.  A ZRL
#: writes 0 into its run and an EOB 0 into slot 63, neither of them written
#: yet, which spares selecting the coefficient lanes.
_STEP_SLOT = ZIGZAG_ORDER[np.minimum(np.arange(-1, 127), 63)]
#: every local position a 16-bit jump field holds, and the shift that takes
#: the 16-bit peek at each out of the 32 bits from its byte: ``16 - (b & 7)``
_LOCAL = np.arange(1 << 16, dtype=np.uint32)
_PEEK16_SHIFTS = 16 - (_LOCAL & 7)


def _extend_table() -> np.ndarray:
    size = np.arange(12)[:, None]
    bits = np.arange(2048) & ((1 << size) - 1)
    return np.where(bits < (1 << size) >> 1, bits - (1 << size) + 1, bits).ravel()


#: ``_EXTEND[size << 11 | bits]``: the value of the low ``size`` amplitude
#: bits (Annex F.2.2.1 EXTEND, inverse of the encoder's amplitude bits); 0 for size 0
_EXTEND = _extend_table().astype(np.int16)


def _bit_windows(*payloads: bytes) -> np.ndarray:
    """``windows[i]``: the 40 bits of bytes i .. i + 4 of the joined payloads,
    zero past the end, from one big-endian read of them at a stride of one byte.

    A peek of up to 32 bits at any bit position is then one lookup and one shift.
    """
    padded = b"".join((*payloads, bytes(8)))
    windows = np.ndarray(len(padded) - 7, dtype=">u8", buffer=padded, strides=1).astype(np.uint64)
    windows >>= 24
    return windows.view(np.int64)


def _symbol_tables(windows: np.ndarray, lo: int, hi: int, out: np.ndarray) -> list[memoryview]:
    """Stage-1 doubling tables for the bit positions ``lo`` (byte aligned) to ``hi``.

    Returns one uint32 table per level j, coarsest first -- with
    :data:`_DOUBLINGS` levels, the jumps of 8, 4, 2 and 1 symbols: from local
    position b, 2**j AC symbols end at ``t[b] & 0xFFFF`` and move k by
    ``t[b] >> 16``.  An invalid code jumps to itself with step 64; so do the
    positions from ``hi`` on, which a symbol ends in when it runs past
    ``hi``.  The tables are written into the rows of ``out``, a
    ``(_DOUBLINGS, >= hi - lo + _AC_SYMBOL_BITS)`` uint32 array that the
    caller reuses from window to window.
    """
    n = hi - lo
    m = n + _AC_SYMBOL_BITS
    peeks = (windows[lo >> 3:(hi + 7) >> 3] >> 8).astype(np.uint32).repeat(8)[:n]
    peeks >>= _PEEK16_SHIFTS[:n]
    peeks &= 0xFFFF
    # every index below is in range: mode="wrap" only skips numpy's bounds check
    t = out[-1, :m]
    _AC_PACKED.take(peeks, out=t[:n], mode="wrap")
    t[:n] += _LOCAL[:n]
    np.bitwise_or(_LOCAL[n:m], 64 << 16, out=t[n:])
    del peeks
    index = np.empty(m, dtype=np.intp)
    high = np.empty(m, dtype=np.uint32)
    for level in out[-2::-1]:
        # jump twice; the two k-steps add in the high half (at most 8 * 64)
        np.bitwise_and(t, 0xFFFF, out=index)
        t.take(index, out=level[:m], mode="wrap")
        np.bitwise_and(t, 0xFFFF0000, out=high)
        t = level[:m]
        t += high
    return [memoryview(level[:m]) for level in out]


def _block_starts(windows: np.ndarray, plane_ends: list[int], nblocks: int) -> np.ndarray:
    """Stage 1: the bit position of every block's DC symbol, planes back to back."""
    starts = np.empty(len(plane_ends) * nblocks, dtype=np.int64)
    words = memoryview(windows)
    dc_advance = _DC_ADVANCE
    stop = plane_ends[-1] if plane_ends else 0  # the last plane's last bit
    tables = np.empty((_DOUBLINGS, min(_STAGE1_BITS + _BLOCK_BITS, stop) + _AC_SYMBOL_BITS),
                      dtype=np.uint32)
    i = 0  # block index over all planes
    built = -1  # the tables cover the block starts below this position
    begin = 0
    for end in plane_ends:
        s = begin
        for _ in range(nblocks):
            if s >= end:
                raise CorruptError(f"block {i} starts past its plane's payload")
            if s >= built:
                lo = s & ~7
                built = lo + _STAGE1_BITS
                eight, four, two, one = _symbol_tables(
                    windows, lo, min(built + _BLOCK_BITS, stop), tables)
            starts[i] = s
            advance = dc_advance[(words[s >> 3] >> (24 - (s & 7))) & 0xFFFF]
            if not advance:
                raise CorruptError(f"bad DC code in block {i}")
            # jump 8 symbols while k = 1 + moved stays below 64, then 4, 2 and 1
            # once each: every step is positive, so this finds the most symbols
            # that keep k below 64, and a taken 8-symbol jump moves k by at
            # least 8, so those stop within 8 lookups.  A jump across an
            # invalid code or past hi steps at least 64 and is never taken.
            pos = s + advance - lo
            moved = 0
            t = eight[pos]
            while moved + (t >> 16) < 63:
                moved += t >> 16
                pos = t & 0xFFFF
                t = eight[pos]
            t = four[pos]
            if moved + (t >> 16) < 63:
                moved += t >> 16
                pos = t & 0xFFFF
            t = two[pos]
            if moved + (t >> 16) < 63:
                moved += t >> 16
                pos = t & 0xFFFF
            # then the block's last symbol: the one that takes k to 64
            t = one[pos]
            if moved + (t >> 16) < 63:
                pos = t & 0xFFFF
                t = one[pos]
            last = t & 0xFFFF
            if last == pos:
                raise CorruptError(f"bad AC code or truncated payload in block {i}")
            s = last + lo
            i += 1
        if not 0 <= end - s < 8:
            raise CorruptError(f"the last block ends at bit {s - begin} of a {end - begin}-bit payload")
        begin = end
    return starts


def _decode_coefficients(windows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Stage 2: the quantized coefficients of every block, natural order, as (n, 64),
    from the ``(P, nblocks)`` grid of block starts."""
    # take/put, bounds checked, in place of fancy indexing, and each step's
    # shifts and masks in place on its fresh arrays: at 20 480 lanes (20
    # planes of 256²) a put costs about half a fancy-indexed store and a take
    # about 4/5 of a fancy-indexed load
    n = starts.size
    bits = windows.take(starts >> 3)
    bits <<= starts & 7  # the bit at each start is bit 39
    peeks = bits >> 24
    peeks &= 0xFFFF
    size = _DC_SIZE.take(peeks).astype(np.intp)  # a uint8 shifted by 11 would wrap
    pos = starts + _DC_LUT_LEN.take(peeks) + size
    diff = _EXTEND.take((size << 11) | ((bits >> (40 - (pos - starts))) & 0x7FF))
    del bits, peeks, size
    # the DC prediction restarts at each plane's first block, as the encoder's does
    running = np.cumsum(diff, axis=1)
    if n and (running.min() < -2 ** 31 or running.max() >= 2 ** 31):
        raise CorruptError("DC predictor leaves the int32 range")
    out = np.zeros((n, 64), dtype=np.int32)
    out[:, 0] = running.ravel()
    del diff, running
    pos = pos.ravel()
    flat = out.reshape(-1)
    row = np.arange(0, 64 * n, 64)
    k = np.ones(n, dtype=np.int64)
    while k.size:
        bits = windows.take(pos >> 3)
        bits <<= pos & 7  # the bit at pos is bit 39
        peeks = bits >> 24
        peeks &= 0xFFFF
        fields = _AC_FIELDS.take(peeks)
        k += fields >> 16
        # stage 1 keeps k <= 63 before a block's last symbol, so only a step
        # that ends a block can overflow it
        ending = k.max() >= 64
        if ending:
            over = k > _AC_K_LIMIT.take(peeks)
            if over.any():
                block = int(row[over.argmax()]) // 64
                raise CorruptError(f"zero run or coefficient index overflows block {block}")
        advance = fields & 31
        pos += advance
        np.subtract(40, advance, out=advance)
        bits >>= advance
        bits &= 0x7FF
        fields &= 0x7800  # size << 11
        fields |= bits
        flat.put(row + _STEP_SLOT.take(k), _EXTEND.take(fields))
        if ending:
            going = np.flatnonzero(k < 64)
            row, pos, k = row.take(going), pos.take(going), k.take(going)
    return out


def entropy_decode_planes(payloads: list[bytes] | tuple[bytes, ...], nblocks: int) -> np.ndarray:
    """Decode the Huffman bitstreams of P planes of ``nblocks`` blocks each in one pass.

    Returns the quantized blocks (natural order), plane after plane, as a ``(P * nblocks,
    8, 8)`` int32 array.  Raises :class:`ArgumentError` unless ``payloads`` is a list or
    tuple of ``bytes`` and ``nblocks`` an integer >= 0; :class:`CorruptError` on truncated
    or invalid bitstreams, when more than 7 padding bits remain after a plane's last
    block, or when the DC predictor leaves int32.
    """
    check_type("payloads", payloads, (list, tuple))
    nblocks = check_int("nblocks", nblocks, 0)
    for payload in payloads:
        # every block costs at least 6 bits (DC category 0 + EOB): bound the
        # claimed count by the payload before it sizes an allocation
        if nblocks * 6 > len(check_type("payload", payload, bytes)) * 8:
            raise CorruptError(f"{len(payload)}-byte payload cannot hold {nblocks} blocks")
    plane_ends = np.cumsum([8 * len(payload) for payload in payloads], dtype=np.int64).tolist()
    windows = _bit_windows(*payloads)
    starts = _block_starts(windows, plane_ends, nblocks)
    return _decode_coefficients(windows, starts.reshape(len(payloads), nblocks)).reshape(-1, 8, 8)


# ---------------------------------------------------------------------------
# plane codec

@dataclass(frozen=True)
class EncodedPlane:
    """One entropy-coded plane, as its SCMP record holds it: the affine map taking
    its values into [0, 255], normalized = (v - offset) / scale, and its Huffman
    bitstream."""

    offset: float
    scale: float
    payload: bytes

    def __post_init__(self):
        check_real("offset", self.offset, error=ValidationError)
        check_real("scale", self.scale, 0, error=ValidationError)
        check_type("payload", self.payload, bytes, ValidationError)


@dataclass(frozen=True, eq=False)
class Probe:
    """Every plane's symbols at one quality, a run of planes (:func:`_runs`) at a time."""

    quality: int
    symbols: tuple[_Symbols, ...]
    nbytes: np.ndarray  # (P,) each plane's payload bytes


@dataclass(frozen=True, eq=False)
class PlaneStack:
    """The quality-independent half of the plane coder, for P planes of one size.

    Holds each plane's normalization (see :class:`EncodedPlane`) and the DCT
    coefficients of all padded, level-shifted 8x8 blocks, plane after plane, in
    zigzag order, so a rate search probes every plane at many qualities without
    transforming them again.  Its arrays are made read-only.
    """

    offsets: np.ndarray  # (P,) float64
    scales: np.ndarray  # (P,) float64
    coeffs: np.ndarray  # (P * nblocks, 64), zigzag order

    def __post_init__(self):  # in place: a copy of the coefficients would double them
        for array in (self.offsets, self.scales, self.coeffs):
            array.setflags(write=False)

    @classmethod
    def of(cls, planes: np.ndarray) -> "PlaneStack":
        """Normalize, pad and DCT-transform a ``(P, H, W)`` stack of planes.

        Works on runs of whole planes (:func:`_runs`), so its temporaries are
        a run's size and only the coefficients are full-size.  Float32 planes
        are kept as they are and widened to float64 a run at a time; any other
        stack is taken as float64.
        """
        p = check_array("planes", planes, None, ValidationError)
        if p.dtype != np.float32:
            p = p.astype(np.float64, copy=False)
        if p.ndim != 3 or min(p.shape) < 1:
            raise ValidationError(f"planes must be a non-empty (P, H, W) stack, got {p.shape}")
        count, height, width = p.shape
        flat = p.reshape(count, -1)
        offsets = flat.min(axis=1).astype(np.float64)
        highs = flat.max(axis=1).astype(np.float64)
        if not np.isfinite((offsets, highs)).all():  # a NaN or an infinity reaches a bound
            raise ValidationError("plane contains non-finite values")
        with np.errstate(over="ignore"):  # a range past float64 is an inf scale, refused below
            scales = np.where(highs > offsets, (highs - offsets) / 255.0, 1.0)
        for scale in scales.tolist():
            check_real("scale", scale, 0, error=ValidationError)
        rows, cols = (height + 7) // 8, (width + 7) // 8
        # in a band of 8 rows, block c's zigzag element at natural (u, v) sits
        # at u * 8 * cols + 8 * c + v
        gather = (ZIGZAG_ORDER // 8 * 8 * cols + ZIGZAG_ORDER % 8) + 8 * np.arange(cols)[:, None]
        coeffs = np.empty((count * rows * cols, 64))
        for lo, hi in _runs(count, rows * cols):
            # normalize, level-shift and pad a run of planes
            x = np.subtract(p[lo:hi], offsets[lo:hi, None, None])
            if height % 8 or width % 8:
                x = np.pad(x, ((0, 0), (0, -height % 8), (0, -width % 8)), mode="edge")
            x /= scales[lo:hi, None, None]
            x -= 128.0
            # the 2-D DCT of every block as two wide products, back into x: the
            # DCT matrix times each band of 8 rows, then every 8 columns of that
            # times its transpose
            half = _DCT @ x.reshape(-1, 8, 8 * cols)
            np.matmul(half.reshape(-1, 8), _DCT.T, out=x.reshape(-1, 8))
            del half
            # every index is in range: mode="wrap" only skips numpy's bounds check
            out = coeffs[lo * rows * cols:hi * rows * cols]
            x.reshape(-1, 64 * cols).take(gather, axis=1, out=out.reshape(-1, cols, 64), mode="wrap")
        return cls(offsets=offsets, scales=scales, coeffs=coeffs)

    @property
    def nblocks(self) -> int:
        """Blocks per plane."""
        return len(self.coeffs) // len(self.offsets)

    def probe(self, quality: int) -> Probe:
        """Every plane's symbols at ``quality`` and the payload bytes they pack to."""
        table = quality_to_table(quality).ravel()[ZIGZAG_ORDER]
        symbols = []
        for lo, hi in _runs(len(self.offsets), self.nblocks):
            coeffs = self.coeffs[lo * self.nblocks:hi * self.nblocks]
            magnitude = np.abs(coeffs)
            magnitude /= table
            magnitude += 0.5
            dc = np.copysign(np.floor(magnitude[:, 0]), coeffs[:, 0])
            # the uint16 cast truncates, i.e. floors, the magnitudes; clipped at
            # 2048, every one fits and a too large one keeps a refused category
            np.minimum(magnitude, 2048.0, out=magnitude)
            symbols.append(_Symbols(dc, magnitude[:, 1:].astype(np.uint16), self.nblocks))
        nbytes = (np.concatenate([s.plane_bits() for s in symbols]) + 7) // 8
        nbytes.setflags(write=False)
        return Probe(quality, tuple(symbols), nbytes)

    def encode(self, probe: Probe) -> list[EncodedPlane]:
        """Entropy code every plane: pack the symbols of ``probe``, a probe of this stack."""
        payloads, start = [], 0
        for symbols in probe.symbols:
            payloads += symbols.pack(self.coeffs[start:start + len(symbols.ac), 1:] < 0)
            start += len(symbols.ac)
        return list(map(EncodedPlane, self.offsets.tolist(), self.scales.tolist(), payloads))


class PlaneBands:
    """The planes of one stream, decoded one band of image rows at a time.

    The constructor entropy decodes every plane (:func:`entropy_decode_planes`),
    whose bit windows are freed before it returns.  Iterating dequantizes and
    inverse transforms a band of rows of all planes, with one batched matmul
    into the band's padded layout, and yields ``(row, band)``: the
    ``(P, rows, W)`` float64 planes (no clamping) from image row ``row`` on.
    :func:`~cubecodec.cube.chunks` sizes a band by every array the loop keeps
    alive, its consumer's synthesis of the stream's ``bands`` spectral bands
    included, so a band is a multiple of 16 rows that fits one chunk budget
    with that synthesis, or 16 rows.  ``shape`` is the whole ``(P, H, W)``;
    ``ns`` counts the nanoseconds spent iterating, so a consumer can tell its
    own time from the decoder's.  The arguments are the fields of a
    :class:`~cubecodec.container.CompressedStream`, checked there once.
    """

    def __init__(self, planes: tuple[EncodedPlane, ...], width: int, height: int, quality: int,
                 bands: int):
        self.table = quality_to_table(quality)
        self.shape = (len(planes), height, width)
        self.bands = bands
        self.scales = np.array([p.scale for p in planes])[:, None, None]
        self.offsets = np.array([p.offset for p in planes])[:, None, None]
        rows, cols = (height + 7) // 8, (width + 7) // 8
        qblocks = entropy_decode_planes([p.payload for p in planes], rows * cols)
        self.qblocks = qblocks.reshape(len(planes), rows, cols, 8, 8)
        self.ns = 0

    def __iter__(self):
        count, height, width = self.shape
        cols = self.qblocks.shape[2]
        # per image row, 8 * cols float64 samples a plane or band of each array
        # alive in the loop: the IDCT's pair of band temporaries (2 * count),
        # the band it yields (count) and the synthesis's product (bands)
        for lo, hi in chunks(height, (3 * count + self.bands) * 8 * cols):
            t0 = time.perf_counter_ns()
            coeffs = self.qblocks[:, lo // 8:(hi + 7) // 8].astype(np.float64)
            coeffs *= self.table
            half = _DCT.T @ coeffs
            del coeffs
            padded = np.empty((count, half.shape[1] * 8, cols * 8))
            # (P, rows/8, 8, cols, 8) viewed block-major: the IDCT's output lands in place
            blocks = padded.reshape(count, -1, 8, cols, 8).transpose(0, 1, 3, 2, 4)
            np.matmul(half, _DCT, out=blocks)
            del half
            band = np.add(padded[:, :hi - lo, :width], 128.0)
            del padded
            band *= self.scales
            band += self.offsets
            self.ns += time.perf_counter_ns() - t0
            yield lo, band

