"""Plane codec tests: DCT, quality scaling, entropy stage, full pipeline."""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubecodec import spatial
from cubecodec.cube import synthesize_cube
from cubecodec.errors import ArgumentError, CorruptError, ValidationError
from cubecodec.spatial import (
    BASE_LUMA_QUANT,
    PlaneStack,
    ZIGZAG_ORDER,
    entropy_decode_planes,
    entropy_encode_blocks,
    quality_to_table,
)

from conftest import (decode_planes, encode_planes, flip_bit, naive_dct,
                      reference_huffman_decode, reference_huffman_encode)


def _random_qblocks(rng, n, zero_fraction=0.8):
    blocks = rng.integers(-900, 900, (n, 8, 8)).astype(np.int32)
    blocks[rng.uniform(size=blocks.shape) < zero_fraction] = 0
    blocks[:, 0, 0] = rng.integers(-1000, 1000, n)
    return blocks


# ---------------------------------------------------------------------------
# DCT

def _normalized_blocks(planes, stack):
    """Each plane's 8x8 blocks as :meth:`PlaneStack.of` normalizes them, block-major."""
    _, height, width = planes.shape
    for plane, offset, scale in zip(planes, stack.offsets, stack.scales):
        padded = np.pad((plane - offset) / scale,
                        ((0, -height % 8), (0, -width % 8)), mode="edge") - 128.0
        yield from padded.reshape(padded.shape[0] // 8, 8, -1, 8).swapaxes(1, 2).reshape(-1, 8, 8)


def test_constant_block_has_pure_dc():
    planes = np.full((1, 8, 8), 2.5)
    stack = PlaneStack.of(planes)
    (block,) = _normalized_blocks(planes, stack)
    out = stack.coeffs[0].copy()
    assert abs(out[0] - 8 * block[0, 0]) <= 1e-12
    out[0] = 0.0
    assert np.abs(out).max() <= 1e-12


def test_forward_matches_naive_double_sum(dct_tensor):
    rng = np.random.default_rng(41)
    planes = rng.uniform(-128, 127, (1, 8, 8))
    stack = PlaneStack.of(planes)
    (block,) = _normalized_blocks(planes, stack)
    expected = naive_dct(block, dct_tensor).ravel()[ZIGZAG_ORDER]
    assert np.abs(stack.coeffs[0] - expected).max() <= 1e-10


# ---------------------------------------------------------------------------
# quality scaling

def test_quality_50_is_identity():
    assert np.array_equal(quality_to_table(50), BASE_LUMA_QUANT)


def test_quality_100_clamps_to_one():
    assert np.all(quality_to_table(100) == 1)


def test_quality_25_hand_value():
    assert BASE_LUMA_QUANT[0, 0] == 16
    assert quality_to_table(25)[0, 0] == 32


@pytest.mark.parametrize("quality", [0, 101, 3.5, "50"])
def test_quality_out_of_domain(quality):
    with pytest.raises(ArgumentError):
        quality_to_table(quality)


@given(st.integers(1, 99))
def test_steps_nonincreasing_in_quality(quality):
    lo = quality_to_table(quality)
    hi = quality_to_table(quality + 1)
    assert np.all(hi <= lo)


# ---------------------------------------------------------------------------
# entropy stage

def test_entropy_roundtrip_fixed_batch():
    rng = np.random.default_rng(42)
    blocks = _random_qblocks(rng, 500)
    payload = entropy_encode_blocks(blocks)
    assert np.array_equal(entropy_decode_planes([payload], [500]), blocks)


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
def test_entropy_roundtrip_random(seed, n):
    rng = np.random.default_rng(seed)
    blocks = _random_qblocks(rng, n, zero_fraction=float(rng.uniform(0.3, 0.99)))
    payload = entropy_encode_blocks(blocks)
    assert np.array_equal(entropy_decode_planes([payload], [n]), blocks)


def test_entropy_rejects_truncation_and_garbage():
    rng = np.random.default_rng(43)
    blocks = _random_qblocks(rng, 20, zero_fraction=0.5)
    payload = entropy_encode_blocks(blocks)
    with pytest.raises(CorruptError):
        entropy_decode_planes([payload[: len(payload) // 2]], [20])
    with pytest.raises(CorruptError):
        entropy_decode_planes([payload + b"\xff\xff\xff\xff"], [20])
    with pytest.raises(CorruptError):
        entropy_decode_planes([b"\xff\xff\xff"], [1])


def test_entropy_decode_peek_at_payload_end():
    # the second block's AC code starts on the last payload bit
    with pytest.raises(CorruptError):
        entropy_decode_planes([bytes.fromhex("bb40")], [2])


def test_entropy_decode_bounds_block_count_before_allocating():
    with pytest.raises(CorruptError):
        entropy_decode_planes([b"\x00" * 8], [2 ** 40])


def _blocks_from_zigzag(zz):
    out = np.zeros((len(zz), 64), dtype=np.int32)
    out[:, ZIGZAG_ORDER] = zz
    return out.reshape(-1, 8, 8)


_NONZERO = st.integers(-1023, 1023).filter(bool)


@st.composite
def _sparse_qblocks(draw):
    n = draw(st.integers(1, 8))
    zz = np.zeros((n, 64), dtype=np.int64)
    for i in range(n):
        zz[i, 0] = draw(st.integers(-1023, 1023))  # DC differences up to category 11
        positions = draw(st.lists(st.integers(1, 63), unique=True, max_size=12))
        if draw(st.booleans()):
            positions.append(63)  # last coefficient nonzero: no EOB
        for k in positions:
            zz[i, k] = draw(_NONZERO)
    return _blocks_from_zigzag(zz)


@st.composite
def _dense_qblocks(draw):
    """Up to 64 blocks of up to 63 nonzero ACs each; half of them hold a zero
    run of 16 or more, coded as a chain of one to three ZRLs."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zz = np.zeros((n, 64), dtype=np.int64)
    zz[:, 0] = rng.integers(-1023, 1024, n)
    for i in range(n):
        count = rng.integers(0, 64)
        sizes = rng.integers(1, 11, count)  # AC categories 1 to 10
        zz[i, rng.choice(np.arange(1, 64), count, replace=False)] = (
            rng.integers(1 << (sizes - 1), 1 << sizes) * rng.choice((-1, 1), count))
        if rng.random() < 0.5:
            lo = rng.integers(1, 49)
            zz[i, lo:rng.integers(lo + 16, 65)] = 0
    return _blocks_from_zigzag(zz)


def _check_entropy_stage(blocks):
    payload = entropy_encode_blocks(blocks)
    assert payload == reference_huffman_encode(blocks)
    assert np.array_equal(entropy_decode_planes([payload], [len(blocks)]), blocks)


@given(_sparse_qblocks())
def test_entropy_encoder_matches_reference_and_count(blocks):
    _check_entropy_stage(blocks)


@pytest.mark.parametrize("case", ["three_zrl", "last_at_63", "all_zero", "extreme_categories",
                                  "run_of_16"])
def test_entropy_encoder_edge_blocks(case):
    zz = np.zeros((3, 64), dtype=np.int64)
    if case == "three_zrl":
        zz[:, 63] = [1, -1, 5]  # run of 62: three ZRLs, then (14, size)
    elif case == "last_at_63":
        zz[:, 1:] = 1
        zz[1, 62] = 0
    elif case == "extreme_categories":
        zz[:, 0] = [1023, -1024, 1023]  # DC differences 1023, -2047, 2047
        zz[:, 1] = [1023, -1023, 512]
    elif case == "run_of_16":
        zz[:, [16, 33, 50]] = 7  # runs of exactly 15 and 16 zeros
        zz[1, 17] = -2
    _check_entropy_stage(_blocks_from_zigzag(zz))


def _pack_planes(planes):
    """Planes of zigzag-ordered quantized blocks, one block count, packed in one call.

    Returns the payloads and the end bit of every field of nonzero length in
    the packed stream, each plane from its byte-aligned start.
    """
    zz = np.concatenate(planes).astype(np.int64)
    symbols = spatial._Symbols(zz[:, 0], np.abs(zz[:, 1:]).astype(np.uint16), len(planes[0]))
    plane_bytes = (symbols.plane_bits() + 7) // 8
    starts = 8 * (np.cumsum(plane_bytes) - plane_bytes)
    lengths = symbols.lengths.reshape(len(planes), -1).astype(np.int64)
    ends = np.cumsum(lengths, axis=1) + starts[:, None]
    return symbols.pack(zz[:, 1:] < 0), sorted(set(ends[lengths > 0].tolist()))


def _zigzag_blocks(*blocks):
    """Blocks given as {zigzag index: value}, as (n, 64) zigzag rows."""
    zz = np.zeros((len(blocks), 64), dtype=np.int64)
    for row, block in zip(zz, blocks):
        for k, value in block.items():
            row[k] = value
    return zz


def test_numpy_shifts_a_uint64_by_64_to_zero():
    # _Symbols.pack relies on it: a field that ends on a word boundary has no tail
    ones = np.full(4, 2 ** 64 - 1, dtype=np.uint64)
    assert not (ones << (64 - np.zeros(4, dtype=np.uint64))).any()


# two blocks of 64 bits: DC 16 and an EOB (12 bits), then the same DC and a
# 50-bit field for zigzag 63 (three ZRLs, the (14, 1) code, one bit), no EOB
_WORD_PLANE = _zigzag_blocks({0: 16}, {0: 16, 63: 1})
_EOB_PLANE = _zigzag_blocks({}, {})  # DC category 0 and an EOB: 6 bits each


def _dense_plane(seed, n=2):
    rng = np.random.default_rng(seed)
    zz = rng.integers(-300, 300, (n, 64))
    zz[rng.uniform(size=zz.shape) < 0.2] = 0
    return zz


@pytest.mark.parametrize("case", ["end_on_word", "end_before_64", "padding_to_word",
                                  "eob_then_dense", "dense_then_eob"])
def test_pack_edge_layouts_match_reference(case):
    if case == "end_on_word":
        # the 50-bit field ends on bit 64 and the next plane's on bit 128, the
        # stream's end, with the zero-length EOB slot after each
        planes = [_WORD_PLANE, _WORD_PLANE]
    elif case == "end_before_64":
        planes = [_EOB_PLANE, _EOB_PLANE]
    elif case == "padding_to_word":
        # 58 bits padded to 64: the next plane starts a fresh word
        planes = [_zigzag_blocks({}, {63: -1}), _dense_plane(5)]
    else:
        planes = [_EOB_PLANE, _dense_plane(6)]
        if case == "dense_then_eob":
            planes.reverse()
    payloads, ends = _pack_planes(planes)
    if case == "end_on_word":
        assert {64, 128} <= set(ends) and ends[-1] == 128
    elif case == "end_before_64":
        assert ends[-1] < 64
    elif case == "padding_to_word":
        assert ends[:4] == [2, 6, 8, 58] and ends[4] > 64
    assert payloads == [reference_huffman_encode(_blocks_from_zigzag(zz)) for zz in planes]


def _reference_or_none(payload, nblocks):
    try:
        return reference_huffman_decode(payload, nblocks)
    except CorruptError:
        return None


def _assert_decodes_like_reference(payloads, nblocks):
    """All planes decode to the reference's blocks, or CorruptError when any plane's reference raises."""
    expected = [_reference_or_none(p, n) for p, n in zip(payloads, nblocks)]
    if any(e is None for e in expected):
        with pytest.raises(CorruptError):
            entropy_decode_planes(payloads, nblocks)
    else:
        got = entropy_decode_planes(payloads, nblocks)
        assert got.dtype == np.int32
        assert np.array_equal(got, np.concatenate(expected))


@st.composite
def _damaged_payloads(draw):
    """A valid payload, or one truncation, single-bit flip or wrong block count of it."""
    blocks = draw(st.one_of(_sparse_qblocks(), _dense_qblocks()))
    payload = entropy_encode_blocks(blocks)
    nblocks = len(blocks)
    kind = draw(st.sampled_from(("intact", "truncate", "flip", "miscount")))
    if kind == "truncate":
        payload = payload[:draw(st.integers(0, len(payload) - 1))]
    elif kind == "flip":
        payload = flip_bit(payload, draw(st.integers(0, 8 * len(payload) - 1)))
    elif kind == "miscount":
        nblocks += draw(st.sampled_from((-1, 1)))
    return payload, nblocks


@settings(max_examples=300)
@given(_damaged_payloads())
def test_entropy_decoder_matches_reference_on_damaged_payloads(case):
    payload, nblocks = case
    _assert_decodes_like_reference([payload], [nblocks])


@settings(max_examples=100)
@given(st.lists(_damaged_payloads(), min_size=1, max_size=4), st.integers(1, 256))
def test_multi_plane_decode_matches_reference_with_tiny_stage1_windows(cases, window_bits):
    # windows of 1-256 bit positions rebuild the stage-1 tables at almost every
    # block and across plane boundaries; real streams rebuild them every 2**15 bits
    payloads, nblocks = zip(*cases)
    with mock.patch.object(spatial, "_STAGE1_BITS", window_bits):
        _assert_decodes_like_reference(list(payloads), list(nblocks))


def test_multi_plane_decode_across_stage1_windows():
    rng = np.random.default_rng(49)
    sizes = [700, 3, 1, 1200, 40]
    blocks = [_random_qblocks(rng, n, zero_fraction=0.85) for n in sizes]
    payloads = [entropy_encode_blocks(b) for b in blocks]
    assert sum(map(len, payloads)) * 8 > 3 * spatial._STAGE1_BITS
    assert np.array_equal(entropy_decode_planes(payloads, sizes), np.concatenate(blocks))
    for i in range(len(sizes)):
        # a damaged plane fails the whole call; its blocks may not run on into the next plane
        cut = payloads[:i] + [payloads[i][:-1]] + payloads[i + 1:]
        with pytest.raises(CorruptError):
            entropy_decode_planes(cut, sizes)
        with pytest.raises(CorruptError):
            entropy_decode_planes(payloads, sizes[:i] + [sizes[i] + 1] + sizes[i + 1:])


def _reference_level0(data: bytes, lo: int, hi: int):
    """Per local position of the window ``lo``..``hi``: (end, k-step) of one AC
    symbol, walked with the Huffman lookup; (itself, 64) at an invalid code
    and from ``hi`` on."""
    size = hi - lo + spatial._AC_SYMBOL_BITS
    jump, step = np.arange(size), np.full(size, 64)
    padded = int.from_bytes(data + bytes(2), "big")
    for b in range(hi - lo):
        peek = (padded >> (8 * len(data) - lo - b)) & 0xFFFF
        length, symbol = int(spatial._AC_LUT_LEN[peek]), int(spatial._AC_LUT_SYM[peek])
        if length:
            jump[b] = b + length + (symbol & 15)
            step[b] = 64 if symbol == 0x00 else 16 if symbol == 0xF0 else (symbol >> 4) + 1
    return jump, step


@st.composite
def _stage1_windows(draw):
    """Bits with valid symbols, EOBs and invalid codes, and a window over them."""
    data = draw(st.binary(max_size=24))
    if draw(st.booleans()):
        data += entropy_encode_blocks(draw(_sparse_qblocks()))
    data += draw(st.binary(min_size=1, max_size=24))
    lo = 8 * draw(st.integers(0, len(data) - 1))
    hi = draw(st.integers(lo + 1, 8 * len(data)))
    return data, lo, hi


@settings(max_examples=200)
@given(_stage1_windows(), st.integers(0, 40))
def test_stage1_levels_equal_chained_level0_steps(window, spare):
    # level j, packed as end | k-step << 16, is 2**j level-0 steps chained,
    # saturating at an invalid code and from hi on; stale entries of a reused
    # (wider) table must not leak in
    data, lo, hi = window
    size = hi - lo + spatial._AC_SYMBOL_BITS
    out = np.full((spatial._DOUBLINGS, size + spare), 0xDEADBEEF, dtype=np.uint32)
    levels = spatial._symbol_tables(spatial._bit_windows(data), lo, hi, out)
    assert len(levels) == spatial._DOUBLINGS
    jump0, step0 = _reference_level0(data, lo, hi)
    jump, step, chained = np.arange(size), np.zeros(size, dtype=np.int64), 0
    for j, level in enumerate(reversed(levels)):
        while chained < 2 ** j:
            step += step0[jump]
            jump = jump0[jump]
            chained += 1
        got = np.asarray(level)
        assert got.shape == (size,)
        assert np.array_equal(got & 0xFFFF, jump), j
        assert np.array_equal(got >> 16, step), j


def _ac_peek_fields():
    """Per 16-bit peek, worked out symbol by symbol from the Huffman peek tables:
    the AC symbol's length with its amplitude bits (0 for an invalid code), the
    low 4 bits of its symbol (its amplitude size; 15 for an invalid code, -1)
    and its k-step (run + 1; 16 for ZRL; 64 for EOB or an invalid code)."""
    advance, size, step = (np.zeros(1 << 16, dtype=np.int64) for _ in range(3))
    for peek, (symbol, length) in enumerate(zip(spatial._AC_LUT_SYM.tolist(),
                                                spatial._AC_LUT_LEN.tolist())):
        size[peek] = symbol & 15
        advance[peek] = length + (symbol & 15) if length else 0
        if length == 0 or symbol == 0x00:
            step[peek] = 64
        else:
            step[peek] = 16 if symbol == 0xF0 else (symbol >> 4) + 1
    return advance, size, step


def test_stage1_packed_fields_hold_a_window():
    # a window's local positions fit the 16-bit jump field, and a step of the
    # coarsest level, 3 (at most 8 symbols of step 64), fits the 16-bit step field
    assert spatial._STAGE1_BITS + spatial._BLOCK_BITS + spatial._AC_SYMBOL_BITS <= 0xFFFF
    assert 2 ** (spatial._DOUBLINGS - 1) * 64 <= 0xFFFF
    advance, _, step = _ac_peek_fields()
    assert advance.max() <= spatial._AC_SYMBOL_BITS and step.max() == 64
    # the widest window the bound allows still decodes a stream of several windows
    widest = 0xFFFF - spatial._BLOCK_BITS - spatial._AC_SYMBOL_BITS
    rng = np.random.default_rng(50)
    sizes = [900, 2, 1300]
    blocks = [_random_qblocks(rng, n, zero_fraction=0.85) for n in sizes]
    payloads = [entropy_encode_blocks(b) for b in blocks]
    assert sum(map(len, payloads)) * 8 > 2 * widest
    with mock.patch.object(spatial, "_STAGE1_BITS", widest):
        got = entropy_decode_planes(payloads, sizes)
    expected = [reference_huffman_decode(p, n) for p, n in zip(payloads, sizes)]
    assert np.array_equal(got, np.concatenate(expected))
    assert np.array_equal(got, np.concatenate(blocks))


def test_stage2_fields_unpack_to_the_peek_tables():
    # stage 2's one gather holds the advance, the amplitude size key and the
    # k-step; stage 1's level-0 entry the advance and the k-step
    advance, size, step = _ac_peek_fields()
    fields = spatial._AC_FIELDS
    assert np.array_equal(fields & 31, advance)
    assert np.array_equal(fields & 0x7800, size << 11)
    assert np.array_equal(fields >> 16, step)
    assert np.array_equal(spatial._AC_PACKED, advance | step << 16)


def _walk_case(case):
    """Payloads and block counts that take the stage-1 walk through its edges."""
    rng = np.random.default_rng(51)
    if case == "ac_symbols_1_to_63":
        # block n - 1 holds n - 1 coefficients, then an EOB: n AC symbols, n = 1..63;
        # the last block holds 63 coefficients and no EOB
        zz = np.zeros((64, 64), dtype=np.int64)
        for n in range(1, 65):
            zz[n - 1, 1:n] = rng.integers(1, 1024, n - 1) * rng.choice((-1, 1), n - 1)
        zz[:, 0] = rng.integers(-1023, 1024, 64)
        return [entropy_encode_blocks(_blocks_from_zigzag(zz))], [64]
    if case == "coefficient_63":
        blocks = [{63: 1}, {62: 3, 63: -2}, {0: 5, 10: 5, 63: 7},
                  {k: (-1) ** k * k for k in range(64)}, {1: 1}]
        # coefficient 63 as AC symbol 8, 16, ..., 56: c coefficients, then
        # (62 - c) // 16 ZRLs and the coefficient, so a jump of 8 lands on k = 64
        for total in range(8, 57, 8):
            c = next(c for c in range(63) if c + (62 - c) // 16 + 1 == total)
            blocks.append({**{k: 2 for k in range(1, c + 1)}, 63: -1})
        zz = _zigzag_blocks(*blocks)
        return [entropy_encode_blocks(_blocks_from_zigzag(zz))], [len(zz)]
    if case == "three_zrls":
        # runs of 48 to 62 zeros: three ZRLs before the coefficient; {48: 1}'s
        # run of 47 takes two and the (15, 1) code
        zz = _zigzag_blocks({49: -3}, {1: 2, 50: 1}, {63: 1}, {3: 1, 52: 9, 63: -1},
                            {14: 4, 63: 1}, {48: 1})
        return [entropy_encode_blocks(_blocks_from_zigzag(zz))], [len(zz)]
    # case == "invalid_after_jump": a block of one coefficient, then DC category
    # 0 and m (0, 1) coefficients of 3 bits, then 16 one bits, which are no AC
    # code: after 1..7 8-symbol jumps, with 0, 1 or 6 symbols more
    valid = "00" + "001" + "1010"
    assert _bit_string_bytes(valid) == entropy_encode_blocks(_blocks_from_zigzag(_zigzag_blocks({1: 1})))
    payloads, nblocks = [], []
    for m in range(8, 57, 8):
        for extra in (0, 1, 6):
            payloads.append(_bit_string_bytes(valid + "00" + "001" * (m + extra) + "1" * 16))
            nblocks.append(2)
    return payloads, nblocks


def _bit_string_bytes(bits):
    """A string of 0s and 1s, MSB first and zero-padded to a whole byte."""
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


@pytest.mark.parametrize("case", ["ac_symbols_1_to_63", "coefficient_63", "three_zrls",
                                  "invalid_after_jump"])
def test_stage1_walk_matches_reference(case):
    # the walk repeats the 8-symbol jump, then takes 4, 2 and 1 once each; under
    # the default window and windows of 1-64 bits, which rebuild the tables at
    # every block
    payloads, nblocks = _walk_case(case)
    for window_bits in (spatial._STAGE1_BITS, *range(1, 65)):
        with mock.patch.object(spatial, "_STAGE1_BITS", window_bits):
            for payload, count in zip(payloads, nblocks):
                _assert_decodes_like_reference([payload], [count])
            _assert_decodes_like_reference(payloads, nblocks)
    if case == "invalid_after_jump":
        for payload, count in zip(payloads, nblocks):
            with pytest.raises(CorruptError, match="bad AC code"):
                reference_huffman_decode(payload, count)
            with pytest.raises(CorruptError, match="^bad AC code or truncated payload in block 1$"):
                entropy_decode_planes([payload], [count])


def _ac_code(symbol):
    """The AC code of ``symbol`` as a string of 0s and 1s."""
    return format(int(spatial._AC_CODE[symbol]), f"0{spatial._AC_LEN[symbol]}b")


#: DC category 0, which has no amplitude bits
_DC_0 = format(int(spatial._DC_CODE[0]), f"0{spatial._DC_LEN[0]}b")
_EMPTY_BLOCK = _DC_0 + _ac_code(0x00)
#: block bits whose last symbol takes k past 63, and the overflow the reference names
_OVERFLOWS = {
    # three ZRLs take k to 49, a fourth to 65
    "fourth_zrl": (_DC_0 + _ac_code(0xF0) * 4, "zero run"),
    # after three ZRLs, a coefficient of 1 with a run of 15 lands on zigzag index 64
    "run_past_63": (_DC_0 + _ac_code(0xF0) * 3 + _ac_code(0xF1) + "1", "coefficient index"),
}


@pytest.mark.parametrize("planes", [1, 2])
@pytest.mark.parametrize("case", sorted(_OVERFLOWS))
def test_stage2_overflow_names_the_reference_block(case, planes):
    # block 2 of 3 overflows on its last symbol, which stage 1 takes as the
    # block's end; blocks 1 and 3 end a step earlier, so the overflowing lane
    # is no longer at its block's index among the lanes.  In a two-plane call
    # the 3 blocks follow a plane of 5, and the block is counted over both.
    overflow, what = _OVERFLOWS[case]
    payload = _bit_string_bytes(_EMPTY_BLOCK + overflow + _EMPTY_BLOCK)
    with pytest.raises(CorruptError, match=f"^{what} overflows block ") as reference:
        reference_huffman_decode(payload, 3)
    block = int(str(reference.value).rsplit(" ", 1)[1])
    assert block == 1
    payloads, nblocks = [payload], [3]
    if planes == 2:
        payloads, nblocks = [_bit_string_bytes(_EMPTY_BLOCK * 5), payload], [5, 3]
        block += 5
    with pytest.raises(CorruptError, match=f"^zero run or coefficient index overflows block {block}$"):
        entropy_decode_planes(payloads, nblocks)


def test_entropy_decode_keeps_blocks_inside_their_plane():
    # plane A's payload 0x09 ends on a symbol boundary inside its only block (DC
    # category 0, then two (0, 1) coefficients); plane B opens with the bits
    # 1010 (DC category 4), which would read as A's EOB
    b_block = np.zeros((1, 8, 8), dtype=np.int32)
    b_block[0, 0, 0] = -8
    payloads = [b"\x09", entropy_encode_blocks(b_block)]
    assert payloads[1][0] >> 4 == 0b1010
    with pytest.raises(CorruptError):
        reference_huffman_decode(payloads[0], 1)
    _assert_decodes_like_reference(payloads, [1, 1])


def test_entropy_decode_rejects_invalid_dc_code():
    # nine 1 bits are no DC code; read as AC codes, the same bits end a block
    with pytest.raises(CorruptError):
        entropy_decode_planes([bytes.fromhex("ffa0af2c28")], [1])


def test_entropy_decode_empty_plane():
    assert entropy_encode_blocks(np.zeros((0, 8, 8), np.int32)) == b""
    assert entropy_decode_planes([b""], [0]).shape == (0, 8, 8)
    with pytest.raises(CorruptError):
        entropy_decode_planes([b"\x00"], [0])


def test_entropy_decode_rejects_dc_predictor_overflow():
    # each block adds +2047 to the DC predictor (category 11, then EOB), which
    # leaves int32 after 1_049_088 blocks
    with pytest.raises(CorruptError):
        entropy_decode_planes([bytes.fromhex("ff7ffa") * 1_050_000], [1_050_000])


def test_entropy_encoder_rejects_oversized_categories():
    dc12 = np.zeros((2, 8, 8), dtype=np.int32)
    dc12[1, 0, 0] = 2048  # DC difference category 12
    ac11 = np.zeros((1, 8, 8), dtype=np.int32)
    ac11[0, 3, 4] = -1024  # AC category 11
    for blocks in (dc12, ac11):
        with pytest.raises(ValidationError):
            entropy_encode_blocks(blocks)


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("magnitude", [1024, 2048, 65_536, 65_537, 2 ** 31 - 1])
def test_entropy_encoder_rejects_ac_magnitudes_past_category_10(magnitude, sign):
    # a probe clips the magnitudes at 2048 before their uint16 cast, which
    # would wrap 65 536 to 0 and 65 537 to 1; the DC is taken before the clip
    # (test_entropy_encoder_edge_blocks[extreme_categories] codes DC 1023 and
    # -1024 beside ACs of category 10)
    blocks = np.zeros((2, 8, 8), dtype=np.int32)
    blocks[1, 0, 1] = sign * magnitude
    with pytest.raises(ValidationError, match="exceeds category 10"):
        entropy_encode_blocks(blocks)


def test_entropy_encoder_rejects_misshaped_or_float_blocks():
    for blocks in (np.zeros((2, 8, 7), dtype=np.int32), np.zeros((2, 8, 8))):
        with pytest.raises(ArgumentError):
            entropy_encode_blocks(blocks)


def test_zigzag_order_is_a_permutation():
    assert sorted(ZIGZAG_ORDER.tolist()) == list(range(64))
    # first steps of the standard scan: DC, right, down-left, down, ...
    assert ZIGZAG_ORDER[:6].tolist() == [0, 1, 8, 16, 9, 2]


# ---------------------------------------------------------------------------
# plane pipeline

def test_flat_plane_minimal_payload():
    (enc,) = encode_planes(PlaneStack.of(np.full((1, 16, 16), 0.7)), 50)
    qblocks = entropy_decode_planes([enc.payload], [4])
    assert np.all(qblocks.reshape(4, 64)[:, 1:] == 0)  # every AC is zero
    assert len(enc.payload) <= 8
    dec = decode_planes([enc], 16, 16, 50)[0]
    dc_step = float(quality_to_table(50)[0, 0])
    assert np.abs(dec - 0.7).max() <= enc.scale * dc_step / 16.0


def test_nonmultiple_dimensions_roundtrip():
    rng = np.random.default_rng(44)
    plane = rng.uniform(0, 1, (13, 17))
    dec = decode_planes(encode_planes(PlaneStack.of(plane[None]), 50), 17, 13, 50)[0]
    assert dec.shape == (13, 17)
    assert np.all(np.isfinite(dec))


@pytest.mark.parametrize("width,height", [
    (-8, 8), (8.0, 8), (0, 8), (True, 8), (2 ** 32, 8), ("8", 8),
    (8, True), (8, 0), (8, -1), (8, np.float64(8.0)),
])
def test_decode_size_must_be_a_positive_u32(width, height):
    (enc,) = encode_planes(PlaneStack.of(np.full((1, 8, 8), 0.5)), 50)
    with pytest.raises(ArgumentError, match="must be an integer in"):
        decode_planes([enc], width, height, 50)
    # numpy integers in range are sizes too
    assert decode_planes([enc], np.uint32(8), np.int64(8), 50).shape == (1, 8, 8)


def test_ramp_block_matches_hand_pipeline(dct_tensor):
    # values span exactly [0, 255] so normalization is the identity map
    plane = (np.arange(64, dtype=np.float64).reshape(8, 8) * 255.0) / 63.0
    (enc,) = encode_planes(PlaneStack.of(plane[None]), 50)
    assert enc.offset == 0.0 and enc.scale == 1.0
    got = entropy_decode_planes([enc.payload], [1])[0]
    coeffs = naive_dct(plane - 128.0, dct_tensor)
    table = quality_to_table(50)
    expected = np.sign(coeffs) * np.floor(np.abs(coeffs) / table + 0.5)
    assert np.array_equal(got, expected.astype(np.int32))


def test_high_quality_psnr_on_smooth_plane():
    cube = synthesize_cube(64, 64, 31, "random-smooth", seed=11)
    plane = cube.samples[15].astype(np.float64)
    dec = decode_planes(encode_planes(PlaneStack.of(plane[None]), 100), 64, 64, 100)[0]
    mse = float(np.mean((dec - plane) ** 2))
    value_range = float(plane.max() - plane.min())
    psnr = 10.0 * np.log10(value_range ** 2 / mse)
    assert psnr >= 40.0  # measured ~64 dB; 40 is the contract floor


def test_payload_monotone_in_quality():
    rng = np.random.default_rng(45)
    stack = PlaneStack.of(rng.uniform(0, 1, (1, 24, 24)))
    sizes = [len(encode_planes(stack, q)[0].payload) for q in (10, 30, 50, 70, 90)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_distortion_monotone_in_quality():
    rng = np.random.default_rng(46)
    planes = rng.uniform(0, 1, (1, 24, 24))
    stack = PlaneStack.of(planes)
    mses = [float(np.mean((decode_planes(encode_planes(stack, q), 24, 24, q) - planes) ** 2))
            for q in (10, 30, 50, 70, 90)]
    for better, worse in zip(mses[1:], mses[:-1]):
        assert better <= worse + 1e-12


def test_padding_equivalence():
    rng = np.random.default_rng(47)
    plane = rng.uniform(0, 1, (13, 17))
    padded = np.pad(plane, ((0, 3), (0, 7)), mode="edge")
    direct = decode_planes(encode_planes(PlaneStack.of(plane[None]), 60), 17, 13, 60)[0]
    via_padded = decode_planes(encode_planes(PlaneStack.of(padded[None]), 60), 24, 16, 60)[0, :13, :17]
    assert np.array_equal(direct, via_padded)


def test_encode_validation():
    with pytest.raises(ValidationError):
        PlaneStack.of(np.array([[[np.inf, 0.0]]]))
    with pytest.raises(ValidationError):
        PlaneStack.of(np.zeros((1, 0, 4)))
    with warnings.catch_warnings():  # the range overflows float64 without a warning
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=r"scale must be a real number in \(0, inf\), got inf"):
            PlaneStack.of(np.array([[[-1e308, 1e308]]]))
    with pytest.raises(ArgumentError):
        PlaneStack.of(np.zeros((1, 4, 4))).probe(0)


_ODD_SIDE = st.integers(1, 30).filter(lambda side: side % 8)


@st.composite
def _plane_stacks(draw):
    """1-4 planes of one odd size, random at one of three scales or constant."""
    count, height, width = draw(st.integers(1, 4)), draw(_ODD_SIDE), draw(_ODD_SIDE)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    planes = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), (count, height, width))
    for plane in planes:
        if draw(st.booleans()):
            plane[:] = draw(st.floats(-1e3, 1e3))
    return planes


def _stack_qblocks(stack, quality):
    """Each plane's quantized blocks, natural order, from the stack's coefficients."""
    table = quality_to_table(quality).ravel()[ZIGZAG_ORDER]
    zz = np.sign(stack.coeffs) * np.floor(np.abs(stack.coeffs) / table + 0.5)
    natural = np.empty_like(zz)
    natural[:, ZIGZAG_ORDER] = zz
    return natural.astype(np.int32).reshape(len(stack.offsets), -1, 8, 8)


@settings(max_examples=60)
@given(_plane_stacks(), st.integers(1, 100), st.integers(1, 40))
def test_stacked_emit_matches_reference_plane_by_plane(dct_tensor, planes, quality, run_blocks):
    # runs of 1-40 blocks' worth of samples (128 a block) take whole planes:
    # one per run, a few, or all of them in one
    with mock.patch("cubecodec.cube.CHUNK_SAMPLES", 128 * run_blocks):
        stack = PlaneStack.of(planes)
        probe = stack.probe(quality)
        encoded = stack.encode(probe)
    count = len(planes)
    assert len(encoded) == len(probe.nbytes) == count
    # the last run takes the planes left over
    assert len(probe.symbols) == max(1, count // max(1, run_blocks // stack.nblocks))
    for plane, offset in zip(planes, stack.offsets):
        assert offset == plane.min()
    # the transform: per-block DCT of the normalized, edge-padded, level-shifted plane
    expected = [naive_dct(block, dct_tensor).ravel()[ZIGZAG_ORDER]
                for block in _normalized_blocks(planes, stack)]
    assert np.allclose(stack.coeffs, expected, rtol=0.0, atol=1e-9)
    # the entropy stage, plane by plane
    for i, (plane, qblocks) in enumerate(zip(encoded, _stack_qblocks(stack, quality))):
        assert (plane.offset, plane.scale) == (stack.offsets[i], stack.scales[i])
        assert plane.payload == reference_huffman_encode(qblocks)
        assert probe.nbytes[i] == len(plane.payload)
        assert plane == encode_planes(PlaneStack.of(planes[i][None]), quality)[0]


def _stack_for_probes():
    # 5 planes of 30 blocks: with chunks of 30 blocks' samples, one plane per run
    planes = np.random.default_rng(49).normal(0.0, 40.0, (5, 37, 45))
    return PlaneStack.of(planes)


@pytest.mark.parametrize("probed", [None, 90, 40], ids=["fresh", "same_quality", "other_quality"])
def test_emit_after_a_probe_matches_a_fresh_emit(probed):
    with mock.patch("cubecodec.cube.CHUNK_SAMPLES", 128 * 30):
        expected = encode_planes(_stack_for_probes(), 90)
        stack = _stack_for_probes()
        probe = stack.probe(90)
        if probed is not None:
            stack.probe(probed)  # a later probe leaves nothing behind in the stack
        first, second = stack.encode(probe), stack.encode(probe)
    assert len(probe.symbols) == 5
    assert first == expected
    assert second == expected  # the probe is a value: it packs again the same
    assert [len(plane.payload) for plane in expected] == probe.nbytes.tolist()


def test_emit_packs_exactly_the_symbols_of_its_probe(monkeypatch):
    monkeypatch.setattr("cubecodec.cube.CHUNK_SAMPLES", 128 * 30)
    stack = _stack_for_probes()
    probe = stack.probe(40)
    init, pack = spatial._Symbols.__init__, spatial._Symbols.pack
    built, packed = [], []
    monkeypatch.setattr(spatial._Symbols, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    monkeypatch.setattr(spatial._Symbols, "pack",
                        lambda self, *args: packed.append(self) or pack(self, *args))
    encoded = stack.encode(probe)
    assert not built  # the emit builds no symbols of its own
    assert len(packed) == len(probe.symbols) == 5  # five runs of one plane
    assert all(got is kept for got, kept in zip(packed, probe.symbols))
    expected = [reference_huffman_encode(qblocks) for qblocks in _stack_qblocks(stack, 40)]
    assert [plane.payload for plane in encoded] == expected


def test_emit_quantizes_nothing(monkeypatch):
    monkeypatch.setattr("cubecodec.cube.CHUNK_SAMPLES", 128 * 30)
    stack = _stack_for_probes()
    probe = stack.probe(40)
    expected = [reference_huffman_encode(qblocks) for qblocks in _stack_qblocks(stack, 40)]

    def no_table(quality):
        raise AssertionError("the emit builds a quantization table")

    monkeypatch.setattr(spatial, "quality_to_table", no_table)
    assert [plane.payload for plane in stack.encode(probe)] == expected


def test_plane_stack_is_frozen_and_takes_its_arrays_over():
    coeffs = np.zeros((2, 64))
    stack = PlaneStack(offsets=np.zeros(1), scales=np.ones(1), coeffs=coeffs)
    assert stack.coeffs is coeffs  # made read-only in place, not copied
    for array in (stack.offsets, stack.scales, coeffs):
        assert not array.flags.writeable
    stack = _stack_for_probes()
    stack.encode(stack.probe(50))
    assert set(vars(stack)) == {"offsets", "scales", "coeffs"}  # probes leave no state behind
    with pytest.raises(dataclasses.FrozenInstanceError):
        stack.coeffs = coeffs


def test_plane_stack_validation():
    with pytest.raises(ValidationError):
        PlaneStack.of(np.zeros((4, 4)))
    with pytest.raises(ValidationError):
        PlaneStack.of(np.zeros((0, 4, 4)))
    with pytest.raises(ValidationError):
        PlaneStack.of(np.full((2, 3, 3), np.nan))
    with pytest.raises(ArgumentError):
        PlaneStack.of(np.zeros((2, 3, 3))).probe(True)


def test_plane_bands_need_a_plane_record():
    with pytest.raises(ArgumentError, match="no plane records to decode"):
        spatial.PlaneBands([], 8, 8, 50)


def test_plane_norm_validation():
    with pytest.raises(ValidationError):
        spatial.EncodedPlane(offset=0.0, scale=0.0, payload=b"")
    with pytest.raises(ValidationError):
        spatial.EncodedPlane(offset=float("nan"), scale=1.0, payload=b"")
