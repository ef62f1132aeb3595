"""Plane codec tests: DCT, quality scaling, entropy stage, full pipeline."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubecodec.cube import synthesize_cube
from cubecodec.errors import ArgumentError, CorruptError, ValidationError
from cubecodec.spatial import (
    BASE_LUMA_QUANT,
    EncodedPlane,
    PlaneNorm,
    ZIGZAG_ORDER,
    decode_plane,
    dct8_forward,
    dct8_inverse,
    encode_plane,
    entropy_count_bits,
    entropy_decode_blocks,
    entropy_encode_blocks,
    quality_to_table,
)

from conftest import naive_dct, reference_huffman_encode


def _random_qblocks(rng, n, zero_fraction=0.8):
    blocks = rng.integers(-900, 900, (n, 8, 8)).astype(np.int32)
    blocks[rng.uniform(size=blocks.shape) < zero_fraction] = 0
    blocks[:, 0, 0] = rng.integers(-1000, 1000, n)
    return blocks


# ---------------------------------------------------------------------------
# DCT

def test_constant_block_has_pure_dc():
    out = dct8_forward(np.full((8, 8), 2.5))
    assert abs(out[0, 0] - 8 * 2.5) <= 1e-12
    out[0, 0] = 0.0
    assert np.abs(out).max() <= 1e-12


def test_inverse_of_forward_is_identity():
    rng = np.random.default_rng(40)
    for _ in range(20):
        block = rng.uniform(-128, 127, (8, 8))
        assert np.abs(dct8_inverse(dct8_forward(block)) - block).max() <= 1e-9


def test_forward_matches_naive_double_sum(dct_tensor):
    rng = np.random.default_rng(41)
    block = rng.uniform(-128, 127, (8, 8))
    assert np.abs(dct8_forward(block) - naive_dct(block, dct_tensor)).max() <= 1e-10


def test_dct_shape_validation():
    with pytest.raises(ArgumentError):
        dct8_forward(np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# quality scaling

def test_quality_50_is_identity():
    assert np.array_equal(quality_to_table(BASE_LUMA_QUANT, 50), BASE_LUMA_QUANT)


def test_quality_100_clamps_to_one():
    assert np.all(quality_to_table(BASE_LUMA_QUANT, 100) == 1)


def test_quality_25_hand_value():
    base = np.full((8, 8), 16, dtype=np.int32)
    assert quality_to_table(base, 25)[0, 0] == 32


@pytest.mark.parametrize("quality", [0, 101, 3.5, "50"])
def test_quality_out_of_domain(quality):
    with pytest.raises(ArgumentError):
        quality_to_table(BASE_LUMA_QUANT, quality)


@given(st.integers(1, 99))
def test_steps_nonincreasing_in_quality(quality):
    lo = quality_to_table(BASE_LUMA_QUANT, quality)
    hi = quality_to_table(BASE_LUMA_QUANT, quality + 1)
    assert np.all(hi <= lo)


# ---------------------------------------------------------------------------
# entropy stage

def test_entropy_roundtrip_fixed_batch():
    rng = np.random.default_rng(42)
    blocks = _random_qblocks(rng, 500)
    payload = entropy_encode_blocks(blocks)
    assert np.array_equal(entropy_decode_blocks(payload, 500), blocks)


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
def test_entropy_roundtrip_random(seed, n):
    rng = np.random.default_rng(seed)
    blocks = _random_qblocks(rng, n, zero_fraction=float(rng.uniform(0.3, 0.99)))
    payload = entropy_encode_blocks(blocks)
    assert np.array_equal(entropy_decode_blocks(payload, n), blocks)


def test_entropy_rejects_truncation_and_garbage():
    rng = np.random.default_rng(43)
    blocks = _random_qblocks(rng, 20, zero_fraction=0.5)
    payload = entropy_encode_blocks(blocks)
    with pytest.raises(CorruptError):
        entropy_decode_blocks(payload[: len(payload) // 2], 20)
    with pytest.raises(CorruptError):
        entropy_decode_blocks(payload + b"\xff\xff\xff\xff", 20)
    with pytest.raises(CorruptError):
        entropy_decode_blocks(b"\xff\xff\xff", 1)


def test_entropy_decode_peek_at_payload_end():
    # the second block's AC code starts on the last payload bit
    with pytest.raises(CorruptError):
        entropy_decode_blocks(bytes.fromhex("bb40"), 2)


def test_entropy_decode_bounds_block_count_before_allocating():
    with pytest.raises(CorruptError):
        entropy_decode_blocks(b"\x00" * 8, 2 ** 40)


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


def _check_entropy_stage(blocks):
    payload = entropy_encode_blocks(blocks)
    assert payload == reference_huffman_encode(blocks)
    assert (entropy_count_bits(blocks) + 7) // 8 == len(payload)
    assert np.array_equal(entropy_decode_blocks(payload, len(blocks)), blocks)


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


def test_entropy_encoder_rejects_oversized_categories():
    dc12 = np.zeros((2, 8, 8), dtype=np.int32)
    dc12[1, 0, 0] = 2048  # DC difference category 12
    ac11 = np.zeros((1, 8, 8), dtype=np.int32)
    ac11[0, 3, 4] = -1024  # AC category 11
    for blocks in (dc12, ac11):
        with pytest.raises(ValidationError):
            entropy_encode_blocks(blocks)
        with pytest.raises(ValidationError):
            entropy_count_bits(blocks)


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
    enc = encode_plane(np.full((16, 16), 0.7), 50)
    qblocks = entropy_decode_blocks(enc.payload, enc.nblocks)
    assert np.all(qblocks.reshape(4, 64)[:, 1:] == 0)  # every AC is zero
    assert len(enc.payload) <= 8
    dec = decode_plane(enc)
    dc_step = float(quality_to_table(BASE_LUMA_QUANT, 50)[0, 0])
    assert np.abs(dec - 0.7).max() <= enc.norm.scale * dc_step / 16.0


def test_nonmultiple_dimensions_roundtrip():
    rng = np.random.default_rng(44)
    plane = rng.uniform(0, 1, (13, 17))
    dec = decode_plane(encode_plane(plane, 50))
    assert dec.shape == (13, 17)
    assert np.all(np.isfinite(dec))


def test_ramp_block_matches_hand_pipeline(dct_tensor):
    # values span exactly [0, 255] so normalization is the identity map
    plane = (np.arange(64, dtype=np.float64).reshape(8, 8) * 255.0) / 63.0
    enc = encode_plane(plane, 50)
    assert enc.norm.offset == 0.0 and enc.norm.scale == 1.0
    got = entropy_decode_blocks(enc.payload, 1)[0]
    coeffs = naive_dct(plane - 128.0, dct_tensor)
    table = quality_to_table(BASE_LUMA_QUANT, 50)
    expected = np.sign(coeffs) * np.floor(np.abs(coeffs) / table + 0.5)
    assert np.array_equal(got, expected.astype(np.int32))


def test_high_quality_psnr_on_smooth_plane():
    cube = synthesize_cube(64, 64, 31, "random-smooth", seed=11)
    plane = cube.samples[15].astype(np.float64)
    dec = decode_plane(encode_plane(plane, 100))
    mse = float(np.mean((dec - plane) ** 2))
    value_range = float(plane.max() - plane.min())
    psnr = 10.0 * np.log10(value_range ** 2 / mse)
    assert psnr >= 40.0  # measured ~64 dB; 40 is the contract floor


def test_payload_monotone_in_quality():
    rng = np.random.default_rng(45)
    plane = rng.uniform(0, 1, (24, 24))
    sizes = [len(encode_plane(plane, q).payload) for q in (10, 30, 50, 70, 90)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_distortion_monotone_in_quality():
    rng = np.random.default_rng(46)
    plane = rng.uniform(0, 1, (24, 24))
    mses = [float(np.mean((decode_plane(encode_plane(plane, q)) - plane) ** 2))
            for q in (10, 30, 50, 70, 90)]
    for better, worse in zip(mses[1:], mses[:-1]):
        assert better <= worse + 1e-12


def test_padding_equivalence():
    rng = np.random.default_rng(47)
    plane = rng.uniform(0, 1, (13, 17))
    padded = np.pad(plane, ((0, 3), (0, 7)), mode="edge")
    direct = decode_plane(encode_plane(plane, 60))
    via_padded = decode_plane(encode_plane(padded, 60))[:13, :17]
    assert np.array_equal(direct, via_padded)


def test_encode_validation():
    with pytest.raises(ValidationError):
        encode_plane(np.array([[np.inf, 0.0]]), 50)
    with pytest.raises(ValidationError):
        encode_plane(np.zeros((0, 4)), 50)
    with pytest.raises(ArgumentError):
        encode_plane(np.zeros((4, 4)), 0)


def test_plane_record_serialization_roundtrip():
    rng = np.random.default_rng(48)
    enc = encode_plane(rng.uniform(0, 1, (9, 21)), 35)
    blob = enc.to_bytes()
    back, offset = EncodedPlane.from_bytes(blob)
    assert offset == len(blob)
    assert back == enc
    with pytest.raises(CorruptError):
        EncodedPlane.from_bytes(blob[:-1])
    with pytest.raises(CorruptError):
        EncodedPlane.from_bytes(blob[:10])


def test_plane_norm_validation():
    with pytest.raises(ValidationError):
        PlaneNorm(offset=0.0, scale=0.0)
    with pytest.raises(ValidationError):
        PlaneNorm(offset=float("nan"), scale=1.0)
