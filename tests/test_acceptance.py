"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criteria 2-4 share one benchmark run over the
default four-cube synthetic corpus at target compression rate 8; criterion 3
runs its own median-of-5 size sweep.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from cubecodec.bench import BenchConfig, default_config, run_benchmark
from cubecodec.colorimetry import ciede2000_array
from cubecodec.container import (
    RateTarget,
    compress,
    compress_with_report,
    decompress,
    parse_stream,
    serialize_stream,
)
from cubecodec.cube import read_cube, synthesize_cube, write_cube
from cubecodec.errors import RateError
from cubecodec.reduction import (
    CsiSideInfo,
    csi_forward,
    csi_inverse,
    csi_select_knots,
    pca_fit,
    pca_forward,
    pca_inverse,
)
from cubecodec.spatial import (
    ZIGZAG_ORDER,
    PlaneStack,
    entropy_decode_planes,
    entropy_encode_blocks,
)
from cubecodec.spline import natural_cubic_spline

from conftest import (
    brute_force_pca_basis,
    decode_planes,
    dense_spline_oracle,
    max_principal_angle,
    naive_dct,
    naive_dct_tensor,
    random_cube,
)
from data_ciede2000 import CIEDE2000_PAIRS

RATE_WINDOW = (7.6, 8.4)


def _announce(number: int, name: str, elapsed: float, note: str = ""):
    suffix = f" [{note}]" if note else ""
    print(f"\n[ACCEPTANCE {number}] {name}: PASS ({elapsed:.1f}s){suffix}")


@pytest.fixture(scope="module")
def corpus_run():
    """Shared run for criteria 2 and 4: default corpus, target CR 8."""
    config = dataclasses.replace(default_config(), repetitions=3)
    start = time.perf_counter()
    reports = run_benchmark(config)
    return reports, time.perf_counter() - start


def test_criterion_1_ciede2000_verification_pairs():
    start = time.perf_counter()
    pairs = np.array(CIEDE2000_PAIRS)
    diffs = np.abs(ciede2000_array(pairs[:, 0:3], pairs[:, 3:6]) - pairs[:, 6])
    worst = float(diffs.max())
    assert len(diffs) == 34 and worst <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(1, "CIEDE2000 34-pair verification", elapsed,
              f"worst |diff| {worst:.2e}")


def test_criterion_2_table1_ordering(corpus_run):
    reports, elapsed = corpus_run
    assert len(reports) == 4 * 2 * 3
    best = {}
    for r in reports:
        assert r.ok, f"row {r.image}/{r.method}/p{r.p} failed: {r.error}"
        key = (r.image, r.method)
        best[key] = min(best.get(key, np.inf), r.de_mean)
    notes = []
    for image in ("skin", "narrowband", "dark", "chart"):
        pca = best[(image, "pca")]
        csi = best[(image, "csi")]
        assert pca < csi, f"{image}: PCA {pca:.3f} !< CSI {csi:.3f}"
        assert pca < 1.0, f"{image}: PCA mean dE00 {pca:.3f} >= 1.0"
        excess = " (CSI above 1.0, allowed)" if csi >= 1.0 else ""
        notes.append(f"{image}: pca {pca:.3f} < csi {csi:.3f}{excess}")
    assert elapsed < 120.0
    _announce(2, "best-p ordering, PCA dE00 < CSI and < 1.0 per cube", elapsed,
              "; ".join(notes))


def test_criterion_3_complexity_sweep():
    start = time.perf_counter()
    config = BenchConfig(
        corpus=[], methods=["pca", "csi"], p_values=[20],
        target_cr=8.0, repetitions=5,
        size_sweep=[(32, 32), (64, 64), (128, 128), (256, 256)],
    )
    reports = run_benchmark(config)
    assert len(reports) == 8
    spectral = {(r.image, r.method): r.t_spectral_ms for r in reports}
    for r in reports:
        assert r.ok, f"{r.image}/{r.method}: {r.error}"
    ratios = {}
    for w, h in config.size_sweep:
        name = f"sweep_{w}x{h}"
        pca = spectral[(name, "pca")]
        csi = spectral[(name, "csi")]
        assert pca > csi, f"{name}: spectral PCA {pca:.2f}ms !> CSI {csi:.2f}ms"
        ratios[name] = pca / csi
    assert ratios["sweep_256x256"] >= 2.0
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _announce(3, "spectral-stage timing: PCA > CSI at every size", elapsed,
              ", ".join(f"{k.split('_')[1]}: {v:.1f}x" for k, v in ratios.items()))


def test_criterion_4_rate_control(corpus_run):
    reports, _ = corpus_run
    start = time.perf_counter()
    lo, hi = RATE_WINDOW
    for r in reports:
        assert r.ok
        assert r.rate_in_window, f"{r.image}/{r.method}/p{r.p} missed the window"
        assert lo <= r.achieved_cr <= hi, (
            f"{r.image}/{r.method}/p{r.p}: CR {r.achieved_cr:.3f} outside window")
    # unreachable targets are loud, never a silent miss
    tiny = random_cube(7, width=8, height=8, bands=3)
    with pytest.raises(RateError) as info:
        compress_with_report(tiny, "pca", 3, rate=RateTarget(500.0))
    assert info.value.best_cr is not None
    elapsed = time.perf_counter() - start
    _announce(4, "achieved CR in [7.6, 8.4] on all rows; RateError is loud",
              elapsed)


def test_criterion_5_oracle_equivalences():
    start = time.perf_counter()
    # (a) the DCT compress runs against the definitional double sum, 1000
    # blocks, each a plane of the stack and normalized as the stack does
    tensor = naive_dct_tensor()
    rng = np.random.default_rng(2024)
    blocks = rng.uniform(-128, 127, (1000, 8, 8))
    stack = PlaneStack.of(blocks)
    worst_dct = 0.0
    for block, offset, scale, coeffs in zip(blocks, stack.offsets, stack.scales, stack.coeffs):
        expected = naive_dct((block - offset) / scale - 128.0, tensor)
        diff = np.abs(coeffs - expected.ravel()[ZIGZAG_ORDER]).max()
        worst_dct = max(worst_dct, diff)
    assert worst_dct <= 1e-10

    # (b) PCA basis against loop-covariance + Jacobi rotations, 100 seeds
    worst_angle = 0.0
    for seed in range(100):
        cube = random_cube(5000 + seed, width=6, height=6, bands=4)
        oracle = brute_force_pca_basis(cube, 3)
        for p in (1, 2, 3):
            side = pca_fit(cube, p)
            angle = max_principal_angle(side.basis, oracle[:, :p])
            worst_angle = max(worst_angle, angle)
    assert worst_angle <= 1e-8

    # (c) spline values against the dense linear-solve oracle, 100 knot sets
    worst_spline = 0.0
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        p = int(rng.integers(2, 13))
        x = np.sort(rng.uniform(-4, 4, p))
        while np.any(np.diff(x) < 1e-2):
            x = np.sort(rng.uniform(-4, 4, p))
        y = rng.uniform(-2, 2, p)
        q = rng.uniform(x[0], x[-1], 23)
        diff = np.abs(natural_cubic_spline(x, y, q)
                      - dense_spline_oracle(x, y, q)).max()
        worst_spline = max(worst_spline, diff)
    assert worst_spline <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(5, "oracle equivalences (DCT, PCA, spline)", elapsed,
              f"dct {worst_dct:.1e}, angle {worst_angle:.1e}, "
              f"spline {worst_spline:.1e}")


def test_criterion_6_invariant_suites():
    start = time.perf_counter()

    # PCA orthonormality at 1e-9 on fitted side info
    for seed in range(5):
        cube = random_cube(6000 + seed, width=7, height=6, bands=8)
        assert pca_fit(cube, 5).orthonormality_defect() < 1e-9

    # p = N lossless spectral round trip at 1e-6
    cube = random_cube(6100, width=6, height=6, bands=8)
    side = pca_fit(cube, 8)
    recon = pca_inverse(pca_forward(cube, side), side, cube.wavelengths)
    assert np.abs(recon.samples.astype(np.float64)
                  - cube.samples.astype(np.float64)).max() <= 1e-6

    # CSI with all bands as knots is exactly the identity
    cube31 = synthesize_cube(6, 6, 31, "random-smooth", seed=61)
    all_knots = csi_select_knots(31, 31)
    assert csi_inverse(csi_forward(cube31, all_knots), all_knots,
                       cube31.wavelengths) == cube31

    # natural boundary and C2 agreement at 1e-4 relative (finite differences)
    rng = np.random.default_rng(62)
    x = np.cumsum(rng.uniform(0.5, 1.5, 7))
    y = rng.uniform(-2, 2, 7)
    h = 1e-4 * (x[-1] - x[0])
    f = lambda q: natural_cubic_spline(x, y, np.atleast_1d(q))[0]

    def one_sided(x0, direction):
        s = 1.0 if direction > 0 else -1.0
        return (2 * f(x0) - 5 * f(x0 + s * h) + 4 * f(x0 + 2 * s * h)
                - f(x0 + 3 * s * h)) / (h * h)

    curvature = max(abs((f(m - h) - 2 * f(m) + f(m + h)) / (h * h))
                    for m in (x[:-1] + x[1:]) / 2)
    assert abs(one_sided(x[0], +1)) <= 1e-4 * curvature
    assert abs(one_sided(x[-1], -1)) <= 1e-4 * curvature
    for xk in x[1:-1]:
        assert abs(one_sided(xk, -1) - one_sided(xk, +1)) <= 1e-4 * curvature

    # entropy stage bijectivity, 10,000 random quantized blocks
    rng = np.random.default_rng(63)
    blocks = rng.integers(-900, 900, (10_000, 8, 8)).astype(np.int32)
    blocks[rng.uniform(size=blocks.shape) < 0.85] = 0
    blocks[:, 0, 0] = rng.integers(-1000, 1000, 10_000)
    payload = entropy_encode_blocks(blocks)
    assert np.array_equal(entropy_decode_planes([payload], [10_000]), blocks)

    # SCUB and SCMP serialization round trips, bit-exact
    cube = random_cube(6200, width=5, height=4, bands=6)
    assert read_cube(write_cube(cube)) == cube
    for method in ("pca", "csi"):
        stream = compress(cube, method, 4, quality=65)
        blob = serialize_stream(stream)
        assert parse_stream(blob) == stream
        assert serialize_stream(parse_stream(blob)) == blob

    # rate and distortion monotone in quality (non-strict)
    rng = np.random.default_rng(64)
    plane = rng.uniform(0, 1, (24, 24))
    stack = PlaneStack.of(plane[None])
    encoded = [stack.encode(q)[0] for q in (10, 30, 50, 70, 90)]
    sizes = [len(enc.payload) for enc in encoded]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    mses = [float(np.mean((decode_planes([enc], 24, 24, q)[0] - plane) ** 2))
            for q, enc in zip((10, 30, 50, 70, 90), encoded)]
    for better, worse in zip(mses[1:], mses[:-1]):
        assert better <= worse + 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(6, "invariant suites", elapsed)


def test_criterion_7_small_instance_pca_optimality():
    start = time.perf_counter()

    def knot_sets(n, p):
        for mid in itertools.combinations(range(1, n - 1), p - 2):
            yield np.array((0, *mid, n - 1), dtype=np.int64)

    def mse(a, b):
        return float(np.mean((a.samples.astype(np.float64)
                              - b.samples.astype(np.float64)) ** 2))

    for seed in range(20):
        cube = random_cube(7000 + seed, width=6, height=6, bands=4)
        for p in (2, 3):
            side = pca_fit(cube, p)
            pca_mse = mse(cube, pca_inverse(pca_forward(cube, side), side,
                                            cube.wavelengths))
            csi_best = min(
                mse(cube, csi_inverse(csi_forward(cube, CsiSideInfo(k)),
                                      CsiSideInfo(k), cube.wavelengths))
                for k in knot_sets(4, p)
            )
            assert pca_mse <= csi_best + 1e-12, (
                f"seed {seed} p={p}: PCA {pca_mse:.3e} > best CSI {csi_best:.3e}")

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(7, "PCA beats every exhaustive knot selection", elapsed)
