"""Shared fixtures, hypothesis profile, and independent numerical oracles.

The oracles here deliberately re-derive results through different algebra
than the package uses (dense solves, definitional summations, Jacobi
rotations) so the tests stay independent of the implementation paths they
check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cubecodec.cube import SpectralCube

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# cube helpers

def random_cube(seed: int, width=4, height=3, bands=5) -> SpectralCube:
    """Small random cube with f32 values in [0, 1] and an integer nm grid."""
    rng = np.random.default_rng(seed)
    wavelengths = (400.0 + 10.0 * np.arange(bands)).astype(np.float32)
    samples = rng.uniform(0.0, 1.0, (bands, height, width)).astype(np.float32)
    return SpectralCube(width=width, height=height, bands=bands,
                        wavelengths=wavelengths, samples=samples)


# ---------------------------------------------------------------------------
# dense natural-spline oracle (full linear solve + Numerical-Recipes-form
# evaluation, independent of the package's Thomas/t-polynomial path)

def dense_spline_oracle(knot_x, knot_y, query_x):
    x = np.asarray(knot_x, dtype=np.float64)
    y = np.asarray(knot_y, dtype=np.float64)
    q = np.asarray(query_x, dtype=np.float64)
    p = len(x)
    a = np.zeros((p, p))
    rhs = np.zeros(p)
    a[0, 0] = 1.0
    a[-1, -1] = 1.0
    h = np.diff(x)
    for i in range(1, p - 1):
        a[i, i - 1] = h[i - 1]
        a[i, i] = 2.0 * (h[i - 1] + h[i])
        a[i, i + 1] = h[i]
        rhs[i] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    m = np.linalg.solve(a, rhs)
    out = np.empty_like(q)
    for k, xq in enumerate(q):
        j = min(max(int(np.searchsorted(x, xq, side="right")) - 1, 0), p - 2)
        hj = h[j]
        out[k] = (m[j] * (x[j + 1] - xq) ** 3 / (6 * hj)
                  + m[j + 1] * (xq - x[j]) ** 3 / (6 * hj)
                  + (y[j] / hj - m[j] * hj / 6) * (x[j + 1] - xq)
                  + (y[j + 1] / hj - m[j + 1] * hj / 6) * (xq - x[j]))
    return out


# ---------------------------------------------------------------------------
# definitional 2-D DCT oracle: explicit four-index cosine tensor contraction

def naive_dct_tensor() -> np.ndarray:
    c = np.empty((8, 8, 8, 8))
    for u in range(8):
        cu = np.sqrt(0.25) if u == 0 else np.sqrt(0.5)
        for v in range(8):
            cv = np.sqrt(0.25) if v == 0 else np.sqrt(0.5)
            for x in range(8):
                for y in range(8):
                    c[u, v, x, y] = (0.5 * cu * cv
                                     * np.cos((2 * x + 1) * u * np.pi / 16.0)
                                     * np.cos((2 * y + 1) * v * np.pi / 16.0))
    return c


def naive_dct(block: np.ndarray, tensor: np.ndarray | None = None) -> np.ndarray:
    t = naive_dct_tensor() if tensor is None else tensor
    return np.einsum("uvxy,xy->uv", t, np.asarray(block, dtype=np.float64))


# ---------------------------------------------------------------------------
# Jacobi-rotation symmetric eigensolver (oracle for the PCA fit)

def jacobi_eigh(matrix: np.ndarray, sweeps: int = 100):
    a = np.asarray(matrix, dtype=np.float64).copy()
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < 1e-15 * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    return np.diag(a).copy(), v


def brute_force_pca_basis(cube: SpectralCube, p: int) -> np.ndarray:
    """Loop-accumulated covariance (row-major pixel order) + Jacobi eigen."""
    n = cube.bands
    pixels = cube.pixel_matrix().astype(np.float64)
    npix = pixels.shape[0]
    mean = np.zeros(n)
    for row in pixels:
        mean += row
    mean /= npix
    cov = np.zeros((n, n))
    for row in pixels:
        d = row - mean
        cov += np.outer(d, d)
    cov /= npix - 1
    w, v = jacobi_eigh(cov)
    order = np.argsort(w)[::-1]
    return v[:, order[:p]]


def max_principal_angle(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Largest principal angle between equal-rank subspaces, stable near 0.

    Computed from the projection residual, whose spectral norm equals the
    sine of the largest angle (no arccos cancellation at tiny angles).
    """
    qa, _ = np.linalg.qr(basis_a)
    qb, _ = np.linalg.qr(basis_b)
    residual = qb - qa @ (qa.T @ qb)
    s = np.linalg.svd(residual, compute_uv=False)
    return float(np.arcsin(min(1.0, s[0] if len(s) else 0.0)))


@pytest.fixture(scope="session")
def dct_tensor():
    return naive_dct_tensor()


# ---------------------------------------------------------------------------
# symbol-at-a-time Huffman encoder (oracle for the vectorized entropy stage):
# Annex F.1.2 written out per coefficient into one Python integer

def reference_huffman_encode(qblocks) -> bytes:
    from cubecodec.spatial import _AC_CODES, _DC_CODES, ZIGZAG_ORDER

    acc = 0
    nbits = 0

    def put(code, length):
        nonlocal acc, nbits
        acc = (acc << length) | code
        nbits += length

    def amplitude(v):
        size = abs(v).bit_length()
        return (v if v > 0 else v + (1 << size) - 1), size

    prev_dc = 0
    for block in np.asarray(qblocks).reshape(-1, 64):
        zz = [int(v) for v in block[ZIGZAG_ORDER]]
        bits, size = amplitude(zz[0] - prev_dc)
        prev_dc = zz[0]
        put(*_DC_CODES[size])
        put(bits, size)
        run = 0
        for k in range(1, 64):
            if zz[k] == 0:
                run += 1
                continue
            while run > 15:
                put(*_AC_CODES[0xF0])
                run -= 16
            bits, size = amplitude(zz[k])
            put(*_AC_CODES[(run << 4) | size])
            put(bits, size)
            run = 0
        if run:
            put(*_AC_CODES[0x00])
    pad = -nbits % 8
    return ((acc << pad).to_bytes((nbits + pad) // 8, "big") if nbits else b"")
