"""Golden-bytes gate: the encoder's output is pinned byte for byte.

The digests were recorded with the symbol-at-a-time Huffman encoder that
preceded the vectorized one; any change to the SCMP bytes, the quality the
rate search picks or its probe count fails here.
"""

import hashlib

import pytest

from cubecodec.bench import BUILTIN_CORPUS, _BUILTIN_BUILDERS, make_sweep_cube
from cubecodec.container import RateTarget, compress_with_report, serialize_stream, spectral_forward
from cubecodec.spatial import encode_plane

# (image, method, p) -> (sha256 of the SCMP bytes, chosen quality, rate probes) at CR 8
GOLDEN_STREAMS = {
    ("skin", "pca", 20): ("eae2f020f6b4e3e4c4e94dd31ef53dae1d64b10e4e6bd84417ca9a890560b5ae", 95, 6),
    ("skin", "pca", 24): ("cc6b76bd3464ffa0decbc598b8e0e893dd2176bcec7fe60c0d2b193dfc59247e", 91, 5),
    ("skin", "pca", 28): ("645cad372e4e8330357fc6c5e5c7b5b86ab65d468d412edef041d066bfaa8138", 88, 3),
    ("skin", "csi", 20): ("ed20609ac3a3eead63c0bbfd7b68f23baaaf3d417afdcc368e69221e1413dc41", 98, 7),
    ("skin", "csi", 24): ("21b01e3ada13481e3b4002efa73d64bac845a77673e50180d3995465a155d948", 96, 7),
    ("skin", "csi", 28): ("88961065f73aaecc9944c41f9f2a9ebafb401932169e0ca84564ab7986bc27d0", 94, 4),
    ("narrowband", "pca", 20): ("3afec1d32f228126a22a0dedcf689ba8732b3fa01f40ee4a401dc127e5ed9ece", 95, 6),
    ("narrowband", "pca", 24): ("3bbe0cd2e74227f5de403ba2ca635ae575e2cd0709cac4ffbc2fa5a0236c53f5", 92, 6),
    ("narrowband", "pca", 28): ("761ec698368e3f2375e85e95717395c00c8f85918ed21bb2d2bffa7825158b38", 88, 3),
    ("narrowband", "csi", 20): ("11ed944437a806c54916e0e09dc5fdf956640affcd235fb72bccf324f39d54c6", 96, 7),
    ("narrowband", "csi", 24): ("0da867d840467f15351f32a775ebf77c079373dd8f3f06b5ab04f7902cb1f4bc", 94, 4),
    ("narrowband", "csi", 28): ("2bc294cdbeed9463c9bd3d746d428d3982fe44ada1af09c13ddcff29da139678", 91, 5),
    ("dark", "pca", 20): ("c8c1e68ae3835f078050e5ce4ae63d8ec76f45654993607942a617ba5640388b", 95, 6),
    ("dark", "pca", 24): ("8f7e5b84711b2d5f2209feb2b59fcc9c172829af98035e108ee11db6066d2b09", 91, 5),
    ("dark", "pca", 28): ("a2fd1bc27c3d0c20a61ed9dbe06a08e9fb50c2d882e4b6a988022a22c4aedfb4", 88, 3),
    ("dark", "csi", 20): ("27f71edc376e2b6d935ad70b61e18d059a86caa80dae62b8be91a31533e2b5f1", 98, 7),
    ("dark", "csi", 24): ("c68f794f4d6ac9f55d5a5b848f227f9846b6de4898d33c321a76698b185334f0", 97, 5),
    ("dark", "csi", 28): ("28e021f1c117353c71008a9df494ea2f09540b444bde8f2bd8fcfe693ba24a82", 94, 4),
    ("chart", "pca", 20): ("e40c53971177ec4c0b6c35ff28ef122415558db1d28d1a74d1eeedbb58ea0cc1", 97, 5),
    ("chart", "pca", 24): ("ce63873464af6ea9e4881314b52c6f8d80f94600dc6f3e5e3e2d3a6e5db7de6c", 94, 4),
    ("chart", "pca", 28): ("9db7013d0a5f7a5ea59f2bf96676f8d544d022f50e0353208fbf49f0a0ff63c0", 91, 5),
    ("chart", "csi", 20): ("a8add35cfe24954738308ae85a594fe523356f36da4c4dae54b92be533a1f102", 100, 7),
    ("chart", "csi", 24): ("4a58c5dc0450c8b4ac9b9e7bf0798a14c558f547ddca2495d1298310e208a73f", 98, 7),
    ("chart", "csi", 28): ("42733d3a1efdd0bb533da933b24638f82d4d824b0ae9916ff07c7d0dfaee6ada", 97, 5),
}

# quality -> first 16 hex digits of the sha256 over the payloads of every
# PCA then CSI plane (p=20) of the 64x64 sweep cube
GOLDEN_PAYLOADS = {
    1: "4b696c71da90a0e6", 2: "df3eafec88d2079c", 3: "fb5c68951697d106", 4: "0ed3ac09c4744f73",
    5: "192fbc3434ff4569", 6: "9e5f981303c840ca", 7: "82898f692e9a42b7", 8: "78d1e9830d35353d",
    9: "fcdd987f705a87d3", 10: "e8dc380549703ec3", 11: "69694e8ea96a1445", 12: "c983b3fbdec600bb",
    13: "a05046fd3c504758", 14: "6eaead684110426e", 15: "db8144f67bce01b9", 16: "f7ef85e933451be4",
    17: "7ba0d55244379945", 18: "61fdfa7420613615", 19: "b2080f147272ff14", 20: "fec2ea2b6883e34c",
    21: "b664d3d734d3c0ea", 22: "4163190256622f36", 23: "1bc52a386225e1e7", 24: "26e1b9194b22b142",
    25: "b5cb84986a65cefe", 26: "684d4ef48b6cfade", 27: "fce6f8bc65ff911d", 28: "ab874be97ec9b774",
    29: "d52c6eb8609a5037", 30: "fe6c7ff751a78f21", 31: "684024402ec786db", 32: "cfd54ac29858c74a",
    33: "0a9e1e613729b3d1", 34: "57ebf796e256211d", 35: "42be31a633a8ed13", 36: "5a2939503afb2a47",
    37: "4bb108ef6a6eb0ba", 38: "2a2161753f3d4dbd", 39: "489f616be6a592e8", 40: "850ac7d71c13974d",
    41: "3dc0ad902e63df36", 42: "e9b24963ca2fd16d", 43: "5c96629e323ee26a", 44: "16ca9f6354178df6",
    45: "c5db462236bbc4de", 46: "4b1269fc84cf830c", 47: "88cf9e05874f677b", 48: "912b6dca0115f245",
    49: "80e8d83bbcf427c2", 50: "e3e7dde8858fafd5", 51: "b928b816f31769b7", 52: "6592548c3ac879f5",
    53: "4797d9514713e661", 54: "3105bc3b214e4e0c", 55: "3d283fd661a37a13", 56: "ca0b71bfc6132a70",
    57: "fac78fba6cb1216f", 58: "9730c3e6ac1c3ab4", 59: "ae637f9d29ecf8a3", 60: "c5404919f7c9581e",
    61: "f7d331614c6493e0", 62: "56509be779549a4e", 63: "e2b80824106c1a26", 64: "837d00c6a4d1e92d",
    65: "e5b02306fe864b7b", 66: "c9b78ef8cdd115e9", 67: "1ab2f2ee71dab5af", 68: "e8be3fbe00924327",
    69: "ced59fe860a2b8ec", 70: "a1c673b88fa25d33", 71: "2147dd15a1037c1e", 72: "89e6128fcc099f57",
    73: "3f307af40b7d8b2e", 74: "6cee351aff0691f0", 75: "e4f3569c112e7fb8", 76: "18c852370bf980f3",
    77: "bbd04c464b4832f1", 78: "9fc937c9b58e8eb8", 79: "b7e28705dd833d20", 80: "b59473bab57985cf",
    81: "9f998276bfb8b3ef", 82: "d0df19c8cd5b7f12", 83: "ab231b2c9e4c0944", 84: "7d3af8948747298a",
    85: "63b52f3584611b51", 86: "4480b490167f74b7", 87: "d9286b04c185bca6", 88: "df1cfe2ca8b758e1",
    89: "c772b9788f44685c", 90: "1e62054996963c94", 91: "6a31280afe02fc9b", 92: "a8d5e1f28eb83297",
    93: "aaab940a8d2748b7", 94: "78678ea5363e4a3b", 95: "424da3fc51b7ab3e", 96: "54a0ee33b56f3475",
    97: "13f6a668b4ecc0a4", 98: "6613131ec311181a", 99: "795eda0ed4a40b2d", 100: "ef9be5267fa0213d",
}


@pytest.mark.parametrize("image", BUILTIN_CORPUS)
def test_rate_controlled_streams_are_pinned(image):
    cube = _BUILTIN_BUILDERS[image]()
    for method in ("pca", "csi"):
        for p in (20, 24, 28):
            stream, report = compress_with_report(cube, method, p, rate=RateTarget(8.0))
            digest = hashlib.sha256(serialize_stream(stream)).hexdigest()
            assert (digest, report.quality, report.encodes) == GOLDEN_STREAMS[image, method, p]


def test_entropy_payloads_are_pinned_at_every_quality():
    cube = make_sweep_cube(64, 64)
    planes = [spectral_forward(cube, method, 20)[0] for method in ("pca", "csi")]
    for quality, expected in GOLDEN_PAYLOADS.items():
        digest = hashlib.sha256()
        for reduced in planes:
            for plane in reduced.planes:
                digest.update(encode_plane(plane, quality).payload)
        assert digest.hexdigest()[:16] == expected, f"quality {quality}"
