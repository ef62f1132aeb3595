"""Golden-bytes gate: the encoder's output and the decoder's are pinned byte for byte.

The stream digests were recorded with the symbol-at-a-time Huffman encoder
that preceded the vectorized one; any change to the SCMP bytes, the quality
the rate search picks or its probe count fails here.  The decoded-plane
digests were recorded with the symbol-at-a-time decoder and the per-plane
dequantize + IDCT that preceded the two-stage decoder and the batched one.
The decoded-cube digests pin the spectral inverse on top of them: they were
recorded before PCA and CSI shared one synthesis.  The CIEDE2000 values of
those cubes were recorded while every score still built its D65 weights and
reference white per call, and the ΔE maps of two more cubes while every score
still rendered the whole frame pixel-major.
"""

import hashlib

import numpy as np
import pytest

from cubecodec.bench import BUILTIN_CORPUS, _BUILTIN_BUILDERS, make_sweep_cube
from cubecodec.colorimetry import cube_delta_e, spectra_to_xyz, xyz_array_to_lab
from cubecodec.container import (
    SPECTRAL_METHODS,
    RateTarget,
    compress,
    compress_with_report,
    decompress,
    parse_stream,
    serialize_stream,
)
from cubecodec.cube import SpectralCube, default_wavelengths, synthesize_cube
from cubecodec.spatial import PlaneStack

from conftest import decode_planes, encode_planes

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

# out-of-window rate searches, which return the quality whose rate is the
# smallest at or above the target: "fallback64" is synthesize_cube(64, 64,
# 31, "random-smooth", seed=12), which stays above the window even at quality
# 100, its last probe; on skin and chart the window is 0.1% wide, and the
# quality returned is not the last one probed.  Recorded while every emit
# still built its symbols again.
# (image, method, p, rate) -> (sha256 of the SCMP bytes, chosen quality, rate probes)
GOLDEN_FALLBACK_STREAMS = {
    ("fallback64", "pca", 8, RateTarget(8.0)):
        ("913e073508c3b2409a74028948f4a96cabce395e065592b2b7d19159c2bcc6cc", 100, 7),
    ("skin", "pca", 20, RateTarget(8.0, tolerance=0.001)):
        ("72a0c4a761fddbdd40e51ba713746b3e08c41d380b3f9ba882ae97a1a7df3236", 94, 6),
    ("chart", "csi", 20, RateTarget(8.0, tolerance=0.001)):
        ("340693d66ae3f6da2dd678e2a79f17be99e0c48ff3e4e612b36d88de1d7eb021", 99, 7),
}

# (image, method, p) -> sha256 of the decoded (P, H, W) float64 planes of the
# rate-controlled stream above
GOLDEN_DECODED = {
    ("skin", "pca", 20): "5286717506e9c67535d9a47295dbddbaaff817e946728f4d75f39379c7071b77",
    ("skin", "pca", 24): "e606f5a063ded454e5973b5728973ef67cffa37af04d32ba1a038e306c191531",
    ("skin", "pca", 28): "96b142ca0bac14acacb11759093f1f143a3b940f0235500774ad227377477244",
    ("skin", "csi", 20): "a33564ca28a746d3df6c0a021b25a63248f65d71bb0dec202489df41fab67df0",
    ("skin", "csi", 24): "08d9cf98ec0b4d64a655ac095a02aedc62ec1f0362b7b2968b0fca6b71bf57e7",
    ("skin", "csi", 28): "b16d4287f089deb47418143ab8ae401353be48a956f2b3a9ca724c26dbf69ff2",
    ("narrowband", "pca", 20): "21fb2c3ba13162f8994126d7ed202f08df2848a92a70133d279f4033a844fb58",
    ("narrowband", "pca", 24): "f6786a5c67b1fb10854e97716d251863e5f8fe6b76cf885d8b21e50b6eb0deb6",
    ("narrowband", "pca", 28): "b23dd65dc6aaa159b9e9f4ef21fa632d46271d6cc989e0b2f3830de06df7a00a",
    ("narrowband", "csi", 20): "e3708a3a67fa0e617c606ba4200730b6829a8ca4428233dc745abf4b66449696",
    ("narrowband", "csi", 24): "9a4733a198f1230d8c9bcea60d91a2b6680f7ef5262890621c745c58dc11f4b1",
    ("narrowband", "csi", 28): "1b625174e3435b267753a78e34f4f7516027a37a961e4e8ad42c6c7dd7ed5b6a",
    ("dark", "pca", 20): "7fc631feeb5eff4c23fd426226768062aff5e4c9bf1908e2488bd6bef481e0c3",
    ("dark", "pca", 24): "e19b031c6751c8d48751fdaa077ae0874cf566a254c1b05e62adea2212973e8a",
    ("dark", "pca", 28): "3601428c3eb31f419f593f9c05b275b2254ea6101c8ca9b03ab5c0b21e942e63",
    ("dark", "csi", 20): "22b2f7bedf136bbad7d20c4aab9a33b35cd0793d771351e1f1ffc0621ee4e342",
    ("dark", "csi", 24): "222bc1bbcabccf597ea7298e6f81d3c209c83219c0b546098d4fb3068df9bd5c",
    ("dark", "csi", 28): "d0901382aa9eea35e63a747d7ddd2b5a5f1eea58f81ae4b3577d9d85cd6e7c54",
    ("chart", "pca", 20): "161148e52d869612658fc92c127e469c487fd90a3c8a9f9633e66fc6a1af6163",
    ("chart", "pca", 24): "d2df106ce0a7c05b536c40fc79b09ad1960042b7d986ab269c77132cf5ffd909",
    ("chart", "pca", 28): "b9b04ffbc8f2efe9a3ee5182001854b1498ef099875471164a1ac38286a9a7ea",
    ("chart", "csi", 20): "e0e5bcfb3ef1f63fdaf4de7873686091565d79e7dff1500e38d6bb599ab6dc93",
    ("chart", "csi", 24): "7c2a7dff1495ed80584bb605f44a22b95951b9a33a211aa4d7b43636f843b179",
    ("chart", "csi", 28): "78a703dae6253e7370504c2b3f04b8481de4c8ea84259b792c98afdc3848276b",
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


# quality -> first 16 hex digits of the sha256 over the decoded float64
# planes of the same PCA then CSI plane records
GOLDEN_DECODED_PLANES = {
    1: "714443f75c0e027c", 2: "5c6efea1fbf6224a", 3: "a8eebac993704360", 4: "1b21026460e20faf",
    5: "ec5989571b4a89ec", 6: "b0c00ce67250676f", 7: "5004f72d69abc933", 8: "5ad82f6052b52dca",
    9: "ad90645a227a63ef", 10: "da06521af78c8810", 11: "c19bc397cf15a33f", 12: "9eed64a5e9d455d2",
    13: "63af12982ea4e0b1", 14: "a8e6ebb1de050ca6", 15: "fb7c4a896c2628d8", 16: "e77837273e8a5213",
    17: "07efe1f89226ea93", 18: "166a24c187ad3de7", 19: "3e2aacc11ce2ee6f", 20: "9012592f34a44645",
    21: "bfbf55e95f8a1df3", 22: "d4d78ba44a076a86", 23: "8648920fecdbca7c", 24: "891da1d0c377bb6f",
    25: "6aabc7ce683e2620", 26: "616f8d2ebfce50c7", 27: "68d2cd6f4620d27c", 28: "c439792198cdfdd2",
    29: "e740f458e5ae98d9", 30: "2a671d1cdac6da85", 31: "344d92b31ed2ef76", 32: "75f4c6ed4c1b475e",
    33: "58322f3c7e8c95b1", 34: "d66192ab555e2746", 35: "686bb87f1a82903c", 36: "6a8b61c7c8c08c41",
    37: "b854443a7f990cc3", 38: "7cd0f08dae829438", 39: "4eff9ea528b702bd", 40: "254286c251078a29",
    41: "8f23bcee01a44e2a", 42: "0bdd2e59162f192f", 43: "37007d5854b93fab", 44: "86646fa98cd36a3a",
    45: "2af83f46bc76818b", 46: "6a1266097c8d5f7c", 47: "4ea9b1081da43706", 48: "a217ce603663325d",
    49: "abaa44c86d57068d", 50: "37cb5e3eaacdfefb", 51: "bbecc5325e18d838", 52: "bf448e4e5eb92e8e",
    53: "2eff1a3209f59161", 54: "5cd21a02c21c8d78", 55: "c95e0bf90f3b6215", 56: "aa499c88cd8d71ff",
    57: "383bed4286c3b605", 58: "f85598bdbeb0df99", 59: "4629f83fb6e49ebe", 60: "ec66d81a9e02c5c5",
    61: "b2a5ea2732a99984", 62: "510e976b3b5e41d7", 63: "fe70f30027b4b8e6", 64: "46b54656876d902f",
    65: "57e8a67d39c1a69c", 66: "009cf091b3e90fee", 67: "18d960be8f3fc323", 68: "8f7e24a333d1b393",
    69: "d85963801549479a", 70: "338990233722a618", 71: "ca0e1d88133408c5", 72: "312681e2487bfcc1",
    73: "4dc17ef864d24a0f", 74: "672807e91da96b39", 75: "ec4126a92c9bd520", 76: "8f7af070f631eb5b",
    77: "773ad7e5d7b7b46a", 78: "86729a5c55add29f", 79: "69efb9f58df6fc5e", 80: "007c29a4fe308360",
    81: "8f3900d7f5fda12f", 82: "17e8292dded3ed48", 83: "64135df0a7edc1f7", 84: "d05c08396adab4e3",
    85: "2048d02d2767b65d", 86: "42212053026c2298", 87: "ce0a705228bf2ab9", 88: "6bb37c472c3903c8",
    89: "357ba9c3590342f9", 90: "c333eea995bde93d", 91: "f4d30e0a7edbc1c5", 92: "bbe1a206465f73f8",
    93: "b29f0fe22324e23e", 94: "269609453319b5f6", 95: "5f379d01e46b5629", 96: "df270d1c240ea865",
    97: "7fd446893af051bc", 98: "848aac4606a6d5c7", 99: "be791d6e57fd9ecd", 100: "2817404c19c2c92f",
}


# (image, method) -> sha256 of the float32 samples of the decompressed cube,
# p = 20 at quality 90; "sweep128" is make_sweep_cube(128, 128)
GOLDEN_CUBES = {
    ("skin", "pca"): "561af62ec4e34a2e12ad0b6834baedc314b409b3592a27a50aa0071be6d7df15",
    ("skin", "csi"): "824326fb0e17c23ab7c1b397547764f1a20fa836d8761e32744d38c20382f08d",
    ("narrowband", "pca"): "9ac91a2f97dd62a4b30c9f952c41f4c69bd3a2ff90c841c2aa40db255b07cdfe",
    ("narrowband", "csi"): "345ce75fed9d584ce63244e8d851d3ba37fb881c909b05fe325d9ca73aa3807e",
    ("dark", "pca"): "ed02142ccc0e1d1ca73cfec5152e8e49de21a45f531eff0c2b63877c1fcb7bcc",
    ("dark", "csi"): "a2263361bf8c6e9b373c89168b5385afcd55769e01df716fe8219c7c728cc256",
    ("chart", "pca"): "8328129437f87ce0246265a068494e9ac5716e2abe52997c968e573471ddbfbf",
    ("chart", "csi"): "1da44bcabad8ef70003a1b094c618bf91a15265e156ddea08148933997c40040",
    ("sweep128", "pca"): "fcc44ab3a55f2882da1de8f47b8d862149eadee79c268999b2b84494923d914c",
    ("sweep128", "csi"): "83f5f341f87a1053f211a52987565c7cdf22330a818bc404ef08cf2255403eda",
}


# (image, method) -> cube_delta_e(original, decoded cube above): float.hex of
# the mean, p95 and max, and the sha256 of the float64 map
GOLDEN_DELTA_E = {
    ("skin", "pca"): ("0x1.6620a4aa2e4eap-2", "0x1.6e15c51d76727p-1", "0x1.90266604cb221p+0",
        "334366d1b9266cda5f2e82004fbca28eea39f079b530aed780a972bf77b403b8"),
    ("skin", "csi"): ("0x1.02c0044b704b8p-1", "0x1.fb93d2fa6917ap-1", "0x1.f713c2629a560p+0",
        "498197ab2b43a648f1b3e3fae3623ba25923721221995de50e6fec63dbc14034"),
    ("narrowband", "pca"): ("0x1.32472d887620fp-1", "0x1.24e0421c1d15ep+0", "0x1.350eb5d0c61dap+1",
        "ff91756c882512f7be270445819585b433c7e5b396d938ee8e303b674a42a137"),
    ("narrowband", "csi"): ("0x1.fe5807eb03a01p-1", "0x1.f3df8edc8b758p+0", "0x1.d0c107e5287e9p+1",
        "2bbe216fa36505fa6476dc5359f508a0dc50c6832db9761eed67652fca817a9a"),
    ("dark", "pca"): ("0x1.1ba6603ac98a6p-1", "0x1.3d3f865b67bafp+0", "0x1.220c0874d2c2ep+1",
        "34c298e4b9f76ba79407e578bacfcbcf2739bb414171ad8aa713fcc42b1a8db7"),
    ("dark", "csi"): ("0x1.707ce3f1b32dap-1", "0x1.815667fe4ab2ep+0", "0x1.864b7cd1cc105p+1",
        "beb4b0bd3c6515a3919f859b39e5ff393fb811da4a15bea1a5448b3b941a628d"),
    ("chart", "pca"): ("0x1.4b3a7727c73dbp-1", "0x1.7f6fce5d1852ap+0", "0x1.0b16c9645ec3dp+2",
        "be7c29313ff01685bac99fc58334db442f87a7ff80f5d67e2f361a463aaf449e"),
    ("chart", "csi"): ("0x1.cb2a71a90cd88p-1", "0x1.0764288d7cca4p+1", "0x1.5aa401a02db73p+2",
        "0e30d9a76fe2f11306f25d3c91fdb33e1e3090b2422a29aeb04ea1d7d3b3b4d5"),
    ("sweep128", "pca"): ("0x1.10cb8be9b471cp-1", "0x1.2041803a4ea98p+0", "0x1.401fe42a42f87p+1",
        "2993eb89afdc5a7b419ffa00dec7b66fe63d933f4ddc309a00305cdb02959900"),
    ("sweep128", "csi"): ("0x1.730fb962ec4c2p-1", "0x1.874d2f16b82a0p+0", "0x1.048f13ce7b16cp+2",
        "0ef17554d4599bd937756c2d16a7b8f5d6098e53870c94a6c9f117dd417a5739"),
}


# cubes whose scoring takes the paths the corpus above does not: "synth61" is
# synthesize_cube(96, 96, 61, "random-smooth", seed=61), 61 bands on the
# default 5 nm grid, so its spectra are resampled onto the observer grid;
# "sweep100x90" is make_sweep_cube(100, 90), whose 9000 pixels are not a
# whole number of scoring chunks
GOLDEN_DELTA_E_BUILDERS = {
    ("synth61", "pca"): lambda: synthesize_cube(96, 96, 61, "random-smooth", seed=61),
    ("sweep100x90", "csi"): lambda: make_sweep_cube(100, 90),
}

# (image, method) -> sha256 of the float32 samples of the cube decompressed
# at p = 20, quality 90, then cube_delta_e(original, decoded) as in
# GOLDEN_DELTA_E; recorded while each score still rendered the whole frame
# pixel-major
GOLDEN_DELTA_E_MAPS = {
    ("synth61", "pca"): ("8da9b2d0e42f441a1df912222b2b1ebab8a5dcc176a363fd26466f99429d3eea",
        "0x1.fdc47094c2a64p-5", "0x1.1a4b8533b5200p-3", "0x1.557ace079f612p-2",
        "1ee15526666345aa209728f55c70a72007968492e0483c874c87a53e041fbd0c"),
    ("sweep100x90", "csi"): ("d40a1912102c59a1fa22069a3b063233b0170d30e2533ef0f1936d9639353c09",
        "0x1.74dfc2c228ce4p-1", "0x1.86f59c8efcabbp+0", "0x1.9ee21472fa0f5p+1",
        "869bd390feb0fee5bfe905c1787304764b4a34d473c7b9013a16995e232fbac9"),
}


def _branch_cubes(width, height, bands, seed):
    """Two cubes whose pixels are, at random, black, flat gray, uniform-random
    spectra, or dark ones (0.004 times uniform-random) on Lab's linear branch."""
    rng = np.random.default_rng(seed)

    def one():
        samples = rng.uniform(0.0, 1.0, (bands, height * width))
        kind = rng.integers(0, 4, height * width)
        samples[:, kind == 0] = 0.0
        samples[:, kind == 1] = samples[0, kind == 1]
        samples[:, kind == 3] *= 0.004
        return SpectralCube(width, height, bands, default_wavelengths(bands),
                            samples.reshape(bands, height, width))

    return one(), one()


# (width, height, bands, seed) of _branch_cubes pairs scored against each other,
# so every CIEDE2000 branch is taken by thousands of pixels: zero-chroma pairs,
# hue differences across the +-180 degree wrap both ways, wrapped pairs whose
# hue sum is below and at or above 360, and Lab's linear branch.  "grid61" and
# "grid400" resample onto the observer grid, and "frame1x8193" is one
# column, one chunk of 8193 pixels
GOLDEN_DELTA_E_BRANCH_CASES = {
    "grid31": (128, 96, 31, 1901),
    "grid61": (48, 40, 61, 1902),
    "grid400": (40, 24, 400, 1903),
    "frame1x8193": (1, 8193, 31, 1904),
}

# case -> sha256 of the cube_delta_e map, recorded while Lab and CIEDE2000
# still took one temporary per step and nested np.where for the hue branches,
# and rendering still cast every band to float64
GOLDEN_DELTA_E_BRANCH_MAPS = {
    "grid31": "60d4b06a9d2848e4a1e2bab780b94a12f8929e63e389557746544906b434cef1",
    "grid61": "e0a4dc8620eeb924c089eff1c3b450a14e98daaadf076d0f8c73a3df1dd52027",
    "grid400": "9a33570d7542f3de451f35bf6f117094e15d7eadeef502b7ec230a07181c07ad",
    "frame1x8193": "11b07a23640ea4612d01f9d2c76b74f9b1e5552e23e0e60ae60f24252fa481ea",
}


@pytest.mark.parametrize("image", BUILTIN_CORPUS)
def test_rate_controlled_streams_are_pinned(image):
    cube = _BUILTIN_BUILDERS[image]()
    for method in ("pca", "csi"):
        for p in (20, 24, 28):
            stream, report = compress_with_report(cube, method, p, rate=RateTarget(8.0))
            digest = hashlib.sha256(serialize_stream(stream)).hexdigest()
            assert (digest, report.quality, report.encodes) == GOLDEN_STREAMS[image, method, p]
            decoded = decode_planes(stream.planes, stream.width, stream.height, stream.quality)
            assert hashlib.sha256(decoded.tobytes()).hexdigest() == GOLDEN_DECODED[image, method, p]


@pytest.mark.parametrize("image,method,p,rate", list(GOLDEN_FALLBACK_STREAMS))
def test_out_of_window_streams_are_pinned(image, method, p, rate):
    if image == "fallback64":
        cube = synthesize_cube(64, 64, 31, "random-smooth", seed=12)
    else:
        cube = _BUILTIN_BUILDERS[image]()
    stream, report = compress_with_report(cube, method, p, rate=rate)
    assert not report.in_window
    digest = hashlib.sha256(serialize_stream(stream)).hexdigest()
    assert (digest, report.quality, report.encodes) == GOLDEN_FALLBACK_STREAMS[image, method, p, rate]


def test_entropy_payloads_are_pinned_at_every_quality():
    # each plane alone as a one-plane stack, and all 20 at once through the
    # stacked coder compress runs; every plane's counted bytes match its payload
    cube = make_sweep_cube(64, 64)
    methods = ("pca", "csi")
    planes = [SPECTRAL_METHODS[method].reduce(cube, 20)[0] for method in methods]
    stacks = [PlaneStack.of(reduced) for reduced in planes]
    singles = [[PlaneStack.of(plane[None]) for plane in reduced] for reduced in planes]
    for quality, expected in GOLDEN_PAYLOADS.items():
        payloads = hashlib.sha256()
        stacked = hashlib.sha256()
        decoded = hashlib.sha256()
        for single, stack, method in zip(singles, stacks, methods):
            encoded = [encode_planes(one, quality)[0] for one in single]
            for plane in encoded:
                payloads.update(plane.payload)
            decoded.update(decode_planes(encoded, 64, 64, quality).tobytes())
            emitted = compress_with_report(cube, method, 20, quality=quality)[0].planes
            for plane in emitted:
                stacked.update(plane.payload)
            counted = stack.probe(quality).nbytes.tolist()
            assert counted == [len(plane.payload) for plane in emitted], f"quality {quality}"
        assert payloads.hexdigest()[:16] == expected, f"quality {quality}"
        assert stacked.hexdigest()[:16] == expected, f"quality {quality}"
        assert decoded.hexdigest()[:16] == GOLDEN_DECODED_PLANES[quality], f"quality {quality}"


@pytest.mark.parametrize("image,method", list(GOLDEN_CUBES))
def test_decoded_cubes_are_pinned(image, method):
    cube = make_sweep_cube(128, 128) if image == "sweep128" else _BUILTIN_BUILDERS[image]()
    blob = serialize_stream(compress(cube, method, 20, quality=90))
    decoded = decompress(parse_stream(blob))
    assert hashlib.sha256(decoded.samples.tobytes()).hexdigest() == GOLDEN_CUBES[image, method]
    stats = cube_delta_e(cube, decoded)
    assert (stats.mean.hex(), stats.p95.hex(), stats.max.hex(),
            hashlib.sha256(stats.map.tobytes()).hexdigest()) == GOLDEN_DELTA_E[image, method]


@pytest.mark.parametrize("image,method", list(GOLDEN_DELTA_E_MAPS))
def test_delta_e_maps_are_pinned(image, method):
    cube = GOLDEN_DELTA_E_BUILDERS[image, method]()
    decoded = decompress(parse_stream(serialize_stream(compress(cube, method, 20, quality=90))))
    stats = cube_delta_e(cube, decoded)
    assert (hashlib.sha256(decoded.samples.tobytes()).hexdigest(), stats.mean.hex(),
            stats.p95.hex(), stats.max.hex(),
            hashlib.sha256(stats.map.tobytes()).hexdigest()) == GOLDEN_DELTA_E_MAPS[image, method]


@pytest.mark.parametrize("case", list(GOLDEN_DELTA_E_BRANCH_CASES))
def test_delta_e_branch_maps_are_pinned(case):
    a, b = _branch_cubes(*GOLDEN_DELTA_E_BRANCH_CASES[case])
    stats = cube_delta_e(a, b)
    assert hashlib.sha256(stats.map.tobytes()).hexdigest() == GOLDEN_DELTA_E_BRANCH_MAPS[case]


@pytest.mark.parametrize("case", list(GOLDEN_DELTA_E_BRANCH_CASES))
def test_delta_e_branch_cases_take_every_branch(case):
    # hues from Lab's a and b: a' scales a by 1 + G > 0, so it keeps the quadrant
    labs = [xyz_array_to_lab(spectra_to_xyz(c.pixel_matrix().T, c.wavelengths))
            for c in _branch_cubes(*GOLDEN_DELTA_E_BRANCH_CASES[case])]
    hue = [np.degrees(np.arctan2(lab[2], lab[1])) % 360.0 for lab in labs]
    gray = np.hypot(labs[0][1], labs[0][2]) * np.hypot(labs[1][1], labs[1][2]) == 0.0
    diff, total = hue[1] - hue[0], hue[0] + hue[1]
    wrapped = (np.abs(diff) > 180.0) & ~gray
    for taken in (gray, diff > 180.0, diff < -180.0, wrapped & (total < 360.0),
                  wrapped & (total >= 360.0), labs[0][0] < 8.0, labs[1][0] < 8.0):
        assert taken.sum() >= 50
