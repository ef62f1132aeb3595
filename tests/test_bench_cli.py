"""Benchmark harness and CLI tests."""

import math
import struct

import pytest

from cubecodec.bench import (
    BenchConfig,
    CSV_COLUMNS,
    EvalReport,
    default_config,
    emit_csv,
    emit_table,
    make_chart_cube,
    make_dark_cube,
    make_narrowband_cube,
    make_skin_cube,
    make_sweep_cube,
    parse_config,
    resolve_corpus,
    run_benchmark,
)
from cubecodec.cli import cli_main
from cubecodec.container import compress, serialize_stream
from cubecodec.cube import read_cube, synthesize_cube, write_cube
from cubecodec.errors import ArgumentError, ValidationError

_TINY = "synth:gaussian-spectra:16x16x31:3"


def _tiny_config(**overrides):
    base = dict(corpus=[_TINY], methods=["pca", "csi"], p_values=[6],
                target_cr=8.0, repetitions=3)
    base.update(overrides)
    return BenchConfig(**base)


def test_corpus_builders_are_deterministic():
    for builder in (make_skin_cube, make_narrowband_cube, make_dark_cube,
                    make_chart_cube):
        assert builder() == builder()
    assert make_sweep_cube(16, 16) == make_sweep_cube(16, 16)


def test_row_count_invariant():
    config = _tiny_config(p_values=[4, 6])
    reports = run_benchmark(config)
    assert len(reports) == 1 * 2 * 2  # corpus x methods x p-values


def test_successful_rows_have_populated_metrics():
    reports = run_benchmark(_tiny_config())
    for r in reports:
        assert r.ok, r.error
        assert r.achieved_cr > 0
        assert r.t_spectral_ms >= 0 and r.t_spatial_ms >= 0
        assert r.t_spectral_ms + r.t_spatial_ms <= r.t_total_ms + 1e-6
        assert math.isfinite(r.de_mean) and r.de_mean >= 0
        assert r.de_mean <= r.de_p95 + 1e-12 or r.de_p95 <= r.de_max


def test_unreadable_image_flags_rows_and_continues():
    config = _tiny_config(corpus=["/nonexistent/file.scub", _TINY])
    reports = run_benchmark(config)
    assert len(reports) == 4
    bad = [r for r in reports if r.image.startswith("/nonexistent")]
    assert len(bad) == 2 and all(not r.ok for r in bad)
    assert all(math.isnan(r.achieved_cr) for r in bad)
    good = [r for r in reports if r.image == _TINY]
    assert all(r.ok for r in good)


def test_rate_error_marks_row_failed():
    config = _tiny_config(target_cr=1000.0, methods=["pca"])
    reports = run_benchmark(config)
    assert len(reports) == 1
    assert not reports[0].ok
    assert "RateError" in reports[0].error


def test_size_sweep_entries_extend_corpus():
    config = BenchConfig(corpus=[], methods=["csi"], p_values=[4],
                         repetitions=3, size_sweep=[(8, 8), (16, 16)])
    entries = resolve_corpus(config)
    assert [name for name, _, _ in entries] == ["sweep_8x8", "sweep_16x16"]
    reports = run_benchmark(config)
    assert len(reports) == 2


# ---------------------------------------------------------------------------
# emission

def _sample_reports():
    return [EvalReport(image="a", method="pca", p=8, target_cr=8.0,
                       achieved_cr=8.0123456, t_spectral_ms=1.25,
                       t_spatial_ms=10.5, t_total_ms=12.0,
                       de_mean=0.1234567, de_p95=0.5, de_max=0.9)]


def test_emit_csv_schema_and_roundtrip():
    csv = emit_csv(_sample_reports()).decode()
    lines = csv.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == ",".join(CSV_COLUMNS)
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_COLUMNS)
    # numeric fields reparse to 6 significant digits
    report = _sample_reports()[0]
    for name, field in zip(CSV_COLUMNS, fields):
        value = getattr(report, name)
        if isinstance(value, float):
            assert f"{float(field):.6g}" == f"{value:.6g}"
        assert "," not in field  # locale-independent decimal point


def test_emit_csv_flags_failed_rows():
    rows = _sample_reports() + [EvalReport(image="b", method="csi", p=4,
                                           target_cr=8.0, error="RateError: x")]
    lines = emit_csv(rows).decode().strip().split("\n")
    assert len(lines) == 3
    assert "nan" in lines[2]


def test_emit_rejects_empty():
    with pytest.raises(ArgumentError):
        emit_csv([])
    with pytest.raises(ArgumentError):
        emit_table([])


def test_emit_table_contains_header_and_status():
    table = emit_table(_sample_reports())
    assert "image" in table and "status" in table and "ok" in table


# ---------------------------------------------------------------------------
# config parsing

def test_parse_full_config():
    text = """
    # benchmark configuration
    corpus = skin, narrowband          # builtin stand-ins
    methods = pca, csi
    p_values = 8, 12
    target_cr = 8
    tolerance = 0.05
    repetitions = 5
    size_sweep = 32x32, 64x64
    """
    config = parse_config(text)
    assert config.corpus == ["skin", "narrowband"]
    assert config.methods == ["pca", "csi"]
    assert config.p_values == [8, 12]
    assert config.target_cr == 8.0
    assert config.size_sweep == [(32, 32), (64, 64)]


def test_parse_config_errors():
    with pytest.raises(ValidationError):
        parse_config("corpus skin")
    with pytest.raises(ValidationError):
        parse_config("corpus = skin\np_values = a, b")
    with pytest.raises(ValidationError):
        parse_config("corpus = skin\nrepetitions = 1")
    with pytest.raises(ValidationError):
        parse_config("corpus = skin\nmethods = jpeg2000")


def test_default_config_uses_builtin_corpus():
    config = default_config()
    assert config.corpus == ["skin", "narrowband", "dark", "chart"]
    assert config.target_cr == 8.0
    names = [n for n, _, _ in resolve_corpus(config)]
    assert names == config.corpus


# ---------------------------------------------------------------------------
# CLI

def test_cli_synth_compress_decompress_evaluate(tmp_path, capsys):
    cube_path = tmp_path / "cube.scub"
    stream_path = tmp_path / "cube.scmp"
    recon_path = tmp_path / "recon.scub"
    assert cli_main(["synth", "--out", str(cube_path), "--width", "32",
                     "--height", "32", "--bands", "31",
                     "--pattern", "random-smooth", "--seed", "7"]) == 0
    assert cli_main(["compress", "--in", str(cube_path), "--out", str(stream_path),
                     "--method", "pca", "--p", "8", "--target-cr", "8"]) == 0
    assert cli_main(["decompress", "--in", str(stream_path),
                     "--out", str(recon_path)]) == 0
    assert cli_main(["evaluate", "--original", str(cube_path),
                     "--reconstructed", str(recon_path)]) == 0
    out = capsys.readouterr().out
    de_mean = float([ln for ln in out.splitlines()
                     if ln.startswith("de_mean=")][-1].split("=")[1])
    assert de_mean < 1.0


def test_cli_quality_override(tmp_path):
    cube_path = tmp_path / "cube.scub"
    write_cube(synthesize_cube(16, 16, 8, "ramp", 0))
    cube_path.write_bytes(write_cube(synthesize_cube(16, 16, 8, "ramp", 0)))
    out_path = tmp_path / "out.scmp"
    assert cli_main(["compress", "--in", str(cube_path), "--out", str(out_path),
                     "--method", "csi", "--p", "4", "--quality", "90"]) == 0
    assert out_path.exists()


def test_cli_usage_errors():
    assert cli_main(["no-such-command"]) == 1
    assert cli_main([]) == 1
    assert cli_main(["compress", "--in", "x"]) == 1  # missing required args
    assert cli_main(["synth", "--out", "x", "--width", "4", "--height", "4",
                     "--bands", "4", "--pattern", "perlin"]) == 1
    assert cli_main(["--help"]) == 0


def test_cli_data_errors(tmp_path, capsys):
    a = tmp_path / "a.scub"
    b = tmp_path / "b.scub"
    a.write_bytes(write_cube(synthesize_cube(4, 4, 31, "flat", 0)))
    b.write_bytes(write_cube(synthesize_cube(5, 4, 31, "flat", 0)))
    assert cli_main(["evaluate", "--original", str(a),
                     "--reconstructed", str(b)]) == 2
    assert cli_main(["decompress", "--in", str(a), "--out",
                     str(tmp_path / "x")]) == 2  # SCUB given where SCMP expected
    assert cli_main(["evaluate", "--original", str(tmp_path / "missing.scub"),
                     "--reconstructed", str(b)]) == 2


def test_cli_decompress_rejects_oversized_dimensions(tmp_path, capsys):
    # header and plane records claim 2**31 x 2**31: rejected before any allocation
    blob = bytearray(serialize_stream(compress(synthesize_cube(8, 8, 4, "ramp", 0),
                                               "csi", 2, quality=50)))
    big = 2 ** 31
    struct.pack_into("<II", blob, 10, big, big)
    record = 19 + 4 * 4 + 2 * 2
    for _ in range(2):
        struct.pack_into("<II", blob, record, big, big)
        record += 29 + struct.unpack_from("<I", blob, record + 25)[0]
    path = tmp_path / "forged.scmp"
    path.write_bytes(bytes(blob))
    assert cli_main(["decompress", "--in", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_rate_error(tmp_path):
    cube_path = tmp_path / "tiny.scub"
    cube_path.write_bytes(write_cube(synthesize_cube(4, 4, 4, "ramp", 0)))
    code = cli_main(["compress", "--in", str(cube_path), "--out",
                     str(tmp_path / "t.scmp"), "--method", "pca", "--p", "2",
                     "--target-cr", "500"])
    assert code == 3


def test_cli_bench_with_config(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"corpus = {_TINY}\nmethods = csi\np_values = 4\n"
                   "repetitions = 3\ntarget_cr = 8\n")
    out_csv = tmp_path / "out.csv"
    assert cli_main(["bench", "--config", str(cfg), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_cli_dump_constants(capsys):
    assert cli_main(["dump-constants"]) == 0
    out = capsys.readouterr().out
    assert "wavelength_nm" in out
    assert "zigzag" in out


def test_cli_roundtrip_preserves_cube(tmp_path):
    cube = synthesize_cube(8, 8, 8, "gaussian-spectra", 9)
    src = tmp_path / "c.scub"
    src.write_bytes(write_cube(cube))
    assert read_cube(src.read_bytes()) == cube
