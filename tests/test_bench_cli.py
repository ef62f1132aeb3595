"""Benchmark harness and CLI tests."""

import dataclasses
import hashlib
import math
import os
import signal
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cubecodec import bench, cli, colorimetry, spatial
from cubecodec.bench import (
    BenchConfig,
    CSV_COLUMNS,
    EvalReport,
    default_config,
    emit_csv,
    emit_table,
    load_config,
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
from cubecodec.colorimetry import cube_delta_e
from cubecodec.container import (
    RateTarget,
    compress,
    compression_rate,
    decompress,
    parse_stream,
    serialize_stream,
)
from cubecodec.cube import read_cube, synthesize_cube, write_cube
from cubecodec.errors import ArgumentError, CodecError, SizeLimitError, ValidationError

from conftest import flip_bit, forged_scmp

_TINY = "synth:gaussian-spectra:16x16x31:3"
_CONFIGS = Path(__file__).resolve().parents[1] / "configs"
_SRC = Path(__file__).resolve().parents[1] / "src"


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


@pytest.mark.parametrize("make,digest", [
    (lambda: make_sweep_cube(256, 256),
     "1af12f669db0ee1ad83e3c73483e8a502f238e6eb023f6471c88c27b94919a13"),
    (lambda: make_sweep_cube(128, 128),
     "6c6aae630365588103301fce86b46bae6d988474b073b85933d7fb289a3ce08d"),
    (lambda: make_sweep_cube(37, 53),
     "d68b4c33671ec5bd32f7b7c909b2cac8988c57f1378bfb3f992108232f4aaa30"),
    (lambda: synthesize_cube(256, 256, 31, "random-smooth", seed=2105),
     "5a65960c61ab6224a861905be3a8a853115d3bd54592ddfda11e0d09ffe5e146"),
], ids=["sweep256", "sweep128", "sweep37x53", "random-smooth256"])
def test_synthetic_cube_bytes_are_pinned(make, digest):
    # measured when the makers still built the whole cube in float64
    assert hashlib.sha256(write_cube(make())).hexdigest() == digest


def test_sweep256_maker_peak_memory():
    # the base cube and the result (7.8 MiB each, float32) and a chunk of
    # bands' float64 temporaries: 21.2 MiB; the whole-cube float64 build took 55.5
    tracemalloc.start()
    try:
        make_sweep_cube(256, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 23.0 * 2 ** 20


def test_row_count_invariant():
    config = _tiny_config(p_values=[4, 6])
    reports = run_benchmark(config)
    assert len(reports) == 1 * 2 * 2  # corpus x methods x p-values


def test_successful_rows_have_populated_metrics():
    config = _tiny_config()
    reports = run_benchmark(config)
    [(_, cube, _)] = resolve_corpus(config)
    target = RateTarget(config.target_cr, config.tolerance)
    for r in reports:
        assert r.ok, r.error
        assert r.achieved_cr > 0
        assert r.t_spectral_ms >= 0 and r.t_spatial_ms >= 0
        assert r.t_spectral_ms + r.t_spatial_ms <= r.t_total_ms + 1e-6
        assert math.isfinite(r.de_mean) and r.de_mean >= 0
        assert r.de_mean <= r.de_p95 + 1e-12 or r.de_p95 <= r.de_max
        # the row scores what the public compress/decompress produce
        stream = compress(cube, r.method, r.p, rate=target)
        stats = cube_delta_e(cube, decompress(parse_stream(serialize_stream(stream))))
        assert (r.de_mean, r.de_p95, r.de_max) == (stats.mean, stats.p95, stats.max)
        assert r.achieved_cr == compression_rate(cube, len(serialize_stream(stream)))


def test_rows_serialize_only_the_timed_round_trips(monkeypatch):
    # the achieved CR comes from the rate report, not from serializing to learn a length
    calls = []
    monkeypatch.setattr(bench, "serialize_stream",
                        lambda stream: calls.append(stream) or serialize_stream(stream))
    config = _tiny_config(methods=["csi"])
    [report] = run_benchmark(config)
    assert report.ok, report.error
    assert len(calls) == config.repetitions


def test_rate_report_outside_its_window_marks_row_failed(monkeypatch):
    # an in-window claim that the achieved CR contradicts is a codec failure of
    # the row, also under python -O, and not an AssertionError out of the bench
    real = bench.compress_with_report

    def misreporting(cube, method, p, rate=None, quality=None):
        stream, report = real(cube, method, p, rate=rate, quality=quality)
        if rate is not None:
            report = dataclasses.replace(report, achieved_cr=2 * rate.target_cr, in_window=True)
        return stream, report

    monkeypatch.setattr(bench, "compress_with_report", misreporting)
    [report] = run_benchmark(_tiny_config(methods=["pca"]))
    assert not report.ok
    assert report.error.startswith("RateError:") and "window" in report.error


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


@pytest.mark.parametrize("changes,message", [
    ({"corpus": [], "size_sweep": []}, "a non-empty corpus or a size sweep"),
    ({"methods": []}, "at least one method"),
    ({"p_values": []}, "at least one p value"),
], ids=["no-cubes", "no-methods", "no-p-values"])
def test_config_needs_cubes_methods_and_p_values(changes, message):
    with pytest.raises(ValidationError, match=message):
        _tiny_config(**changes)


def test_malformed_synth_entry_flags_its_row():
    reports = run_benchmark(_tiny_config(corpus=["synth:flat:8x8:0"], methods=["csi"]))
    assert len(reports) == 1
    assert reports[0].error.startswith("ArgumentError: bad synth spec 'synth:flat:8x8:0'")


def test_size_sweep_entries_extend_corpus():
    config = BenchConfig(corpus=[], methods=["csi"], p_values=[4],
                         repetitions=3, size_sweep=[(8, 8), (16, 16)])
    entries = resolve_corpus(config)
    assert [name for name, _, _ in entries] == ["sweep_8x8", "sweep_16x16"]
    reports = run_benchmark(config)
    assert len(reports) == 2


def test_bad_size_sweep_entries_flag_their_rows():
    config = _tiny_config(methods=["pca", "csi"],
                          size_sweep=[(1_000_000, 1_000_000), (0, 8)])
    reports = run_benchmark(config)
    assert len(reports) == 3 * 2 * 1  # corpus + sweep entries x methods x p-values
    assert [r.image for r in reports[2:]] == ["sweep_1000000x1000000"] * 2 + ["sweep_0x8"] * 2
    assert all(r.ok for r in reports[:2])
    assert all(r.error.startswith("SizeLimitError: ") for r in reports[2:4])
    assert all(r.error.startswith("ArgumentError: ") for r in reports[4:])


def test_a_row_keeps_one_reconstruction_alive(monkeypatch):
    # each repetition drops the previous round trip before it decodes the next one
    decoded = []

    def decompress(stream):
        assert all(ref() is None for ref in decoded), "an earlier reconstruction is alive"
        recon, report = real(stream)
        decoded.append(weakref.ref(recon))
        return recon, report

    real = bench.decompress_with_report
    monkeypatch.setattr(bench, "decompress_with_report", decompress)
    [row] = run_benchmark(_tiny_config(methods=["csi"]))
    assert row.ok and len(decoded) == 3


def test_corpus_entries_load_as_the_rows_reach_them(monkeypatch):
    # the second cube is built after the first cube's rows ran, not before them
    calls = []

    def recording(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(bench, "_load_corpus_entry",
                        recording("load", bench._load_corpus_entry))
    monkeypatch.setattr(bench, "compress_with_report",
                        recording("compress", bench.compress_with_report))
    reports = run_benchmark(_tiny_config(corpus=[_TINY, "synth:flat:8x8x31:0"], methods=["csi"]))
    assert [r.ok for r in reports] == [True, True]
    loads = [i for i, name in enumerate(calls) if name == "load"]
    assert len(loads) == 2 and "compress" in calls[loads[0]:loads[1]]


def test_a_row_is_frozen():
    row = _sample_reports()[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.de_mean = 0.0
    assert row.de_mean == 0.1234567


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
    assert config.corpus == ("skin", "narrowband")
    assert config.methods == ("pca", "csi")
    assert config.p_values == (8, 12)
    assert config.target_cr == 8.0
    assert config.size_sweep == ((32, 32), (64, 64))


def test_parse_config_errors():
    with pytest.raises(ValidationError):
        parse_config("corpus skin")
    with pytest.raises(ValidationError):
        parse_config("corpus = skin\np_values = a, b")
    with pytest.raises(ValidationError):
        parse_config("corpus = skin\nrepetitions = 1")
    with pytest.raises(ValidationError):
        parse_config("corpus = skin\nmethods = jpeg2000")
    # a misspelled key is named with its line, not silently dropped
    with pytest.raises(ValidationError, match="line 2: unknown key 'target-cr'"):
        parse_config("corpus = skin\ntarget-cr = 4")
    with pytest.raises(ValidationError, match="line 3: unknown key 'method'"):
        parse_config("# csi only\ncorpus = skin\nmethod = csi")
    # a repeated key is an error too, not a silent last-one-wins
    with pytest.raises(ValidationError, match="line 2: repeated key 'corpus'"):
        parse_config("corpus = skin\ncorpus = dark\n")
    # a known key with no "=" is refused, not read as an empty value
    with pytest.raises(ValidationError, match="line 2: expected key = value"):
        parse_config("corpus = skin\nsize_sweep\n")


def test_default_config_uses_builtin_corpus():
    config = default_config()
    assert config.corpus == ("skin", "narrowband", "dark", "chart")
    assert config.target_cr == 8.0
    names = [n for n, _, _ in resolve_corpus(config)]
    assert tuple(names) == config.corpus


@pytest.mark.parametrize("field,value", [
    ("target_cr", math.nan), ("target_cr", 1.0), ("target_cr", "8"),
    ("tolerance", 0), ("tolerance", 1), ("tolerance", 3),
])
def test_config_checks_the_rate_window_at_construction(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be a real number"):
        BenchConfig(corpus=["skin"], **{field: value})


@pytest.mark.parametrize("line", ["target_cr = nan", "tolerance = 3"])
def test_parse_config_refuses_a_rate_window_it_cannot_run(line):
    with pytest.raises(ValidationError, match=f"^{line.split()[0]} "):
        parse_config(f"corpus = skin\n{line}\n")


def test_config_list_fields_are_tuples():
    # a tuple never equals a list, so each comparison checks the type too
    config = BenchConfig(corpus=["skin"], methods=["csi"], p_values=[4], size_sweep=[[8, 8]])
    assert (config.corpus, config.methods, config.p_values, config.size_sweep) == (
        ("skin",), ("csi",), (4,), ((8, 8),))
    config = default_config()
    assert (config.methods, config.p_values, config.size_sweep) == (("pca", "csi"), (20, 24, 28), ())


def test_a_config_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"corpus = skin\xff\n")
    with pytest.raises(ValidationError, match="not UTF-8 text"):
        load_config(cfg)
    assert cli_main(["bench", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "not UTF-8 text" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_shipped_configs():
    assert load_config(_CONFIGS / "bench-default.cfg") == default_config()
    # the processing-time sweep of acceptance criterion 3
    assert load_config(_CONFIGS / "size-sweep.cfg") == BenchConfig(
        corpus=[], methods=["pca", "csi"], p_values=[20],
        target_cr=8.0, repetitions=5,
        size_sweep=[(32, 32), (64, 64), (128, 128), (256, 256)],
    )


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


@pytest.mark.parametrize("bands,method,rate_args,scmp_sha256,evaluate_out", [
    (31, "pca", ["--target-cr", "8"],
     "37c2b877bc55583fa8b85074e02b5be9fbb3b389e97642b7f2e4cf4d327e5e81",
     "de_mean=0.0580209\nde_p95=0.118321\nde_max=0.170009\n"),
    # 61 bands on the default 5 nm grid: scoring resamples onto the observer grid
    (61, "csi", ["--quality", "90"],
     "2aa45f5472759583aa048fa8c64c0ce6cf381a81df686b224e19cbdce990c18c",
     "de_mean=1.65897\nde_p95=3.82573\nde_max=5.93047\n"),
])
def test_cli_stream_and_evaluate_output_are_pinned(tmp_path, capsys, bands, method, rate_args,
                                                   scmp_sha256, evaluate_out):
    # the synth -> compress -> decompress -> evaluate runs of CI's packaging
    # step; CI checks the same SCMP bytes and evaluate output (sha256 bc3c5eb8...
    # and 8905db2f...) with the installed CLI
    cube_path, stream_path, recon_path = (tmp_path / name for name in
                                          ("cube.scub", "cube.scmp", "recon.scub"))
    assert cli_main(["synth", "--out", str(cube_path), "--width", "16", "--height", "16",
                     "--bands", str(bands), "--pattern", "random-smooth", "--seed", "7"]) == 0
    assert cli_main(["compress", "--in", str(cube_path), "--out", str(stream_path),
                     "--method", method, "--p", "8", *rate_args]) == 0
    assert cli_main(["decompress", "--in", str(stream_path), "--out", str(recon_path)]) == 0
    assert hashlib.sha256(stream_path.read_bytes()).hexdigest() == scmp_sha256
    capsys.readouterr()
    assert cli_main(["evaluate", "--original", str(cube_path),
                     "--reconstructed", str(recon_path)]) == 0
    assert capsys.readouterr().out == evaluate_out


def test_cli_quality_override(tmp_path):
    cube_path = tmp_path / "cube.scub"
    cube_path.write_bytes(write_cube(synthesize_cube(16, 16, 8, "ramp", 0)))
    out_path = tmp_path / "out.scmp"
    assert cli_main(["compress", "--in", str(cube_path), "--out", str(out_path),
                     "--method", "csi", "--p", "4", "--quality", "90"]) == 0
    assert out_path.exists()


def test_cli_quality_ignores_the_rate_flags(tmp_path):
    # a rate target that RateTarget refuses is never built for a fixed quality
    cube_path = tmp_path / "cube.scub"
    cube_path.write_bytes(write_cube(synthesize_cube(16, 16, 8, "ramp", 0)))
    fixed, flagged = tmp_path / "fixed.scmp", tmp_path / "flagged.scmp"
    args = ["compress", "--in", str(cube_path), "--method", "pca", "--p", "4", "--quality", "50"]
    assert cli_main([*args, "--out", str(fixed)]) == 0
    assert cli_main([*args, "--out", str(flagged), "--tolerance", "5", "--target-cr", "0.5"]) == 0
    assert flagged.read_bytes() == fixed.read_bytes()


def test_cli_usage_errors():
    assert cli_main(["no-such-command"]) == 1
    assert cli_main([]) == 1
    assert cli_main(["compress", "--in", "x"]) == 1  # missing required args
    assert cli_main(["compress", "--in", "x", "--out", "y", "--method", "dwt",
                     "--p", "4"]) == 1  # not a spectral method
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


def test_cli_compress_rejects_more_bands_than_scmp_holds(tmp_path, capsys):
    cube_path = tmp_path / "wide.scub"
    cube_path.write_bytes(write_cube(synthesize_cube(1, 2, 65536, "flat", 0)))
    out_path = tmp_path / "wide.scmp"
    assert cli_main(["compress", "--in", str(cube_path), "--out", str(out_path),
                     "--method", "csi", "--p", "2", "--quality", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["compress", "evaluate"])
def test_cli_out_of_memory_is_a_data_error(tmp_path, capsys, monkeypatch, command):
    def exhausted(*args):
        raise MemoryError

    cube_path = tmp_path / "cube.scub"
    cube_path.write_bytes(write_cube(synthesize_cube(8, 8, 31, "ramp", 0)))
    if command == "compress":
        monkeypatch.setattr(spatial.PlaneStack, "of", exhausted)
        argv = ["compress", "--in", str(cube_path), "--out", str(tmp_path / "x.scmp"),
                "--method", "pca", "--p", "4", "--quality", "50"]
    else:
        monkeypatch.setattr(colorimetry, "spectra_to_xyz", exhausted)
        argv = ["evaluate", "--original", str(cube_path), "--reconstructed", str(cube_path)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "out of memory" in err


_COMMAND_ARGS = {
    "compress": ["--in", "c.scub", "--out", "c.scmp", "--method", "pca", "--p", "4"],
    "decompress": ["--in", "c.scmp", "--out", "c.scub"],
    "evaluate": ["--original", "a.scub", "--reconstructed", "b.scub"],
    "bench": [],
    "synth": ["--out", "c.scub", "--width", "4", "--height", "4", "--bands", "31",
              "--pattern", "ramp"],
    "dump-constants": [],
}


@pytest.mark.parametrize("raised,code,message", [
    (KeyboardInterrupt, 130, "interrupted\n"),
    (MemoryError, 2, "error: out of memory running {}\n"),
], ids=["interrupt", "out-of-memory"])
@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_cli_interrupt_and_out_of_memory_show_no_traceback(monkeypatch, capsys, command, raised,
                                                         code, message):
    def run(args):
        raise raised

    monkeypatch.setattr(cli, f"_cmd_{command.replace('-', '_')}", run)
    assert cli_main([command, *_COMMAND_ARGS[command]]) == code
    captured = capsys.readouterr()
    assert captured.err == message.format(command)
    assert captured.out == ""


def test_cli_out_of_memory_reading_a_file_is_a_data_error(tmp_path, capsys, monkeypatch):
    def exhausted(path):
        raise MemoryError

    cube_path = tmp_path / "cube.scub"
    cube_path.write_bytes(write_cube(synthesize_cube(8, 8, 31, "ramp", 0)))
    monkeypatch.setattr(Path, "read_bytes", exhausted)
    assert cli_main(["compress", "--in", str(cube_path), "--out", str(tmp_path / "x.scmp"),
                     "--method", "pca", "--p", "4", "--quality", "50"]) == 2
    assert capsys.readouterr().err == "error: out of memory running compress\n"


def test_cli_bench_stops_on_sigint_without_a_traceback(tmp_path):
    # a bench of several seconds, interrupted once it runs: the process ends
    # with the shell's code for SIGINT and one line on stderr
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("corpus = skin\nmethods = pca\np_values = 20\nrepetitions = 500\n")
    script = ("import sys; from cubecodec import cli; "
              "print('ready', file=sys.stderr, flush=True); cli.main()")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(_SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-c", script, "bench", "--config", str(cfg)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        assert proc.stderr.readline() == "ready\n"
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert "Traceback" not in err
    assert proc.returncode == 130
    assert err == "interrupted\n"
    assert out == ""


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


def test_cli_decompress_rejects_a_decompression_bomb(tmp_path, capsys):
    # ~290 KB that passes every structural check but claims 65535 x 1024 x 1024
    path = tmp_path / "bomb.scmp"
    path.write_bytes(forged_scmp(65535, 1024, 1024))
    out_path = tmp_path / "x.scub"
    assert cli_main(["decompress", "--in", str(path), "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MAX_CUBE_SAMPLES" in err
    assert not out_path.exists()


def test_cli_synth_refuses_an_impossible_size(tmp_path, capsys):
    # 10^6 x 10^6 x 31 float64 samples would be 7.3 TiB
    out_path = tmp_path / "huge.scub"
    tracemalloc.start()
    try:
        code = cli_main(["synth", "--out", str(out_path), "--width", "1000000",
                         "--height", "1000000", "--bands", "31", "--pattern", "random-smooth"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2 ** 20
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MAX_CUBE_SAMPLES" in err
    assert not out_path.exists()


def test_size_sweep_refuses_an_impossible_size():
    with pytest.raises(SizeLimitError):
        make_sweep_cube(1_000_000, 1_000_000)


_VALID_STREAMS = {
    method: serialize_stream(compress(synthesize_cube(16, 8, 6, "random-smooth", 7),
                                      method, 3, quality=60))
    for method in ("pca", "csi")
}


@given(st.sampled_from(sorted(_VALID_STREAMS)), st.booleans(), st.data())
def test_cli_decompress_exits_2_on_damaged_streams(method, truncate, data):
    blob = _VALID_STREAMS[method]
    if truncate:
        damaged = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        damaged = flip_bit(blob, data.draw(st.integers(0, 8 * len(blob) - 1)))
    try:
        decompress(parse_stream(damaged))
        expected = 0
    except CodecError:
        expected = 2
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.scmp"
        path.write_bytes(damaged)
        assert cli_main(["decompress", "--in", str(path), "--out", str(Path(tmp) / "x")]) == expected


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


def test_cli_bench_without_a_config_runs_the_default_config(monkeypatch, capsys):
    monkeypatch.setattr(bench, "default_config", lambda: _tiny_config(methods=["csi"]))
    assert cli_main(["bench", "--table"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 and lines[1].startswith(f"{_TINY},csi,6,")
    table = captured.err.strip().split("\n")
    assert table[0].split() == list(CSV_COLUMNS) + ["status"]
    assert len(table) == 2 and table[1].endswith("ok")


def test_cli_bench_rejects_a_misspelled_config_key(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"corpus = {_TINY}\ntarget-cr = 4\n")
    assert cli_main(["bench", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "target-cr" in captured.err
    assert captured.out == ""


def test_cli_bench_rejects_a_repeated_config_key(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"corpus = {_TINY}\nmethods = csi\nmethods = pca\n")
    assert cli_main(["bench", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "line 3: repeated key 'methods'" in captured.err
    assert captured.out == ""


def test_cli_dump_constants(capsys):
    assert cli_main(["dump-constants"]) == 0
    out = capsys.readouterr().out
    assert "wavelength_nm" in out
    assert "zigzag" in out
    # the compiled-in tables, byte for byte
    assert len(out.splitlines()) == 50
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9494a4cd1b5c7169c9a91d23e5953814bf384e6f914e18846fd9d75cec08ab82")


def test_cli_roundtrip_preserves_cube(tmp_path):
    cube = synthesize_cube(8, 8, 8, "gaussian-spectra", 9)
    src = tmp_path / "c.scub"
    src.write_bytes(write_cube(cube))
    assert read_cube(src.read_bytes()) == cube
