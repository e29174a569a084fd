"""End-to-end runs of the command-line surface."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qimg import (
    BOOLEAN,
    Codebook,
    GridImage,
    IndexSet,
    Kernel,
    MorphConfig,
    ParseError,
    build_block_codebook,
    build_triangular_codebook,
    cli,
    closing,
    compress,
    dilate,
    erode,
    identity_kernel,
    load_kernel,
    opening,
    quantale,
    read_codebook,
    read_kernel,
    read_pgm,
    read_sel,
    reconstruct,
    write_codebook,
    write_kernel,
    write_pgm,
)
from qimg.cli import main

SAMPLE = Path(__file__).parent / "data" / "sample64.pgm"
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def grey_image(tmp_path):
    rng = np.random.default_rng(71)
    path = tmp_path / "in.pgm"
    write_pgm(path, GridImage(rng.uniform(0, 1, (16, 16))))
    return path


def test_gen_codebook_then_classify_prints_strong(tmp_path, capsys):
    cb_path = tmp_path / "cb.qk"
    assert main(["gen-codebook", "--builder", "triangular", "--size", "12x10",
                 "--codes", "4x3", "--quantale", "goedel", "--out", str(cb_path)]) == 0
    cb = read_codebook(cb_path)
    assert cb.builder == "triangular"
    capsys.readouterr()
    assert main(["classify", "--kernel", str(cb_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "strong"
    assert out[1].startswith("epsilon 0->")
    assert out[2] == "orthogonal false"


def test_gen_block_codebook_classifies_orthonormal(tmp_path, capsys):
    cb_path = tmp_path / "cb.qk"
    assert main(["gen-codebook", "--builder", "block", "--size", "8x8",
                 "--codes", "2x2", "--quantale", "product", "--out", str(cb_path)]) == 0
    capsys.readouterr()
    assert main(["classify", "--kernel", str(cb_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "orthonormal"
    assert out[2] == "orthogonal true"


def test_classify_of_a_general_kernel_prints_no_epsilon(tmp_path, capsys):
    path = tmp_path / "zero.qk"
    path.write_text("QKERNEL 1\ngoedel 2 2\n0 0\n0 0\n")
    assert main(["classify", "--kernel", str(path)]) == 0
    assert capsys.readouterr().out == "general\nepsilon none\northogonal true\n"


def test_compression_pipeline_reaches_a_fixed_file(tmp_path, grey_image):
    cb = tmp_path / "cb.qk"
    c1, r1, c2 = tmp_path / "c1.pgm", tmp_path / "r1.pgm", tmp_path / "c2.pgm"
    assert main(["gen-codebook", "--builder", "triangular", "--size", "16x16",
                 "--codes", "4x4", "--quantale", "goedel", "--out", str(cb)]) == 0
    assert main(["compress", "--codebook", str(cb), str(grey_image), str(c1)]) == 0
    assert main(["reconstruct", "--codebook", str(cb), str(c1), str(r1)]) == 0
    assert main(["compress", "--codebook", str(cb), str(r1), str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()


def test_cli_outputs_are_deterministic(tmp_path, grey_image):
    outs = []
    for name in ("x.pgm", "y.pgm"):
        out = tmp_path / name
        assert main(["dilate", "--se", "disk5", "--quantale", "lukasiewicz",
                     "--pad", "replicate", str(grey_image), str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_dilate_preset_on_blank_image(tmp_path):
    blank = tmp_path / "z.pgm"
    write_pgm(blank, GridImage(np.zeros((8, 8))))
    out = tmp_path / "d.pgm"
    assert main(["dilate", "--se", "cross3", "--quantale", "goedel", str(blank), str(out)]) == 0
    assert np.array_equal(read_pgm(out).pixels, np.zeros((8, 8)))


def test_erode_with_se_file(tmp_path, grey_image):
    sel = tmp_path / "se.qsel"
    sel.write_text("QSEL 1\n0 0 1.0\n0 1 0.5\n")
    out = tmp_path / "e.pgm"
    assert main(["erode", "--se", str(sel), "--quantale", "product",
                 "--pad", "one", str(grey_image), str(out)]) == 0
    assert read_pgm(out).shape == (16, 16)


@pytest.mark.parametrize("far", [10**20, 10**6])
def test_offsets_past_the_raster_read_only_padding(tmp_path, far):
    # on a 16x12 raster a shift past the edge reads what a shift to the edge reads
    image = tmp_path / "in.pgm"
    write_pgm(image, GridImage(np.random.default_rng(72).uniform(0, 1, (16, 12))))
    outputs = {}
    for dy, dx in ((far, far), (16, 12)):
        sel = tmp_path / f"{dy}.qsel"
        sel.write_text(f"QSEL 1\n0 0 1.0\n{dy} 1 0.5\n-2 {-dx} 0.75\n")
        for cmd in ("dilate", "erode"):
            for pad in ("zero", "one", "replicate"):
                out = tmp_path / f"{dy}-{cmd}-{pad}.pgm"
                assert main([cmd, "--se", str(sel), "--quantale", "product", "--pad", pad,
                             str(image), str(out)]) == 0
                outputs.setdefault((cmd, pad), []).append(out.read_bytes())
    for key, (past, edge) in outputs.items():
        assert past == edge, key


def test_open_close_commands(tmp_path, grey_image):
    for cmd in ("open", "close"):
        out = tmp_path / f"{cmd}.pgm"
        assert main([cmd, "--se", "square3", str(grey_image), str(out)]) == 0


@pytest.mark.parametrize("command", ["compress", "reconstruct", "dilate", "erode", "open", "close"])
def test_each_image_command_runs_its_own_operation(tmp_path, command):
    # commands sharing a subparser are told apart by name alone, so each must run its own operation
    product = quantale("product")
    raster, compressed = tmp_path / "in.pgm", tmp_path / "compressed.pgm"
    write_pgm(raster, GridImage(np.random.default_rng(74).uniform(0, 1, (12, 10))))
    sel = tmp_path / "se.qsel"
    sel.write_text("QSEL 1\n0 0 1.0\n0 1 0.5\n1 -1 0.25\n")
    cb_path = tmp_path / "cb.qk"
    cb = build_triangular_codebook(product, 12, 10, 4, 3)
    write_codebook(cb_path, cb)
    img, se, cfg = read_pgm(raster), read_sel(sel), MorphConfig(product)
    small = compress(cb, img)
    write_pgm(compressed, small)
    library = {
        "compress": small,
        "reconstruct": reconstruct(cb, read_pgm(compressed)),
        "dilate": dilate(se, img, cfg),
        "erode": erode(se, img, cfg),
        "open": opening(se, img, cfg),
        "close": closing(se, img, cfg),
    }
    expected = {}
    for name, result in library.items():
        write_pgm(tmp_path / f"{name}-library.pgm", result)
        expected[name] = (tmp_path / f"{name}-library.pgm").read_bytes()
    morph = [expected[name] for name in ("dilate", "erode", "open", "close")]
    assert len(set(morph)) == 4
    out = tmp_path / "out.pgm"
    if command in ("compress", "reconstruct"):
        argv = ["--codebook", str(cb_path), str(compressed if command == "reconstruct" else raster)]
    else:
        argv = ["--se", str(sel), "--quantale", "product", str(raster)]
    assert main([command, *argv, str(out)]) == 0
    assert out.read_bytes() == expected[command]


def test_metrics_output_format(tmp_path, grey_image, capsys):
    assert main(["metrics", str(grey_image), str(grey_image)]) == 0
    assert capsys.readouterr().out.strip() == "mse 0.000000, psnr inf"
    other = tmp_path / "o.pgm"
    write_pgm(other, GridImage(np.full((16, 16), 0.5)))
    assert main(["metrics", str(grey_image), str(other)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("mse 0.") and "psnr" in line


def test_validation_failures_exit_2(tmp_path, grey_image, capsys):
    cb = tmp_path / "cb.qk"
    # boolean codebooks are rejected: entries would leave {0,1}
    assert main(["gen-codebook", "--builder", "triangular", "--size", "8x8",
                 "--codes", "4x4", "--quantale", "boolean", "--out", str(cb)]) == 2
    assert main(["gen-codebook", "--builder", "triangular", "--size", "8by8",
                 "--codes", "4x4", "--quantale", "goedel", "--out", str(cb)]) == 2
    # grey image through the boolean family
    out = tmp_path / "o.pgm"
    assert main(["dilate", "--se", "cross3", "--quantale", "boolean",
                 str(grey_image), str(out)]) == 2
    assert capsys.readouterr().err.startswith("qimg:")
    assert main(["gen-codebook", "--builder", "triangular", "--size", "8xa",
                 "--codes", "4x4", "--out", str(cb)]) == 2
    assert "--size must hold integers" in capsys.readouterr().err


def test_grey_image_through_a_boolean_codebook_exits_2(tmp_path, capsys):
    grid = IndexSet(16, (4, 4))
    cb = tmp_path / "eye.qk"
    write_codebook(cb, Codebook(identity_kernel(BOOLEAN, grid)))
    grey, binary, out = tmp_path / "grey.pgm", tmp_path / "binary.pgm", tmp_path / "o.pgm"
    write_pgm(grey, GridImage(np.full((4, 4), 0.6)))
    write_pgm(binary, GridImage(np.eye(4)))
    assert main(["compress", "--codebook", str(cb), str(binary), str(out)]) == 0
    assert np.array_equal(read_pgm(out).pixels, np.eye(4))
    assert main(["compress", "--codebook", str(cb), str(grey), str(out)]) == 2
    assert capsys.readouterr().err.startswith("qimg:")


def test_io_failures_exit_1(tmp_path):
    out = tmp_path / "o.pgm"
    assert main(["metrics", str(tmp_path / "missing.pgm"), str(out)]) == 1


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dilate", "--se", "cross3", "--quantale", "frankian", "in", "out"])
    assert exc.value.code == 2
    # a codebook runs under the family its file names
    for command in ("compress", "reconstruct"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--codebook", "cb.qk", "--quantale", "product", "in", "out"])
        assert exc.value.code == 2


def test_readme_synopsis_matches_the_parser(capsys):
    # each `qimg a|b|...` entry of the README's CLI block is one subparser: the commands that
    # share it, its prog and its flags, the optional ones in brackets and the required ones bare
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```text\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split()
        assert words[0] == "qimg", line
        documented[words[1]] = (
            {w.strip("[]") for w in words if w.startswith("[--")},
            {w for w in words if w.startswith("--")},
        )
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    names = {}
    for name, p in sub.choices.items():
        names.setdefault(p, []).append(name)
    parsed = {}
    for p, shared in names.items():
        synopsis = "|".join(shared)
        assert p.prog == f"qimg {synopsis}"
        flags = [(s, a.required) for a in p._actions for s in a.option_strings
                 if s.startswith("--") and s != "--help"]
        parsed[synopsis] = ({s for s, required in flags if not required},
                            {s for s, required in flags if required})
    assert documented == parsed
    for command, usage in (("erode", "usage: qimg dilate|erode|open|close"),
                           ("reconstruct", "usage: qimg compress|reconstruct")):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(usage)


@pytest.mark.parametrize("argv, code", [
    (["metrics", str(SAMPLE), str(SAMPLE)], 0),
    (["metrics", "missing.pgm", str(SAMPLE)], 1),
    (["erode"], 2),
], ids=["success", "io-failure", "usage"])
def test_exit_codes_reach_the_process(tmp_path, argv, code):
    # main alone sets the exit code; the module entry point hands it to the interpreter
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "qimg.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr


def test_bundled_sample_compresses():
    img = read_pgm(SAMPLE)
    assert img.shape == (64, 64)


def test_nan_kernel_entry_is_a_parse_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "nan.qk"
    path.write_text("QKERNEL 1\ngoedel 1 1\nnan\n")
    with pytest.raises(ParseError):
        read_kernel(path)
    assert main(["classify", "--kernel", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "QKERNEL 1\ngoedel 4 1\n# builder foo 2 2 1 1\n" + "0.5\n" * 4,
        "QKERNEL 1\ngoedel 4 4\n# builder block 4 1 2 2\n" + "0.5 0.5 0.5 0.5\n" * 4,
        "QCODEBOOK 1\ngoedel foo 16 16 4 4\n",
        "QCODEBOOK 1\ngoedel custom 16 16 4 4\n",
        "QCODEBOOK 1\nfrankian triangular 16 16 4 4\n",
        "QCODEBOOK 1\nboolean triangular 16 16 4 4\n",
        "QCODEBOOK 1\ngoedel triangular 16 16.0 4 4\n",
        "QCODEBOOK 1\ngoedel block 16 16 32 4\n",
        "QCODEBOOK 1\ngoedel block 16 16 4 4\n0.5\n",
        "QCODEBOOK 1\n# goedel block 16 16 4 4\n",
        "QCODEBOOK 1\ngoedel block 16 16 4\n",
        # pixel counts past the index range stop before any allocation
        "QCODEBOOK 1\ngoedel triangular 1000000000000000 1000000000000000 2 2\n",
        "QCODEBOOK 1\nproduct block 1000000000000000 1000000000000000 2 2\n",
        "QCODEBOOK 1\ngoedel triangular 100000000000000000000 2 2 2\n",
        "QCODEBOOK 1\ngoedel block 100000000000000000000 2 2 2\n",
        # pixel counts inside the index range whose first axis (7 PiB) fails at once
        "QCODEBOOK 1\ngoedel triangular 1000000000000000 2 2 2\n",
        "QCODEBOOK 1\nproduct block 1000000000000000 2 2 2\n",
        "QSEL 1\n0 0 1.0\n",
    ],
    ids=["unknown-builder", "codes-exceed-image", "params-unknown-builder", "params-custom",
         "params-unknown-family", "params-boolean", "params-non-integer-size",
         "params-codes-exceed-image", "params-trailing-line", "params-missing-line",
         "params-missing-value", "params-unallocatable-triangular",
         "params-unallocatable-block", "params-past-index-range-triangular",
         "params-past-index-range-block", "params-unallocatable-axis-triangular",
         "params-unallocatable-axis-block", "neither-format"],
)
def test_codebook_construction_errors_name_the_file(tmp_path, grey_image, capsys, text):
    path = tmp_path / "cb.qk"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_codebook(path)
    assert str(exc.value).count(str(path)) == 1
    assert main(["compress", "--codebook", str(path), str(grey_image), str(tmp_path / "o.pgm")]) == 2
    assert capsys.readouterr().err.count(str(path)) == 1
    if text.startswith("QSEL"):
        assert "QCODEBOOK 1" in str(exc.value) and "QKERNEL 1" in str(exc.value)
    if not text.startswith("QKERNEL"):
        # classify reads no builder comment, so its QKERNEL files parse there
        assert main(["classify", "--kernel", str(path)]) == 2
        assert capsys.readouterr().err.count(str(path)) == 1


@pytest.mark.parametrize("builder", ["triangular", "block"])
def test_gen_codebook_of_unallocatable_size_exits_2(tmp_path, capsys, builder):
    out = tmp_path / "cb.qk"
    # past the index range, then a first axis that cannot be allocated
    for size in ("1000000000000000x1000000000000000", "100000000000000000000x2",
                 "1000000000000000x2"):
        assert main(["gen-codebook", "--builder", builder, "--size", size,
                     "--codes", "2x2", "--out", str(out)]) == 2
        assert "cannot be built" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("family", ["goedel", "product", "lukasiewicz"])
@pytest.mark.parametrize("builder", ["triangular", "block"])
def test_gen_codebook_file_rebuilds_the_kernel(tmp_path, builder, family):
    path = tmp_path / "cb.qk"
    assert main(["gen-codebook", "--builder", builder, "--size", "12x10", "--codes", "4x3",
                 "--quantale", family, "--out", str(path)]) == 0
    assert path.read_text() == f"QCODEBOOK 1\n{family} {builder} 12 10 4 3\n"
    build = {"triangular": build_triangular_codebook, "block": build_block_codebook}[builder]
    want = build(quantale(family), 12, 10, 4, 3)
    got = read_codebook(path)
    assert (got.builder, got.image_shape, got.code_shape) == (builder, (12, 10), (4, 3))
    assert got.kernel.q is want.kernel.q
    assert np.array_equal(got.kernel.values, want.kernel.values)
    assert np.array_equal(load_kernel(path).values, want.kernel.values)


def _outputs(tmp_path, cb_path, image, tag):
    """The compress and reconstruct output bytes through one codebook file."""
    small, back = tmp_path / f"{tag}-small.pgm", tmp_path / f"{tag}-back.pgm"
    assert main(["compress", "--codebook", str(cb_path), str(image), str(small)]) == 0
    assert main(["reconstruct", "--codebook", str(cb_path), str(small), str(back)]) == 0
    return small.read_bytes(), back.read_bytes()


def test_dense_codebook_files_still_load(tmp_path, grey_image, capsys):
    cb = build_triangular_codebook(quantale("product"), 16, 16, 4, 4)
    dense, params = tmp_path / "dense.qk", tmp_path / "params.qk"
    write_kernel(dense, cb.kernel, comments=["builder triangular 16 16 4 4"])
    write_codebook(params, cb)
    assert dense.read_text().startswith("QKERNEL 1\n")
    assert params.read_text().startswith("QCODEBOOK 1\n")
    back = read_codebook(dense)
    assert (back.builder, back.image_shape, back.code_shape) == ("custom", (16, 16), (4, 4))
    assert np.array_equal(back.kernel.values, cb.kernel.values)
    assert _outputs(tmp_path, dense, grey_image, "dense") == \
        _outputs(tmp_path, params, grey_image, "params")
    printed = []
    for path in (dense, params):
        capsys.readouterr()
        assert main(["classify", "--kernel", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[0].startswith("strong\n")


def test_edited_dense_codebook_keeps_its_body(tmp_path):
    # every dense body reads as custom, so writing it again keeps the edited
    # entry instead of the bare parameters
    cb = build_block_codebook(quantale("goedel"), 4, 4, 2, 2)
    values = cb.kernel.values.copy()
    values[0, 0] = 0.5
    edited = tmp_path / "edited.qk"
    kernel = Kernel(cb.kernel.q, cb.kernel.domain, cb.kernel.codomain, values)
    write_kernel(edited, kernel, comments=["builder block 4 4 2 2"])
    back = read_codebook(edited)
    assert (back.builder, back.image_shape, back.code_shape) == ("custom", (4, 4), (2, 2))
    again = tmp_path / "again.qk"
    write_codebook(again, back)
    assert again.read_text().startswith("QKERNEL 1\n")
    final = read_codebook(again)
    assert final.builder == "custom"
    assert np.array_equal(final.kernel.values, values)
    # so does the unedited body: only a builder labels a codebook
    write_kernel(edited, cb.kernel, comments=["builder block 4 4 2 2"])
    assert read_codebook(edited).builder == "custom"


def test_stray_key_error_is_not_a_validation_error(tmp_path, monkeypatch):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    with pytest.raises(KeyError):
        main(["classify", "--kernel", str(tmp_path / "k.qk")])
