"""End-to-end runs of the command-line surface."""

from pathlib import Path

import numpy as np
import pytest

from qimg import GridImage, ParseError, cli, read_codebook, read_kernel, read_pgm, write_pgm
from qimg.cli import main

SAMPLE = Path(__file__).parent / "data" / "sample64.pgm"


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


def test_open_close_commands(tmp_path, grey_image):
    for cmd in ("open", "close"):
        out = tmp_path / f"{cmd}.pgm"
        assert main([cmd, "--se", "square3", str(grey_image), str(out)]) == 0


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


def test_io_failures_exit_1(tmp_path):
    out = tmp_path / "o.pgm"
    assert main(["metrics", str(tmp_path / "missing.pgm"), str(out)]) == 1


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dilate", "--se", "cross3", "--quantale", "frankian", "in", "out"])
    assert exc.value.code == 2


def test_quantale_override_revalidates(tmp_path, grey_image):
    cb = tmp_path / "cb.qk"
    assert main(["gen-codebook", "--builder", "triangular", "--size", "16x16",
                 "--codes", "4x4", "--quantale", "goedel", "--out", str(cb)]) == 0
    out = tmp_path / "c.pgm"
    # retag to another real family works
    assert main(["compress", "--codebook", str(cb), "--quantale", "lukasiewicz",
                 str(grey_image), str(out)]) == 0
    # retag to boolean trips the binary-entry invariant
    assert main(["compress", "--codebook", str(cb), "--quantale", "boolean",
                 str(grey_image), str(out)]) == 2


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


def test_stray_key_error_is_not_a_validation_error(tmp_path, monkeypatch):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    with pytest.raises(KeyError):
        main(["classify", "--kernel", str(tmp_path / "k.qk")])
