"""PGM codec: byte mapping, round trips and malformed-input diagnostics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from qimg import GridImage, ParseError, pgm, read_pgm, write_pgm
from qimg.cli import main


def test_byte_normalization(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n3 1\n255\n" + bytes([0, 128, 255]))
    img = read_pgm(path)
    assert img.shape == (1, 3)
    assert img.pixels[0, 0] == 0.0
    assert img.pixels[0, 2] == 1.0
    assert img.pixels[0, 1] == 128 / 255


def test_p5_write_read_is_byte_exact(tmp_path):
    rng = np.random.default_rng(61)
    img = GridImage(rng.uniform(0, 1, (9, 7)))
    first = tmp_path / "a.pgm"
    write_pgm(first, img)
    back = read_pgm(first)
    assert np.all(np.abs(back.pixels - img.pixels) <= 1 / 510 + 1e-12)
    second = tmp_path / "b.pgm"
    write_pgm(second, back)
    assert first.read_bytes() == second.read_bytes()


def test_p2_matches_p5(tmp_path):
    rng = np.random.default_rng(62)
    img = GridImage(rng.uniform(0, 1, (4, 5)))
    bin_path, asc_path = tmp_path / "b.pgm", tmp_path / "a.pgm"
    write_pgm(bin_path, img, binary=True)
    write_pgm(asc_path, img, binary=False)
    assert asc_path.read_text().startswith("P2\n5 4\n255\n")
    assert np.array_equal(read_pgm(bin_path).pixels, read_pgm(asc_path).pixels)


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    text = b"P2 # magic\n# a comment line\n 2 \t2\n# another\n255\n0 85 # row 0\n170#tight\n255\n"
    for newline in (b"\n", b"\r\n"):
        path.write_bytes(text.replace(b"\n", newline))
        img = read_pgm(path)
        assert np.allclose(img.pixels, np.array([[0, 85], [170, 255]]) / 255)


@pytest.mark.parametrize(
    "payload,fragment",
    [
        (b"P3\n1 1\n255\n0", "magic"),
        (b"P5\n1 x\n255\n\x00", "integer"),
        (b"P5\n1 1\n127\n\x00", "maxval"),
        (b"P5\n2 2\n255\n\x00\x00", "short payload"),
        (b"P2\n2 1\n255\n12 999\n", "outside"),
        (b"P2\n2 1\n255\n12\n", "short payload: 1 of 2 samples"),
        # the header promises 10^12 samples; none may be allocated before counting
        (b"P2\n1000000 1000000\n255\n0 1 2\n", "short payload: 3 of 1000000000000 samples"),
        (b"P5\n1 1\n", "end of header"),
        (b"P5\n0 1\n255\n", "bad dimensions"),
        (b"P5\n1 1\n255", "missing separator"),
        (b"P2\n2 1\n255\n1 x\n", "not an integer"),
    ],
    ids=["magic", "dims", "maxval", "short", "range", "truncated", "huge", "header-end",
         "zero-width", "no-separator", "sample-token"],
)
def test_malformed_files_report_offsets(tmp_path, payload, fragment):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(ParseError) as err:
        read_pgm(path)
    assert fragment in str(err.value)
    assert "byte" in str(err.value)
    assert isinstance(err.value.offset, int)
    assert str(err.value).count(str(path)) == 1
    assert main(["dilate", "--se", "cross3", str(path), str(tmp_path / "out.pgm")]) == 2


def test_p2_samples_read_as_int_reads_them(tmp_path):
    # the signed and zero-padded forms the README names; a sample past int64
    # is still reported as out of range, at the byte after it
    path = tmp_path / "forms.pgm"
    path.write_bytes(b"P2\n3 1\n255\n+7 007 255\n")
    assert np.array_equal(read_pgm(path).pixels, [[7 / 255, 7 / 255, 1.0]])
    huge = b"9" * 23
    data = b"P2\n3 1\n255\n+7 007 " + huge + b"\n"
    path.write_bytes(data)
    with pytest.raises(ParseError) as err:
        read_pgm(path)
    assert f"sample 2 value {huge.decode()} outside 0..255" in str(err.value)
    assert err.value.offset == data.index(huge) + len(huge)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        read_pgm(tmp_path / "nope.pgm")


def _pgm_outcome(read, path):
    """The pixels, bit for bit, or the error's text and offset."""
    try:
        img = read(path)
    except ParseError as exc:
        return str(exc), exc.offset
    return img.shape, img.pixels.tobytes()


def _read_tokens(path):
    # the reference: with the digit scan turned down, every sample goes through int()
    with mock.patch.object(pgm, "_scan_samples", lambda body, count: None):
        return read_pgm(path)


_GOOD_SAMPLES = ["0", "007", "7", "42", "255", "#c\n"]
_BAD_SAMPLES = ["0007", "1000", "+7", "256", "999", "-1", "x"]


@st.composite
def _p2_texts(draw):
    tokens = draw(st.lists(st.sampled_from(_GOOD_SAMPLES), max_size=20))
    samples = sum(t[0] != "#" for t in tokens)
    # at most one flaw: a bad sample, or one sample too few
    flaw = draw(st.sampled_from([None, "sample", "short"]))
    if flaw == "sample" and samples:
        i = draw(st.sampled_from([i for i, t in enumerate(tokens) if t[0] != "#"]))
        tokens[i] = draw(st.sampled_from(_BAD_SAMPLES))
    seps = draw(st.lists(st.sampled_from([" ", "\t", "\n", "\r\n", "  "]),
                         min_size=len(tokens), max_size=len(tokens)))
    width = max(1, samples + (flaw == "short"))
    body = "".join(s + t for s, t in zip(seps, tokens))
    return f"P2\n{width} 1\n255{body}\n".encode("ascii")


@given(data=_p2_texts())
@example(data=b"P2\n2 1\n255 7 -1\n")  # a sign
@example(data=b"P2\n1 1\n255 1000\n")  # four digits
@example(data=b"P2\n2 1\n255 7\n")  # one sample too few
def test_p2_digit_scan_matches_the_token_path(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("p2") / "g.pgm"
    path.write_bytes(data)
    assert _pgm_outcome(read_pgm, path) == _pgm_outcome(_read_tokens, path)


def test_p2_digit_scan_reads_plain_bodies(tmp_path):
    path = tmp_path / "g.pgm"
    pixels = np.arange(256, dtype=float).reshape(16, 16) / 255
    write_pgm(path, GridImage(pixels), binary=False)
    body = path.read_bytes().split(b"255", 1)[1]
    assert np.array_equal(pgm._scan_samples(body, 256), np.arange(256))
    assert np.array_equal(read_pgm(path).pixels, pixels)
