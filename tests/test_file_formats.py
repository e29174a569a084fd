"""Golden bytes of the text writers: QKERNEL, both codebook forms, QSEL and P2 PGM."""

import numpy as np

from qimg import (
    GOEDEL,
    LUKASIEWICZ,
    PRODUCT,
    Codebook,
    GridImage,
    IndexSet,
    Kernel,
    StructuringElement,
    build_block_codebook,
    read_codebook,
    write_codebook,
    write_kernel,
    write_pgm,
    write_sel,
)


def test_write_kernel_bytes(tmp_path):
    values = [[0.0, 1.0, 0.1], [1 / 3, 0.30000000000000004, 1e-300]]
    path = tmp_path / "k.qk"
    write_kernel(path, Kernel(GOEDEL, IndexSet(2), IndexSet(3), values), ["builder custom 1 2 1 3"])
    assert path.read_bytes() == (
        b"QKERNEL 1\n"
        b"goedel 2 3\n"
        b"# builder custom 1 2 1 3\n"
        b"0.0 1.0 0.1\n"
        b"0.3333333333333333 0.30000000000000004 1e-300\n"
    )


def test_write_codebook_bytes(tmp_path):
    # a builder's codebook is stored as its parameters; a custom one as a
    # QKERNEL 1 file whose builder comment gives the image and code grids
    params, custom = tmp_path / "block.qcb", tmp_path / "custom.qk"
    write_codebook(params, build_block_codebook(LUKASIEWICZ, 4, 6, 2, 3))
    assert params.read_bytes() == b"QCODEBOOK 1\nlukasiewicz block 4 6 2 3\n"
    values = [[1.0, 0.0], [1 / 3, 0.0], [0.0, 1.0], [0.0, 2.5e-300]]
    write_codebook(custom, Codebook(Kernel(PRODUCT, IndexSet(4, (2, 2)), IndexSet(2, (1, 2)), values)))
    assert custom.read_bytes() == (
        b"QKERNEL 1\n"
        b"product 4 2\n"
        b"# builder custom 2 2 1 2\n"
        b"1.0 0.0\n"
        b"0.3333333333333333 0.0\n"
        b"0.0 1.0\n"
        b"0.0 2.5e-300\n"
    )
    back = read_codebook(custom)
    assert (back.builder, back.image_shape, back.code_shape) == ("custom", (2, 2), (1, 2))
    assert np.array_equal(back.kernel.values, values)


def test_write_sel_bytes(tmp_path):
    path = tmp_path / "s.qsel"
    write_sel(path, StructuringElement({(0, 0): 1.0, (-1, 2): 0.25, (1, -1): 1 / 3}))
    assert path.read_bytes() == b"QSEL 1\n-1 2 0.25\n0 0 1.0\n1 -1 0.3333333333333333\n"


def test_write_p2_bytes(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm(path, GridImage([[0.0, 0.5, 1.0], [0.2, 0.4, 0.6]]), binary=False)
    assert path.read_bytes() == b"P2\n3 2\n255\n0 128 255\n51 102 153\n"
