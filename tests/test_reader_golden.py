"""Golden reader output: one SHA-256 over what the QKERNEL 1 readers make of fixed files.

The files are the benchmark's 1100-row chain, a custom codebook with its
`# builder custom` comment, a 2 %-dense body of long `repr` weights and a
body with comments and a blank line among its rows.  The digest covers the
stored arrays, sizes and comments that `read_kernel`, `load_kernel` and
`read_codebook` return, and `qimg classify --kernel`'s stdout.  The weights
are rationals and the builders' products, with no random numbers, so the
digest depends only on the program.  A change to how the files are read
that claims the same kernels must leave it as it is.  A second digest, taken
the same way, covers a body whose zeros are spelled `0`.
"""

import hashlib

import numpy as np

from qimg import (GOEDEL, LUKASIEWICZ, PRODUCT, Codebook, IndexSet, Kernel, build_triangular_codebook,
                  cli, load_kernel, read_codebook, read_kernel, write_codebook, write_kernel)
from support import chain_kernel

GOLDEN = "41c624a5e2a32ef23c18f73e263329026de36f9c0a5b949fd37dee0cbf98b6de"
GOLDEN_ZEROS_SPELLED_0 = "50a161b968b73cda6145a607e29339cee708e7f82a18d44132b9876ee84e2ce0"


def _sparse_repr() -> Kernel:
    """300 x 400, 2 % nonzero, weights k/255 whose repr runs to 17 digits."""
    i, j = np.indices((300, 400))
    values = np.where((i * 37 + j * 101) % 50 == 0, ((i * 7 + j * 13) % 255 + 1) / 255, 0.0)
    return Kernel(LUKASIEWICZ, IndexSet(300), IndexSet(400), values)


def _commented(path) -> None:
    """A 40 x 50 Goedel kernel of weights k/8, with comments and a blank line among its rows."""
    i, j = np.indices((40, 50))
    values = np.where((i + 3 * j) % 9 == 0, ((i + j) % 8 + 1) / 8, 0.0)
    write_kernel(path, Kernel(GOEDEL, IndexSet(40), IndexSet(50), values), comments=["head"])
    lines = path.read_text(encoding="ascii").splitlines()
    lines[13:13] = ["# among the rows", ""]
    lines.insert(30, "   # indented")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _spelled_0(path) -> None:
    """A 200 x 800 product kernel, zeros spelled '0' and 1 % weights k/255, over several blocks."""
    i, j = np.indices((200, 800))
    values = np.where((i * 13 + j * 7) % 97 == 0, ((i * 5 + j * 3) % 255 + 1) / 255, 0.0)
    rows = (" ".join("0" if v == 0.0 else repr(v) for v in row) for row in values.tolist())
    path.write_text("QKERNEL 1\nproduct 200 800\n" + "\n".join(rows) + "\n", encoding="ascii")


def _kernel_record(p: Kernel) -> list:
    arrays = (p.row_idx, p.row_w, p.col_idx, p.col_w)
    return [p.q.family, repr(p.domain), repr(p.codomain),
            *((a.dtype.str, a.shape, a.tobytes().hex()) for a in arrays)]


def test_readers_and_classify_match_the_golden_digest(tmp_path, capsys):
    paths = {name: tmp_path / f"{name}.qk" for name in ("chain", "codebook", "sparse", "commented")}
    write_kernel(paths["chain"], chain_kernel(GOEDEL, 1100))
    write_codebook(paths["codebook"], Codebook(build_triangular_codebook(PRODUCT, 24, 24, 8, 8).kernel))
    write_kernel(paths["sparse"], _sparse_repr())
    _commented(paths["commented"])
    digest = hashlib.sha256()
    for name, path in paths.items():
        p, comments = read_kernel(path)
        record = [name, _kernel_record(p), comments, _kernel_record(load_kernel(path))]
        if name == "codebook":
            cb = read_codebook(path)
            record += [cb.builder, cb.image_shape, cb.code_shape, _kernel_record(cb.kernel)]
        assert cli.main(["classify", "--kernel", str(path)]) == 0
        record.append(capsys.readouterr().out)
        digest.update(repr(record).encode("ascii"))
    assert digest.hexdigest() == GOLDEN


def test_a_body_of_zeros_spelled_0_matches_its_golden_digest(tmp_path, capsys):
    path = tmp_path / "zeros.qk"
    _spelled_0(path)
    p, comments = read_kernel(path)
    assert cli.main(["classify", "--kernel", str(path)]) == 0
    record = [_kernel_record(p), comments, _kernel_record(load_kernel(path)), capsys.readouterr().out]
    assert hashlib.sha256(repr(record).encode("ascii")).hexdigest() == GOLDEN_ZEROS_SPELLED_0
