"""Golden fingerprint: byte-exact outputs of small CLI runs.

The digests pin the whole numeric path (random stream, initialization,
Levy and discovery phases, schedules, Sobol points, CSV formatting), so
any refactor that changes a single bit of output fails here.  One more
digest pins the ``--help`` text of every command, the CLI's surface.  They were recorded
under numpy 2.4; floating-point kernels may differ in the last bit
between numpy releases, so other versions skip rather than fail.  Within
numpy 2.4 the ``bench`` digests also depend on the kernel set of float64
``log1p`` and ``power`` (see ``conftest.kernel_set``), so they are
recorded for each set seen; a set with none recorded fails.
"""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner

from ecsa.cli import main

PINNED_NUMPY = "2.4"

pytestmark = pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != PINNED_NUMPY,
    reason=f"digests pinned under numpy {PINNED_NUMPY}.x, running numpy {np.__version__}",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_sha256(root) -> str:
    """One digest over every file under ``root``: sorted relative path plus bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


# the bench slice's results, summary and every file of its run, per kernel
# set: X86_V4 is AVX-512, and an AVX2 host runs the baseline(X86_V2) kernels
BENCH_DIGESTS = {
    "X86_V4": (
        "1c2d3b512d21d576797bb9362f94e54e1887ab3c38832ca8ed96132b5cf98a78",
        "faf3e40c13d468c28ae4464621a40077399be2ede405b5dfac1de47177aa56df",
        "c4c81985874c198217ab9cab49526b9fa475a7412e6bc38cf7cf9ac61721c124",
    ),
    "baseline(X86_V2)": (
        "c0f4ac6dfd03f2c34f1e414b8c9ccc4a4702172233ca538660f4e86901758877",
        "680cd402fec3be1ed9a4cf4c01fe9424699a08d2eba6463a4ca6e6ddd3ac785a",
        "ce0826d7c2f0cd7cc3cf0b433b66b76987ba4fd83dfbfc81393446a6c0035dd9",
    ),
}

# every file a run writes (per-run and mean traces, assignments)
TREE_DIGESTS = {
    "csa": "5e222cf26819abf40e8c9bc49ab08cc8f989b35b88f9c4cce26bd98165ef6b1e",
    "ecsa": "441771665fb73a0ee4287d6f8e357765466a6403498483b55e9bf5d2f8d9fe3e",
}


def invoke(args):
    result = CliRunner().invoke(main, args, env={"ECSA_WORKERS": "1"})
    assert result.exit_code == 0, result.output
    return result


def test_bench_slice_digests(tmp_path, kernel_pins):
    results, summary, tree = kernel_pins(BENCH_DIGESTS)
    bench = tmp_path / "bench"
    invoke(["bench", "--functions", "F1,F5,F7,F11", "--trials", "3", "--population", "10",
            "--iterations", "50", "--out", str(bench)])
    assert sha256((bench / "results.csv").read_bytes()) == results
    assert sha256((bench / "summary.csv").read_bytes()) == summary
    invoke(["compare", "--results", str(bench / "results.csv"),
            "--out", str(tmp_path / "compare")])
    assert tree_sha256(tmp_path) == tree


@pytest.mark.parametrize(
    "algorithm, digest",
    [
        ("csa", "e858241a0bed22d7c370bbdf44ef109ed3799ed7e7e91d41266309ef6b22bb28"),
        ("ecsa", "471f94d75d2096c73bb3016287868976dcb9cd81d930e91c4f84f01c0e916528"),
    ],
)
def test_allocation_digests(tmp_path, algorithm, digest):
    invoke(["allocate", "--synthetic", "--algorithm", algorithm, "--trials", "2",
            "--population", "10", "--iterations", "30", "--out", str(tmp_path)])
    assert sha256((tmp_path / f"allocation_{algorithm}.csv").read_bytes()) == digest
    assert tree_sha256(tmp_path) == TREE_DIGESTS[algorithm]


def test_default_schedule_digest():
    result = invoke(["schedule"])
    assert sha256(result.stdout_bytes) == (
        "393b485a81e2fe28b94bc7279508f38579e3beb5078f732fa7afac900332f848"
    )


@pytest.mark.parametrize(
    "dim, count, digest",
    [
        # 2000 rows span more than one block of the command's output
        (15, 2000, "1956a02ae804ad030c0130b0025cc0edd1806129d68d730c721a8b6a7a64b020"),
        (550, 3, "e7eb7583c7bce2fd909220acbc06d2063cf6f2d29b9f3483713b66ee9264d8fd"),
    ],
)
def test_sobol_digests(dim, count, digest):
    result = invoke(["sobol", "--dim", str(dim), "--count", str(count)])
    assert sha256(result.stdout_bytes) == digest


# every command, in the order their ``--help`` texts are hashed
COMMANDS = [[], ["bench"], ["bench", "list"], ["compare"], ["allocate"], ["sobol"], ["schedule"]]


def test_help_digest():
    # an added, removed or renamed option, or a changed default, changes this digest
    digest = hashlib.sha256()
    for command in COMMANDS:
        result = CliRunner().invoke(main, [*command, "--help"], prog_name="ecsa",
                                    terminal_width=80)
        assert result.exit_code == 0, result.output
        digest.update(result.stdout_bytes)
    assert digest.hexdigest() == (
        "bec23bec8163e0e70c0d6a16ac11db9c6758a5a4757cbebe985b4db4e0fcc74a"
    )
