"""Golden fingerprint: byte-exact outputs of small CLI runs.

The digests pin the whole numeric path (random stream, initialization,
Levy and discovery phases, schedules, CSV formatting), so any refactor
that changes a single bit of output fails here.  They were recorded
under numpy 2.4; floating-point kernels may differ in the last bit
between numpy releases, so other versions skip rather than fail.
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


def invoke(args):
    result = CliRunner().invoke(main, args, env={"ECSA_WORKERS": "1"})
    assert result.exit_code == 0, result.output
    return result


def test_bench_slice_digests(tmp_path):
    invoke(["bench", "--functions", "F1,F5,F7,F11", "--trials", "3", "--population", "10",
            "--iterations", "50", "--out", str(tmp_path)])
    assert sha256((tmp_path / "results.csv").read_bytes()) == (
        "1c2d3b512d21d576797bb9362f94e54e1887ab3c38832ca8ed96132b5cf98a78"
    )
    assert sha256((tmp_path / "summary.csv").read_bytes()) == (
        "faf3e40c13d468c28ae4464621a40077399be2ede405b5dfac1de47177aa56df"
    )


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


def test_default_schedule_digest():
    result = invoke(["schedule"])
    assert sha256(result.stdout_bytes) == (
        "393b485a81e2fe28b94bc7279508f38579e3beb5078f732fa7afac900332f848"
    )
