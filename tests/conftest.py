"""Shared test setup: the numpy kernel set that pinned bits depend on.

numpy dispatches float64 ``log1p`` and ``power`` to a kernel built for the
host's CPU, and the kernels of different targets differ in the last bit.
The Levy steps pass through both, so the pins that follow those steps
closely are recorded once per kernel set, and every run's report header
names the set it used.
"""

import numpy as np
import pytest


def kernel_set() -> str:
    """The target of numpy's float64 ``log1p`` and ``power`` kernels, such as ``X86_V4``.

    Two targets are joined by ``/``; a numpy without ``numpy.lib.introspect``
    reports ``unknown``.
    """
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "unknown"
    info = opt_func_info(func_name="log1p|power", signature="float64.*")
    return "/".join(sorted({loop["current"] for loops in info.values() for loop in loops.values()}))


def pytest_report_header(config):
    from ecsa.experiments import _usable_cpus

    return (f"numpy {np.__version__}, float64 log1p/power kernels {kernel_set()}, "
            f"usable CPUs {_usable_cpus()}")


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q drops the report header
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(scope="session")
def kernel_pins():
    """``kernel_pins(table)``: the entry of ``table`` recorded for this run's kernel set.

    A set with no entry fails the test and names the set.
    """
    kernels = kernel_set()

    def lookup(table):
        if kernels not in table:
            pytest.fail(f"no pins recorded for numpy's float64 log1p/power kernels {kernels}")
        return table[kernels]

    return lookup
