"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpm_shapley


def _run_child(code: str, timeout: float = 60.0):
    """Run ``code`` in a fresh interpreter that can import lpm_shapley.

    Returns (peak RSS in MB, stdout). The peak is the child's own ru_maxrss,
    read after ``code`` finishes, so it covers the import and every
    allocation the code made, and nothing of the test process.
    """
    src = str(Path(lpm_shapley.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "\nimport resource\nprint(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code + probe],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, kilobytes = proc.stdout.rstrip("\n").split("\n")
    return int(kilobytes) / 1024.0, "\n".join(lines)


@pytest.fixture
def child_peak_rss():
    """The ``_run_child`` probe: peak RSS (MB) and stdout of code run alone."""
    return _run_child
