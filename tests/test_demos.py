"""Byte stability of the deterministic demos.

Each demo in ``demos/`` runs in-process with stdout captured, and the sha256
of what it prints is pinned. A change that moves one printed digit fails
here; re-pin only for a change meant to alter the demos' output, and record
it in CHANGES.md. ``cli_tour.py`` is left out: it prints its temp directory.
"""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

PINNED = {
    "baselines_and_variance.py": "fb526696cbfbea9ea5e94a6e25665f277bbb55df8c07070ae737c1eb4c80322c",
    "explain_one_sample.py": "495968c74b0c949f4c618680211b70dfa00ba9381fdfa202d0e5970889c3a961",
    "population_studies.py": "80cd6f0ca83f040a6dffdaf5aba705409cdfc419052bef759647dd4f7d884267",
    "sampling_oracle.py": "a11d84048c5246c9360b037a31d05227845a09a3932b1f3f3ea3bc1a6f0b3512",
    "sign_and_ranking_flips.py": "dee88ecdee0843f18d0aff3c545c5b3c4101e7b0681ba09ae3a6f98fffa6e4a5",
}


def test_every_demo_but_the_cli_tour_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted([*PINNED, "cli_tour.py"])


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_stdout_is_pinned(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[name]
