"""Byte stability of every command listed in configs/paper/MANIFEST.md.

The stdout of each command (run without its ``--out``) is pinned by sha256,
so a change that moves one printed digit of a shipped table, sweep, curve,
grid or baseline fails here. Re-pin only for a change meant to alter the
shipped outputs, and record it in CHANGES.md.
"""

import hashlib
import re
from pathlib import Path

import pytest

from lpm_shapley.cli import main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "configs" / "paper" / "MANIFEST.md"

PINNED = {
    "disagree-study --config configs/paper/disagree_e0_s002_001.json": (
        "86bded6e02708d302f73828aaef5aba37053518b80840ae70807b1625ed20ba8"
    ),
    "disagree-study --config configs/paper/disagree_e0_s2_1.json": (
        "0cb3ae6440550354be805e0972ceb7b210c6f9c6819dfc516d8ebc09a8ddaf9b"
    ),
    "disagree-study --config configs/paper/disagree_e0_s200_100.json": (
        "725d86db77a8c962b97ef9fadc14a4021dfc1ea983b0bdc2929e61866357f4b1"
    ),
    "disagree-study --config configs/paper/disagree_e1_s002_001.json": (
        "01dd4f1c6293344b39e6ac24875c8691eca65a1748bc6f83ea67a3ff9e2d3c91"
    ),
    "disagree-study --config configs/paper/disagree_e1_s2_1.json": (
        "b3300b26ff575dc46abca462c0a4392f8026066bfc7a9a144a839f8b36ee8dad"
    ),
    "disagree-study --config configs/paper/disagree_e1_s200_100.json": (
        "c66aa7959f977f56ba1d2d39d04a9a88463c96f27a18094721b15fd7552150a5"
    ),
    "importance-study --config configs/paper/importance_e0_r2_s002_001.json": (
        "de30d89d718250d0dbb5d3239c15fb5dbb0c325970e97d26202186148a80a12a"
    ),
    "importance-study --config configs/paper/importance_e0_r2_s2_1.json": (
        "1393059331ab5ffde3e3c4e28eeae13b1eb098aab1b1f86b0b58de53a3c57739"
    ),
    "importance-study --config configs/paper/importance_e0_r2_s200_100.json": (
        "a336ead8818994b2b9c2bf229dd95cc53c498cf832998261e1846a5fb49351c5"
    ),
    "importance-study --config configs/paper/importance_e1_r2_s002_001.json": (
        "85560ad511eddbd8b3390cd1c90b32bbc41b51b14955c8b5d9a05a20313b1f44"
    ),
    "importance-study --config configs/paper/importance_e1_r2_s2_1.json": (
        "144dfe43bcb2815ff127a018bacd4930b6f34f091454f6d412a413de4f22caed"
    ),
    "importance-study --config configs/paper/importance_e1_r2_s200_100.json": (
        "76d04e1745ce2ae8838e843ed2626e2fb10eb2c8165cef4300fdd8e5989d9dd5"
    ),
    "importance-study --config configs/paper/importance_e0_r5_s005_001.json": (
        "23dfa55c11fa1e36a4dc4a6b2df9201b8b577ef2238f7664f1aed44cb3ad7054"
    ),
    "importance-study --config configs/paper/importance_e0_r5_s5_1.json": (
        "a179a6492981942b8aefc9b73cd8ec4f30a1c55845adcc859b80a96b343855f6"
    ),
    "importance-study --config configs/paper/importance_e0_r5_s500_100.json": (
        "9e554fca1f28eb90ab833bea92c4fda4c7e665b1540712a940451cd43e196cb2"
    ),
    "importance-study --config configs/paper/importance_e1_r5_s005_001.json": (
        "12d1ccfe56cf345e2cafbffb9b43c4481f28345263517c16bef6272adccfe562"
    ),
    "importance-study --config configs/paper/importance_e1_r5_s5_1.json": (
        "526dc0d0d69d481929f442e142d4462da6d668917d1acfbde592492ac6cd7e20"
    ),
    "importance-study --config configs/paper/importance_e1_r5_s500_100.json": (
        "496fb3d6862b88d1a7a7c6c05bbeff3c957953f606daab6ac8b1c0915fb9db9b"
    ),
    "baseline-sweep --config configs/paper/baseline_sweep_e1.json": (
        "c2ea56a5d5c82a322a91943552f544259458bbf25bee154801fe65f171059db7"
    ),
    "curves --model configs/paper/model_b0_1_s2_1.json --x2-min -6 --x2-max 6 --steps 241": (
        "4a502279e85feffa2784246206a3c14b91201954e4a526a06e54b3d6e76b9886"
    ),
    "curves --model configs/paper/model_b0_0_s002_001.json --x2-min -0.06 --x2-max 0.06 --steps 241": (
        "5897f02be3fd4cea8521b27b66732b01147fccff14c2e18f82b197694310a2ab"
    ),
    "grid --model configs/paper/model_b0_0_s2_1.json --outcome probability --x1-min -6 --x1-max 6 --x2-min -6 --x2-max 6 --steps 121": (
        "58f7fa9698adb06f5e9c5e5f4aebf10dea946ecd6864e5cb2b9a14dfb7648a7a"
    ),
    "baseline --model configs/paper/model_b0_1_s2_1.json": (
        "739e96132d04a70fd80695391bb03459833942c38d4dbe01ca4a9d2f12e92dc0"
    ),
}


def _manifest_commands():
    text = MANIFEST.read_text(encoding="utf-8").replace("\\\n", " ")
    commands = []
    for match in re.finditer(r"lpm-shapley ([a-z-]+ [^`\n]*)", text):
        argv = match.group(1).split()
        if "--out" in argv:
            i = argv.index("--out")
            del argv[i : i + 2]
        commands.append(" ".join(argv))
    return commands


def test_manifest_lists_exactly_the_pinned_commands():
    assert _manifest_commands() == list(PINNED)


@pytest.mark.parametrize("command", list(PINNED))
def test_manifest_command_stdout_is_pinned(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED[command]
