"""Tests for ``tools/profile_run.py``'s benchmark-workload mode."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def profile_run():
    spec = importlib.util.spec_from_file_location("profile_run", ROOT / "tools" / "profile_run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_pass_profiles_the_dispatch_path(profile_run):
    before = sorted(p.name for p in (ROOT / "perfbench").iterdir())
    stats = profile_run.profile_perfbench("burn-grid")
    functions = {name for _file, _line, name in stats.stats}
    assert {"_dispatch", "_run_thread", "decide", "power_segment"} <= functions
    # The workload definitions are read, never written next to.
    assert sorted(p.name for p in (ROOT / "perfbench").iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["fig3", "--perfbench", "burn-grid"],
        ["--perfbench", "burn-grid", "--full"],
        ["--perfbench", "grid-replay"],
    ],
)
def test_perfbench_argument_errors(profile_run, argv):
    with pytest.raises(SystemExit) as exit_info:
        profile_run.main(argv)
    assert exit_info.value.code == 2
