"""Tests for the on-disk result cache: round-trips, misses, corruption."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    CharacterizationResult,
    FiniteRunResult,
    fast_config,
    run_characterization,
)
from repro.runtime import ResultCache


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def sample_characterization() -> CharacterizationResult:
    return CharacterizationResult(
        workload="cpuburn",
        p=0.5,
        idle_quantum=0.01,
        duration=10.0,
        mean_temp=40.123456789012345,
        temp_rise=8.1,
        idle_temp=32.0,
        work=17.9,
        energy=523.25,
        details={"injected_quanta": 12.0, "injection_fraction": 0.21},
    )


def sample_finite() -> FiniteRunResult:
    return FiniteRunResult(
        p=0.25,
        idle_quantum=0.05,
        total_cpu=2.0,
        runtimes=[2.0, 2.1, 2.05, 1.95],
        energy=100.5,
        window=2.1,
        mean_schedules=20.0,
    )


def test_roundtrip_characterization_is_bit_identical(cache):
    original = sample_characterization()
    cache.put("a" * 64, original)
    loaded = cache.get("a" * 64)
    assert loaded == original  # dataclass equality covers every field
    assert loaded.mean_temp == original.mean_temp  # float exactness
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1


def test_roundtrip_finite_run(cache):
    original = sample_finite()
    cache.put("b" * 64, original)
    loaded = cache.get("b" * 64)
    assert loaded == original
    assert loaded.mean_runtime == original.mean_runtime


def test_roundtrip_of_real_run_result(cache):
    cfg = fast_config()
    original = run_characterization(cfg, p=0.5, idle_quantum=0.01, duration=5.0)
    cache.put("c" * 64, original)
    assert cache.get("c" * 64) == original


def test_missing_key_is_a_miss(cache):
    assert cache.get("0" * 64) is None
    assert cache.stats.misses == 1


def test_corrupt_entry_is_a_miss_not_an_error(cache):
    key = "d" * 64
    cache.put(key, sample_characterization())
    cache.path(key).write_text("{ truncated garbage")
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert cache.stats.misses == 0  # distinguished from a true miss


def test_corrupt_entry_is_quarantined_not_reparsed(cache):
    """The garbage is moved aside for post-mortems; the next lookup is
    an honest miss, so the run re-executes instead of re-hitting the
    same corrupt file forever."""
    key = "d" * 64
    cache.put(key, sample_characterization())
    cache.path(key).write_text("{ truncated garbage")
    assert cache.get(key) is None
    assert cache.stats.quarantined == 1
    quarantine = cache.path(key).with_name(cache.path(key).name + ".corrupt")
    assert quarantine.exists()
    assert quarantine.read_text() == "{ truncated garbage"
    assert not cache.path(key).exists()
    # Second lookup: a plain miss, not another corruption event.
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert cache.stats.misses == 1
    # A fresh store for the same key works normally afterwards.
    cache.put(key, sample_characterization())
    assert cache.get(key) is not None


def test_schema_stale_entry_is_not_quarantined(cache):
    """An old-schema entry is valid data for an old build; leave it."""
    key = "e" * 64
    cache.put(key, sample_characterization())
    payload = json.loads(cache.path(key).read_text())
    payload["schema"] = -1
    cache.path(key).write_text(json.dumps(payload))
    assert cache.get(key) is None
    assert cache.stats.quarantined == 0
    assert cache.path(key).exists()


def test_clear_sweeps_quarantined_files(cache):
    key = "d" * 64
    cache.put(key, sample_characterization())
    cache.path(key).write_text("garbage")
    cache.get(key)  # quarantines
    cache.put("a" * 64, sample_finite())
    assert len(cache) == 1  # quarantine does not count as an entry
    assert cache.clear() == 1
    quarantine = cache.path(key).with_name(cache.path(key).name + ".corrupt")
    assert not quarantine.exists()


def test_unrebuildable_payload_counts_as_corrupt(cache):
    key = "1" * 64
    cache.put(key, sample_characterization())
    payload = json.loads(cache.path(key).read_text())
    payload["result"]["no_such_field"] = 1.0
    cache.path(key).write_text(json.dumps(payload))
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1


def test_schema_mismatch_is_a_miss(cache):
    key = "e" * 64
    cache.put(key, sample_characterization())
    payload = json.loads(cache.path(key).read_text())
    payload["schema"] = -1
    cache.path(key).write_text(json.dumps(payload))
    assert cache.get(key) is None
    assert cache.stats.schema_stale == 1
    assert cache.stats.corrupt == 0
    assert cache.stats.misses == 0
    assert cache.stats.total_misses == 1


def test_len_and_clear(cache):
    cache.put("f" * 64, sample_characterization())
    cache.put("a" * 64, sample_finite())
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0


def test_tmp_stragglers_not_counted_and_swept_by_clear(cache):
    """A run killed mid-store leaves a .tmp-*.json behind; it must not
    count as an entry (pathlib's glob matches dotfiles) and clear()
    must sweep it up without counting it."""
    key = "f" * 64
    cache.put(key, sample_characterization())
    straggler = cache.path(key).parent / ".tmp-killed-run.json"
    straggler.write_text('{"partial": ')
    assert len(cache) == 1
    assert cache.clear() == 1
    assert not straggler.exists()
    assert len(cache) == 0


def test_telemetry_counters_track_lookup_outcomes(tmp_path):
    from repro.telemetry import isolated

    with isolated() as reg:
        cache = ResultCache(tmp_path / "cache")
        cache.put("a" * 64, sample_characterization())
        cache.get("a" * 64)  # hit
        cache.get("0" * 64)  # miss
        cache.path("b" * 64).parent.mkdir(parents=True)
        cache.path("b" * 64).write_text("garbage")
        cache.get("b" * 64)  # corrupt
    assert reg.value("runtime.cache.stores") == 1
    assert reg.value("runtime.cache.hits") == 1
    assert reg.value("runtime.cache.misses") == 1
    assert reg.value("runtime.cache.corrupt") == 1
    assert reg.value("runtime.cache.quarantined") == 1
    assert reg.value("runtime.cache.schema_stale") == 0


def test_uncacheable_type_raises(cache):
    with pytest.raises(TypeError):
        cache.put("9" * 64, object())


# ----------------------------------------------------------------------
# Run-kind declarations in a fresh process
# ----------------------------------------------------------------------
def test_fresh_runtime_import_resolves_and_caches_every_builtin_kind(tmp_path):
    """Importing only ``repro.runtime`` declares all three built-in
    kinds (``import repro`` runs first and imports their modules), so a
    process that never names the experiments or the fleet still runs
    and round-trips their cached results."""
    script = textwrap.dedent(
        """
        import sys

        from repro.runtime import ResultCache, run_kind

        executors = {
            "characterization": "run_characterization",
            "finite_cpuburn": "run_finite_cpuburn",
            "rack-cell": "run_rack_cell",
        }
        for kind, name in executors.items():
            assert run_kind(kind).executor.__name__ == name, kind

        samples = {
            "characterization": run_kind("characterization").result(
                workload="cpuburn", p=0.5, idle_quantum=0.01, duration=10.0,
                mean_temp=40.1, temp_rise=8.1, idle_temp=32.0, work=17.9,
                energy=512.25, details={"dispatches": 7.0},
            ),
            "finite_cpuburn": run_kind("finite_cpuburn").result(
                p=0.25, idle_quantum=0.05, total_cpu=1.0, runtimes=[1.3, 1.4],
                energy=80.5, window=1.4, mean_schedules=12.0,
            ),
            "rack-cell": run_kind("rack-cell").result.from_payload({
                "run": {
                    "qos_good": 0.9, "qos_tolerable": 0.99, "mean_response": 0.2,
                    "mean_temp": 41.0, "peak_temp": 44.5, "energy": 900.0,
                    "work_done": 30.0, "requests": 120,
                },
                "idle_mean_temp": 33.0,
                "health": {"totals": {"alerts": 0}},
            }),
        }
        cache = ResultCache(sys.argv[1])
        for index, (kind, result) in enumerate(samples.items()):
            key = f"{index}" * 64
            cache.put(key, result)
            loaded = ResultCache(sys.argv[1]).get(key)
            assert type(loaded) is type(result) and loaded == result, kind
        print("ok")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
