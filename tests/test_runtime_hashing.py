"""Tests for cache-key hashing: canonicalisation, sensitivity, stability."""

from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.injector import IdleMode
from repro.errors import ConfigurationError
from repro.experiments import fast_config
from repro.runtime import characterization_spec, code_fingerprint, freeze, spec_key
from repro.runtime.hashing import PHYSICS_MODULES


# ----------------------------------------------------------------------
# freeze
# ----------------------------------------------------------------------
def test_freeze_primitives_pass_through():
    assert freeze(None) is None
    assert freeze(True) is True
    assert freeze(3) == 3
    assert freeze(2.5) == 2.5
    assert freeze("x") == "x"


def test_freeze_dataclass_is_tagged_and_recursive():
    frozen = freeze(fast_config())
    assert frozen["__type__"] == "ExperimentConfig"
    assert frozen["seed"] == 0
    assert frozen["thermal"]["__type__"] == "ThermalParams"


def test_freeze_enum_and_numpy():
    assert freeze(IdleMode.HALT) == ["IdleMode", "HALT"]
    assert freeze(np.float64(1.5)) == 1.5
    assert freeze(np.array([1.0, 2.0])) == [1.0, 2.0]


def test_freeze_rejects_unhashable_values():
    with pytest.raises(ConfigurationError):
        freeze(lambda: None)


# ----------------------------------------------------------------------
# spec_key
# ----------------------------------------------------------------------
def test_key_is_deterministic_and_param_order_insensitive():
    cfg = fast_config()
    a = spec_key("characterization", cfg, {"p": 0.5, "idle_quantum": 0.01})
    b = spec_key("characterization", cfg, {"idle_quantum": 0.01, "p": 0.5})
    assert a == b
    assert len(a) == 64


def test_key_changes_with_any_input():
    cfg = fast_config()
    base = spec_key("characterization", cfg, {"p": 0.5})
    assert spec_key("finite_cpuburn", cfg, {"p": 0.5}) != base
    assert spec_key("characterization", cfg.with_seed(1), {"p": 0.5}) != base
    assert spec_key("characterization", cfg, {"p": 0.25}) != base
    assert (
        spec_key("characterization", cfg.scaled(num_cores=2), {"p": 0.5}) != base
    )


def test_runspec_key_matches_spec_key():
    cfg = fast_config()
    spec = characterization_spec(cfg, p=0.5, idle_quantum=0.01)
    assert spec.key == spec_key(
        "characterization", cfg, {"p": 0.5, "idle_quantum": 0.01}
    )


# ----------------------------------------------------------------------
# code fingerprint
# ----------------------------------------------------------------------
def test_code_fingerprint_is_stable_within_a_process():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_fingerprint_covers_simulation_but_not_runtime():
    """The runtime layer orchestrates runs but never changes their
    outcome, so editing it must not invalidate cached results."""
    assert "sim" in PHYSICS_MODULES
    assert "thermal" in PHYSICS_MODULES
    assert "runtime" not in PHYSICS_MODULES
    # Of ``experiments`` only what one run executes counts: how a figure
    # arranges or renders its runs never changes a run's outcome.
    for executor in ("runner.py", "machine.py", "config.py"):
        assert f"experiments/{executor}" in PHYSICS_MODULES
    assert "experiments" not in PHYSICS_MODULES
    for glue in ("sweeps.py", "figures.py", "tables.py", "reporting.py"):
        assert f"experiments/{glue}" not in PHYSICS_MODULES
    # A misspelt entry would silently drop out of the hash.
    package_root = Path(repro.__file__).parent
    for entry in PHYSICS_MODULES:
        assert (package_root / entry).exists(), entry
