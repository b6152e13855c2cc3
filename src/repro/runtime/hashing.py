"""Stable cache keys for experiment runs.

A cached result is only valid if *everything that determines it* is
unchanged: the :class:`~repro.experiments.config.ExperimentConfig`
(including its nested thermal/power/C-state parameter dataclasses), the
run's own parameters, and the simulation source code itself.  This
module canonicalises the first two (:func:`freeze`) and fingerprints
the third (:func:`code_fingerprint`), then folds them into one SHA-256
key (:func:`spec_key`).

The code fingerprint deliberately covers only the packages whose
source determines simulation *outcomes* (see :data:`PHYSICS_MODULES`).
Editing documentation, benchmarks, the CLI, or this runtime layer
leaves every cached result valid; editing the scheduler or the thermal
model invalidates the whole cache.

Rack-cell runs (:mod:`repro.fleet.cells`) additionally depend on the
rest of the fleet layer (balancers, scheduling policies, the rack
experiments), health, and SLO analysis, which the base fingerprint
deliberately excludes (editing them must not invalidate figure
sweeps).  :func:`fleet_fingerprint` covers those packages
(:data:`FLEET_MODULES`); rack-cell specs fold it in through
:func:`spec_key`'s ``extra_code`` parameter, so a fleet code edit
invalidates exactly the rack-cell entries and nothing else.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Any, Optional

import numpy as np

from ..errors import ConfigurationError

#: Bump when the cached-result payload layout changes.
CACHE_SCHEMA_VERSION = 1

#: Paths (relative to the ``repro`` package) whose source determines
#: simulation outcomes and therefore participates in the fingerprint.
#: ``fleet/machine.py`` is where every server — a single-machine
#: figure run's included — is wired and integrated.  Of
#: ``experiments`` only the run executors and what they build count:
#: the sweep, figure and table glue arranges runs and renders results
#: but never changes a run's outcome.
PHYSICS_MODULES = (
    "sim",
    "sched",
    "cpu",
    "thermal",
    "core",
    "workloads",
    "instruments",
    "experiments/runner.py",
    "experiments/machine.py",
    "experiments/config.py",
    "fleet/machine.py",
    "units.py",
    "errors.py",
)

#: Paths (relative to the ``repro`` package) that rack-cell runs
#: additionally depend on: the fleet layer (machines, balancers,
#: scheduling policies, the experiments themselves), health monitoring,
#: and the SLO scorer.  Kept separate from :data:`PHYSICS_MODULES` so
#: editing them never invalidates cached figure sweeps (the machine
#: wiring, ``fleet/machine.py``, is physics as well).
FLEET_MODULES = (
    "fleet",
    "health",
    "analysis",
)

_fingerprint_cache: Optional[str] = None
_fleet_fingerprint_cache: Optional[str] = None


def freeze(value: Any) -> Any:
    """Canonicalise ``value`` into JSON-serialisable primitives.

    Dataclasses become tagged field dicts, enums become
    ``[class, member]`` pairs, numpy scalars/arrays collapse to Python
    numbers/lists, and dict keys are stringified (JSON sorts them at
    dump time).  Anything else is rejected loudly rather than hashed by
    repr, which would silently vary across processes.
    """
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.name]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        frozen = {"__type__": type(value).__name__}
        for f in dataclasses.fields(value):
            frozen[f.name] = freeze(getattr(value, f.name))
        return frozen
    if isinstance(value, dict):
        return {str(k): freeze(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [freeze(v) for v in value]
    if isinstance(value, np.ndarray):
        return [freeze(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot build a stable cache key from a {type(value).__name__} value"
    )


def _hash_modules(entries) -> str:
    """SHA-256 over the named package source trees.

    Files are hashed in sorted relative-path order together with their
    paths, so renames and content edits both change the fingerprint.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for entry in entries:
        path = package_root / entry
        if path.is_file():
            files = [path]
        elif path.is_dir():
            files = sorted(path.rglob("*.py"))
        else:  # pragma: no cover - only on a broken install
            continue
        for source in files:
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(source.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()


def code_fingerprint() -> str:
    """SHA-256 over the simulation-relevant source files (memoised)."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        _fingerprint_cache = _hash_modules(PHYSICS_MODULES)
    return _fingerprint_cache


def fleet_fingerprint() -> str:
    """SHA-256 over the fleet/health/analysis source files (memoised).

    Folded into rack-cell cache keys (see :mod:`repro.fleet.cells`), so
    editing a balancer, scheduling policy, health monitor, or the SLO
    scorer invalidates cached rack cells without touching the far more
    expensive figure-sweep entries.
    """
    global _fleet_fingerprint_cache
    if _fleet_fingerprint_cache is None:
        _fleet_fingerprint_cache = _hash_modules(FLEET_MODULES)
    return _fleet_fingerprint_cache


def config_hash(config: Any) -> str:
    """SHA-256 over a frozen config — the manifest's config identity.

    Unlike :func:`spec_key` this covers only the configuration, not the
    code fingerprint or run parameters, so it answers "same settings?"
    across code versions.
    """
    blob = json.dumps(freeze(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def spec_key(
    kind: str, config: Any, params: Any, *, extra_code: Optional[str] = None
) -> str:
    """The cache key for one run: hash of (schema, code, kind, inputs).

    ``extra_code``, when given, is an additional code fingerprint the
    run depends on (rack cells pass :func:`fleet_fingerprint`).  It is
    folded into the document only when present, so keys of runs without
    one are unchanged from earlier layouts.
    """
    document = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": code_fingerprint(),
        "kind": kind,
        "config": freeze(config),
        "params": freeze(params),
    }
    if extra_code is not None:
        document["extra_code"] = extra_code
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
