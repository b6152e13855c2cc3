"""Stable cache keys for experiment runs.

A cached result is only valid if *everything that determines it* is
unchanged: the :class:`~repro.experiments.config.ExperimentConfig`
(including its nested thermal/power/C-state parameter dataclasses), the
run's own parameters, and the source code the run executes.  This
module canonicalises the first two (:func:`freeze`) and fingerprints
the third (:func:`code_fingerprint`), then folds them into one SHA-256
key (:func:`spec_key`).

Which source trees key a run is part of its kind's declaration
(:func:`~repro.runtime.kinds.register_executor`).  By default it is
:data:`PHYSICS_MODULES`, the packages whose source determines one
machine's simulated outcome: editing documentation, benchmarks, the
CLI, or this runtime layer leaves every cached result valid; editing
the scheduler or the thermal model invalidates the whole cache.  Rack
cells declare the fleet, health and SLO packages on top
(:mod:`repro.fleet.cells`), so a fleet-layer edit invalidates exactly
the rack-cell entries and never the figure sweeps.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Sequence, Tuple

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

#: code tuple -> its fingerprint: a process keys every run by the
#: source it hashed first.
_fingerprints: Dict[Tuple[str, ...], str] = {}


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


def code_fingerprint(code: Sequence[str] = PHYSICS_MODULES) -> str:
    """SHA-256 over the package source trees ``code`` names (memoised
    per tuple).

    Files are hashed in sorted relative-path order together with their
    paths, so renames and content edits both change the fingerprint.
    """
    code = tuple(code)
    fingerprint = _fingerprints.get(code)
    if fingerprint is not None:
        return fingerprint
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for entry in code:
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
    fingerprint = _fingerprints[code] = digest.hexdigest()
    return fingerprint


def config_hash(config: Any) -> str:
    """SHA-256 over a frozen config — the manifest's config identity.

    Unlike :func:`spec_key` this covers only the configuration, not the
    code fingerprint or run parameters, so it answers "same settings?"
    across code versions.
    """
    blob = json.dumps(freeze(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def spec_key(
    kind: str, config: Any, params: Any, *, code: Sequence[str] = PHYSICS_MODULES
) -> str:
    """The cache key for one run: hash of (schema, code, kind, inputs),
    where ``code`` names the source trees the run's kind declared."""
    document = {
        "schema": CACHE_SCHEMA_VERSION,
        "code": code_fingerprint(code),
        "kind": kind,
        "config": freeze(config),
        "params": freeze(params),
    }
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
