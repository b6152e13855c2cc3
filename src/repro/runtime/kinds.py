"""Run kinds: what one batch run executes, returns, and is keyed by.

:func:`register_executor` declares a kind in one call, next to its
executor: the executor itself, the result dataclass the cache stores
(a kind without one runs but is never cached), the source trees
whose fingerprint keys its cache entries, and optionally a batch
executor that runs several of the kind's specs in one task.  The
runner, the result cache and
:attr:`RunSpec.key <repro.runtime.parallel.RunSpec.key>` all read
this one table.

The built-in kinds are declared in :mod:`repro.experiments.runner`
(``characterization``, ``transient``, ``hot_cool_mix``, ``web_qos``,
``power_trace``, ``finite_cpuburn``) and :mod:`repro.fleet.cells`
(``rack-cell``).  ``repro/__init__.py`` imports both, and any
``import repro.<x>`` runs it first, so every process — a ``spawn``
worker included — sees them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .hashing import PHYSICS_MODULES


@dataclass(frozen=True)
class RunKind:
    """One declared run kind (see the module docstring)."""

    executor: Callable[..., Any]
    #: The cacheable result dataclass, or None for an uncached kind.
    result: Optional[type]
    #: Package-relative source paths fingerprinted into the kind's keys.
    code: Tuple[str, ...]
    #: ``batch([(config, params), ...]) -> [result, ...]``: runs several
    #: specs of this kind in one task, each result equal to ``executor``'s;
    #: None when the kind only runs one spec at a time.
    batch: Optional[Callable[[Sequence[Tuple[Any, Mapping[str, Any]]]], List[Any]]] = None


_KINDS: Dict[str, RunKind] = {}


def register_executor(
    kind: str,
    fn: Callable[..., Any],
    *,
    result: Optional[type] = None,
    code: Sequence[str] = PHYSICS_MODULES,
    batch: Optional[Callable[..., List[Any]]] = None,
) -> None:
    """Declare run kind ``kind``: ``fn(config, **params) -> result``.

    With ``result`` the kind is cacheable: the cache stores a result as
    ``dataclasses.asdict`` and rebuilds it through
    ``result.from_payload`` when the type defines one (for nested
    dataclasses), else ``result(**payload)``.  The rebuilt result must
    equal the original, or cached replay is not bit-identical.  Editing
    any source tree in ``code`` invalidates the kind's cached results.
    With ``batch`` the runner may hand the kind's cache misses over
    several at a time (see :data:`repro.runtime.parallel.BATCH_WIDTH`);
    each batched result must equal ``fn``'s for the same spec, or a
    batched run would not be the run its key names.  ``fork`` workers
    inherit a custom kind's declaration.
    """
    _KINDS[kind] = RunKind(executor=fn, result=result, code=tuple(code), batch=batch)


def run_kind(kind: str) -> RunKind:
    """The declaration of ``kind``; unknown kinds are a
    :class:`~repro.errors.ConfigurationError`."""
    try:
        return _KINDS[kind]
    except KeyError:
        raise ConfigurationError(f"unknown run kind {kind!r}") from None


def code_of(kind: str) -> Tuple[str, ...]:
    """The source trees keying ``kind``.  An undeclared kind is keyed
    like a physics run, so it fails when it executes, not when the
    runner looks it up in the cache."""
    declared = _KINDS.get(kind)
    return PHYSICS_MODULES if declared is None else declared.code


def batch_executor(kind: str) -> Optional[Callable[..., List[Any]]]:
    """``kind``'s batch executor; None when the kind is undeclared or
    runs one spec at a time."""
    declared = _KINDS.get(kind)
    return None if declared is None else declared.batch


def result_kind(result: Any) -> Optional[str]:
    """The kind that declared ``type(result)`` as its result, or None."""
    cls = type(result)
    return next((name for name, declared in _KINDS.items() if declared.result is cls), None)


def result_type(kind: str) -> Optional[type]:
    """The result dataclass ``kind`` caches; None when the kind is
    undeclared or uncached."""
    declared = _KINDS.get(kind)
    return None if declared is None else declared.result
