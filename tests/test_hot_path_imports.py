"""No import statement runs inside the functions of the per-event modules.

An ``import`` inside a function executes on every call: a dict lookup
in ``sys.modules`` plus the import machinery's bookkeeping.  In the
dispatch path that is once per simulated event.  These modules resolve
their imports at module level instead; the only function-level imports
allowed are the named few that run once, when an object is built.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Modules whose functions run per simulated event.
PER_EVENT_MODULES = (
    "sched/scheduler.py",
    "sched/thread.py",
    "sched/runqueue.py",
    "sched/ule.py",
    "cpu/chip.py",
    "core/injector.py",
    "core/policy.py",
    "fleet/machine.py",
    "sim/engine.py",
    "workloads/webserver.py",
)

#: Function-level imports that run at construction time only:
#: (module, enclosing function, imported module).
CONSTRUCTION_IMPORTS = {
    # The ULE runqueue is chosen per node config, once per node.
    ("fleet/machine.py", "FleetNode.__init__", "..sched.ule"),
}


def function_imports(source):
    """``(enclosing function, imported module)`` of every import
    statement inside a function body of ``source``."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], in_function)
            else:
                if in_function and isinstance(child, ast.Import):
                    found.extend((".".join(scope), alias.name) for alias in child.names)
                elif in_function and isinstance(child, ast.ImportFrom):
                    found.append((".".join(scope), "." * child.level + (child.module or "")))
                visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return found


def test_checker_finds_nested_and_conditional_imports():
    source = (
        "import os\n"
        "if False:\n"
        "    from .x import y\n"
        "class A:\n"
        "    def f(self):\n"
        "        if self:\n"
        "            from ..a import b\n"
        "        def g():\n"
        "            import json\n"
    )
    assert function_imports(source) == [("A.f", "..a"), ("A.f.g", "json")]


@pytest.mark.parametrize("module", PER_EVENT_MODULES)
def test_per_event_module_imports_at_module_level(module):
    found = {
        (module, function, imported)
        for function, imported in function_imports((SRC / module).read_text())
    }
    assert found - CONSTRUCTION_IMPORTS == set()


def test_construction_time_exceptions_still_exist():
    for module, function, imported in CONSTRUCTION_IMPORTS:
        assert (function, imported) in function_imports((SRC / module).read_text())
