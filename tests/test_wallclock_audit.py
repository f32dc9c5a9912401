"""Static audit: no wall-clock in simulated-time decision modules.

Every cadence in the engine family — idle sweeps, telemetry snapshots,
churn deadlines, serving micro-batches, fabric hop fan-out — fires off
*packet timestamps*.  A single ``time.time()`` (or ``datetime.now()``)
creeping into one of these modules would make results depend on host
speed and break the bit-identity contract (trace replay == packet
stream == serving == fabric), so the modules below are pinned
wall-clock-free by AST inspection.  Wall-clock is legitimately used elsewhere — the CLI's
throughput timers, the sharded driver's worker watchdog, the HTTP ops
surface — which is exactly why those modules are *not* on this list.
"""

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent

#: Modules whose every decision must be simulated-time only.
AUDITED = [
    "serve.py",
    "sim/churn.py",
    "sim/engine.py",
    "net/fabric.py",
    "net/topology.py",
]

#: Modules that must never be imported there (wall-clock sources).
FORBIDDEN_MODULES = {"time", "datetime"}


def _violations(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in FORBIDDEN_MODULES:
                    found.append(
                        f"{path.name}:{node.lineno} imports {alias.name}"
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in FORBIDDEN_MODULES:
                found.append(
                    f"{path.name}:{node.lineno} imports from {node.module}"
                )
        elif isinstance(node, ast.Attribute):
            # Catches time.time()/time.monotonic() reached through an
            # aliased module object smuggled in some other way.
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in FORBIDDEN_MODULES
            ):
                found.append(
                    f"{path.name}:{node.lineno} uses "
                    f"{node.value.id}.{node.attr}"
                )
    return found


@pytest.mark.parametrize("relpath", AUDITED)
def test_module_is_wallclock_free(relpath):
    violations = _violations(SRC / relpath)
    assert not violations, (
        "wall-clock leaked into a simulated-time module:\n  "
        + "\n  ".join(violations)
    )


def test_audited_modules_exist():
    for relpath in AUDITED:
        assert (SRC / relpath).is_file(), relpath
