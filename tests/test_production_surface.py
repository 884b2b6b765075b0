"""Every definition in ``src/repro`` is reached by production code.

Production is ``src/`` (the library, the CLI and the ``repro.testing``
invariant checks), ``benchmarks/`` and ``examples/``.  This parses every
module under ``src/repro`` with ``ast`` and lists its functions, classes
and methods.  A definition is reached when its name occurs in production
code as an ``Attribute``, a call keyword or a string constant that is an
identifier (a ``getattr`` name, say), or — for a module-level definition
only — as a ``Name`` that is read.  A method is never reached by a bare
name (a local or a parameter that happens to share it), and no definition
by a name that is only assigned.  Occurrences inside the
definition's own body, in docstrings, in ``__all__`` and in ``import``
re-exports do not count.  Dunders and methods that override a method of a
base class (found through the class MRO) are exempt, and so are
``repro.testing.World``, a test harness by design, and the named invariant
checks beside it (``repro.testing.check_*``), which tests call by design.
What is left must be in ``ALLOWED``, each with its reason.
"""

import ast
import functools
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PRODUCTION = ("src", "benchmarks", "examples")

EXEMPT_PREFIXES = ("repro.testing.World", "repro.testing.check_")

ALLOWED = {
    "repro.gossip.reliable.ReliableGossip.smoothed_rtt": "read-only accessor tests inspect",
    "repro.sim.engine.Engine.cancelled_pending": "read-only accessor tests inspect",
    "repro.common.rng.StreamRandom.words_consumed": "read-only accessor tests inspect",
    "repro.metrics.graph.OverlaySnapshot.node_count": "read-only accessor tests inspect",
    "repro.metrics.graph.OverlaySnapshot.edge_count": "read-only accessor tests inspect",
    "repro.sim.network.Network.link_rules": "read-only accessor tests inspect",
    "repro.runtime.node.RuntimeNode.passive_view": "read-only accessor tests inspect",
    "repro.runtime.transport.AsyncioTransport.peer_epoch": "read-only accessor tests inspect",
    "repro.common.messages.registered_message_types": "read-only accessor tests inspect",
    "repro.runtime.node.RuntimeNode.start_cycles": "the live node's only way to start shuffles",
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@functools.lru_cache(maxsize=1)
def _production_files() -> tuple[tuple[pathlib.Path, ast.Module], ...]:
    paths = sorted(path for top in PRODUCTION for path in (ROOT / top).rglob("*.py"))
    return tuple((path, ast.parse(path.read_text(), str(path))) for path in paths)


def _docstrings(tree: ast.Module) -> set[int]:
    owners = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return {
        id(owner.body[0].value)
        for owner in owners
        if owner.body
        and isinstance(owner.body[0], ast.Expr)
        and isinstance(owner.body[0].value, ast.Constant)
    }


def _all_lists(tree: ast.Module) -> set[int]:
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped |= {id(sub) for sub in ast.walk(node.value)}
    return skipped


@functools.lru_cache(maxsize=1)
def _occurrences() -> dict[str, list[tuple[pathlib.Path, int, bool]]]:
    """Every identifier occurrence in production code:
    name -> [(file, line, whether it is a bare name)]."""
    found: dict[str, list[tuple[pathlib.Path, int, bool]]] = {}
    for path, tree in _production_files():
        skipped = _docstrings(tree) | _all_lists(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Load):
                    continue
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.keyword) and node.arg:
                name = node.arg
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
                and id(node) not in skipped
            ):
                name = node.value
            else:
                continue
            found.setdefault(name, []).append((path, node.lineno, isinstance(node, ast.Name)))
    return found


def _definitions():
    """Yield (qualified name, file, def node, owning class qualname or None)."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        tree = ast.parse(path.read_text(), str(path))

        def walk(body, prefix, owner):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    qualname = f"{prefix}.{node.name}"
                    yield qualname, path, node, owner
                    if isinstance(node, ast.ClassDef):
                        yield from walk(node.body, qualname, qualname)

        yield from walk(tree.body, module, None)


def _resolve(qualname: str):
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise LookupError(qualname)


def _overrides(owner: str, name: str) -> bool:
    cls = _resolve(owner)
    return any(name in vars(base) for base in cls.__mro__[1:])


def _unreached() -> list[str]:
    occurrences = _occurrences()
    unreached = []
    for qualname, path, node, owner in _definitions():
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if qualname.startswith(EXEMPT_PREFIXES):
            continue
        if owner is not None and _overrides(owner, name):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        outside = [
            (where, line)
            for where, line, bare in occurrences.get(name, [])
            if not (where == path and first <= line <= node.end_lineno)
            and not (bare and owner is not None)
        ]
        if not outside:
            unreached.append(qualname)
    return unreached


def test_every_definition_is_reached_by_production_code():
    unreached = [name for name in _unreached() if name not in ALLOWED]
    assert unreached == [], f"definitions no production path reaches: {unreached}"


def test_every_allowlisted_definition_is_still_unreached():
    unreached = set(_unreached())
    stale = sorted(name for name in ALLOWED if name not in unreached)
    assert stale == [], f"allowlist entries that are reached or gone: {stale}"


def test_allowlist_stays_short():
    assert len(ALLOWED) <= 15
