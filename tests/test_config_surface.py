"""Every settable config field is set somewhere in production code.

A field that ``src/`` and ``benchmarks/`` only ever leave at its default
is one value in use: it belongs in a module constant beside the code that
reads it, not on a config class.  This walks the production sources with
``ast`` and collects the keyword names each class is given — in a call to
the class, as ``cls(...)`` in its own classmethods, or through
``dataclasses.replace`` — and asserts that every field is among them.
"""

import ast
import functools
import pathlib
from dataclasses import fields

import pytest

from repro.experiments.params import ExperimentParams
from repro.experiments.registry import TierConfig
from repro.protocols.cyclon import CyclonConfig
from repro.service.limits import BreakerConfig
from repro.service.pubsub import ServiceConfig

ROOT = pathlib.Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=1)
def _production_trees() -> tuple[ast.Module, ...]:
    paths = sorted(
        path for directory in ("src", "benchmarks") for path in (ROOT / directory).rglob("*.py")
    )
    return tuple(ast.parse(path.read_text(), str(path)) for path in paths)


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _keywords(calls) -> set[str]:
    return {keyword.arg for call in calls for keyword in call.keywords if keyword.arg}


def _keywords_given(cls) -> set[str]:
    given = set()
    for tree in _production_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
                given |= _keywords(
                    call
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and _callee(call) == "cls"
                )
            elif isinstance(node, ast.Call) and _callee(node) in (cls.__name__, "replace"):
                given |= _keywords([node])
    return given


@pytest.mark.parametrize(
    "cls",
    [ExperimentParams, TierConfig, CyclonConfig, ServiceConfig, BreakerConfig],
    ids=lambda cls: cls.__name__,
)
def test_every_field_is_set_by_production_code(cls):
    given = _keywords_given(cls)
    unset = [field.name for field in fields(cls) if field.name not in given]
    assert unset == [], f"{cls.__name__} fields only ever at their default: {unset}"
