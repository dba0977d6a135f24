"""The benchmark's jobs call weylkit as ``module.f(...)`` with keyword
arguments; a call that no longer binds (a dropped keyword, a renamed
function) must fail here, not only in a benchmark run.  Only reads the
source of ``perfbench/workloads.py``; nothing there is run."""

import ast
import importlib
import inspect
import os

import pytest

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def _dotted(node):
    """The names of an attribute chain a.b.c, or None if it is not one."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + names[::-1]


def _calls():
    """(source line, weylkit module, attribute path, positional count or None
    when starred, keywords) of every call through a weylkit module."""
    with open(WORKLOADS) as f:
        tree = ast.parse(f.read())
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "weylkit"
               for alias in node.names}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        path = _dotted(node.func)
        if path is None or len(path) < 2 or path[0] not in modules:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        calls.append((node.lineno, modules[path[0]], path[1:],
                      None if starred else len(node.args),
                      tuple(k.arg for k in node.keywords if k.arg is not None)))
    return sorted(calls)


CALLS = _calls()
TARGETS = sorted({(mod, ".".join(path)) for _, mod, path, _, _ in CALLS})


def test_finds_the_keyword_calls():
    found = {(mod, ".".join(path), kw) for _, mod, path, _, kws in CALLS for kw in kws}
    assert {("structured", "recover_potential", "factor"),
            ("structured", "canonical_from_kernel", "return_factor"),
            ("fourier", "weyl_from_amplitude", "gl_order")} <= found


@pytest.mark.parametrize("modname,name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_calls_bind(modname, name):
    target = importlib.import_module(f"weylkit.{modname}")
    for attr in name.split("."):
        target = getattr(target, attr)
    sig = inspect.signature(target)
    takes_any = any(p.kind is p.VAR_KEYWORD for p in sig.parameters.values())
    for line, mod, path, npos, keywords in CALLS:
        if (mod, ".".join(path)) != (modname, name):
            continue
        if npos is None:
            assert takes_any or set(keywords) <= set(sig.parameters), f"line {line}"
        else:
            try:
                sig.bind(*[None] * npos, **dict.fromkeys(keywords))
            except TypeError as exc:
                pytest.fail(f"perfbench/workloads.py line {line}: {exc}")
