"""The demos call the package with arguments its signatures accept.

The demos are scripts that no other test runs, so a renamed or deleted
parameter would break one silently.  This reads each demo's syntax tree and
binds every call of a name imported from krr_regimes against that name's
signature, without running the demo.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _package_calls(tree):
    """(call node, the imported object it calls) for each call of a krr_regimes name."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("krr_regimes"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    return [(node, imported[node.func.id]) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in imported]


def test_there_are_demos_to_check():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_calls_bind_to_the_package_signatures(demo):
    calls = _package_calls(ast.parse(demo.read_text(), filename=str(demo)))
    assert calls, f"{demo.name} calls nothing of krr_regimes"
    for node, target in calls:
        where = f"{demo.name}:{node.lineno} {node.func.id}"
        # Unpacked arguments cannot be counted from the syntax tree alone.
        assert not any(isinstance(arg, ast.Starred) for arg in node.args), where
        assert all(kw.arg is not None for kw in node.keywords), where
        try:
            inspect.signature(target).bind(*node.args,
                                           **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as err:
            pytest.fail(f"{where}: {err}")
