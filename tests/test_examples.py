"""The example scripts still import, and the quick ones still run.

Every example keeps its work under a ``__main__`` guard, so importing one
checks that every name it uses from :mod:`repro` still exists.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Examples whose ``main()`` takes about a second; the others measure a
#: metrics table and grade the core, which takes minutes.
QUICK = ("constraint_analysis", "fir_filter_selftest")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"examples.{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(p.stem for p in EXAMPLES.glob("*.py")))
def test_example_imports(name):
    assert callable(_load(name).main)


@pytest.mark.parametrize("name", QUICK)
def test_quick_example_runs(name, capsys):
    _load(name).main()
    assert capsys.readouterr().out
