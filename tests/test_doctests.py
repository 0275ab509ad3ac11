"""Run the doctests embedded in module docstrings.

Keeps every usage example in the documentation executable.
"""

import doctest
import importlib

import pytest

# importlib is needed because package __init__ re-exports can shadow the
# submodule attribute (repro.text.tokenize is also a function).
MODULES = [
    importlib.import_module(name)
    for name in (
        "repro._rng",
        "repro.finance.parser",
        "repro.text.normalize",
        "repro.text.tokenize",
    )
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
