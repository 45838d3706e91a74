"""Every entry point the end-to-end benchmark traces still exists.

``benchmarks/e2e/tracing.py`` wraps the functions and methods in its
``LAYERS`` table by name when a traced run starts.  A renamed or moved
entry point would crash that run or drop its layer; this resolves each
``(module, attribute)`` the way ``install`` does, so a rename fails here
first.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

from benchmarks.e2e.tracing import LAYERS


@pytest.mark.parametrize(
    "module_name, attribute",
    sorted({(module, attribute) for _, module, attribute in LAYERS}),
)
def test_layer_entry_point_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    owner_name, _, name = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    target = inspect.getattr_static(owner, name)
    if isinstance(target, (staticmethod, classmethod)):
        target = target.__func__
    assert callable(target)
