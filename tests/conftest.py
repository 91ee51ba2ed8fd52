"""Marks the production-size acceptance criteria as slow.

``pytest -m "not slow"`` then runs the quick unit suite only.
"""

import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)
