"""Collection hooks.

Acceptance races 08 and 09 run for minutes; they are marked ``slow`` here,
so that ``pytest -m "not slow"`` gives a quick inner loop while a plain
``pytest`` still runs them.
"""

import pytest

SLOW_PREFIXES = ("test_acceptance_08", "test_acceptance_09")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.name.startswith(SLOW_PREFIXES):
            item.add_marker(pytest.mark.slow)
