"""Test-suite configuration: any warning raised by a test under tests/ fails it."""

from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent


def pytest_collection_modifyitems(items):
    # A mark on each item rather than `filterwarnings` in pyproject.toml, so
    # that the rule stays with this suite when other suites (bench/) run in
    # the same session.
    for item in items:
        if TESTS_DIR in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
