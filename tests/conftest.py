"""Each test starts with empty point-row and join memos, so a test that
counts what the memos hold, hit or build does not depend on which tests ran
before it."""

import pytest

import fatpoints.geom as geom
import fatpoints.linsys as linsys


@pytest.fixture(autouse=True)
def empty_memos():
    linsys._point_rows.cache_clear()
    geom._joined.cache_clear()
