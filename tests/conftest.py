"""Each test starts with empty point-row, conjugate, join, first-sample,
elimination and certificate stores, so a test that counts what the stores
hold, hit or build does not depend on which tests ran before it."""

import pytest

import fatpoints.geom as geom
import fatpoints.linsys as linsys
import fatpoints.poly as poly
import fatpoints.unexpected as unexpected


@pytest.fixture(autouse=True)
def empty_memos():
    linsys._point_rows.cache_clear()
    linsys._conjugates.cache_clear()
    geom._joined.cache_clear()
    unexpected._first_sample.cache_clear()
    poly._eliminations.clear()
    poly._certificates.clear()
