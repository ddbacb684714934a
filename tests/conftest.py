"""Shared pytest fixtures."""

import pytest

import torictower.cli
import torictower.toric
import torictower.tower


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with nothing kept by the cli (no tower spec or model,
    parsed argv or projective part), no kept tower level and no kept K + B
    solve: a model a test forged or built under a patched cap, and a parse,
    build, level or solve a test counts, stay with that test.  A kept level
    is keyed on the digit limit, so a test that lowers the limit builds and
    checks its levels again; a patched cap constant is in no key."""
    for cache in (torictower.cli._spec_of, torictower.cli._model_of, torictower.cli._parsed,
                  torictower.cli._projective_part):
        cache.cache_clear()
    torictower.tower._LEVELS.clear()
    torictower.toric._last_log_pair[0] = (None, None, None)
