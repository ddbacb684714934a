"""Shared pytest fixtures."""

import pytest

import torictower.cli


@pytest.fixture(autouse=True)
def fresh_cli_cache():
    """Each test starts with nothing kept by the cli (no tower model, parsed
    argv or projective part): a model a test forged or built under a patched
    cap, and a parse a test counts, stay with that test."""
    for cache in (torictower.cli._model_of, torictower.cli._parsed, torictower.cli._projective_part):
        cache.cache_clear()
