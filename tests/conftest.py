"""Shared pytest fixtures."""

import pytest

import torictower.cli


@pytest.fixture(autouse=True)
def fresh_cli_cache():
    """Each test starts with no tower model kept by the cli: a model a test
    forged or built under a patched cap stays with that test."""
    torictower.cli._model_of.cache_clear()
