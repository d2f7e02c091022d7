"""Every name in ``hermult.__all__`` must resolve, so that a stale entry
fails here and not in ``from hermult import *``."""

import pytest

import hermult


@pytest.mark.parametrize("name", hermult.__all__)
def test_exported_name_resolves(name):
    assert hasattr(hermult, name)
