"""The suite's warning filters: a deprecation raised from the package fails the test."""

from __future__ import annotations

import warnings

import pytest


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
def test_package_deprecations_are_errors(category):
    for module in ("dispersim", "dispersim.laws", "dispersim.cli"):
        with pytest.raises(category, match="removed API"):
            warnings.warn_explicit("removed API", category, "laws.py", 1, module=module)
