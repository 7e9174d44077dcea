"""Checks that run around every test."""

import numpy as np
import pytest

from hmmaccel import model


@pytest.fixture(autouse=True)
def adopted_datasets_hold_the_invariant(monkeypatch):
    """Every Dataset adopted during a test, including those that the
    loaders, `sample_sequences`, `take` and clustering's `_collapse` adopt
    unchecked, must hold the invariant that the public constructors check.
    A breach is an AssertionError, which no test's
    `pytest.raises(ValueError)` can take for the refusal it expects."""
    adopt = model.Dataset._adopt

    def checked(self, values, offsets):
        assert values.dtype == offsets.dtype == np.int64
        try:
            model._checked(values, offsets)
        except ValueError as exc:
            raise AssertionError(f"a Dataset was adopted that breaks the invariant: {exc}") from None
        return adopt(self, values, offsets)

    monkeypatch.setattr(model.Dataset, "_adopt", checked)
