"""Suite reports shared by the whole test session, and a planted stall.

The morphism suite takes seconds; building each report once lets
test_laws.py and test_acceptance.py read the same run.
"""

import pytest

from locale_lab import measure
from locale_lab.intervals import EMPTY_RO
from locale_lab.laws import (
    run_frame_suite,
    run_measure_suite,
    run_morphism_suite,
    run_sublocale_suite,
)
from locale_lab.presented import Closed, LazyOpen, neighborhood


@pytest.fixture(scope="session")
def frame_report():
    return run_frame_suite()


@pytest.fixture(scope="session")
def sublocale_report():
    return run_sublocale_suite()


@pytest.fixture(scope="session")
def morphism_report():
    return run_morphism_suite()


@pytest.fixture(scope="session")
def measure_report():
    return run_measure_suite()


@pytest.fixture
def stuck_partners(monkeypatch):
    """Every part whose dual is not the whole gets a partner whose
    neighbourhoods never close: each stage is empty and its rest stays 1,
    so stream_bounds stalls on its lower side. No part of the grammar
    stalls otherwise."""
    stuck, never = object(), LazyOpen(lambda n: EMPTY_RO, lambda n: (1, 1))
    dual, whole = measure._dual, Closed(EMPTY_RO)
    monkeypatch.setattr(measure, "_dual", lambda x: whole if dual(x) == whole else stuck)
    monkeypatch.setattr(measure, "neighborhood",
                        lambda x, k: never if x is stuck else neighborhood(x, k))
