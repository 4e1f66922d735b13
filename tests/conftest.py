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
from locale_lab.presented import Closed, LazyOpen, Open, neighborhood, normal_form


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
    """Every part whose dual is not the whole (by normal form) gets a
    partner whose neighbourhoods never close: each stage is empty and its
    rest stays 1, so stream_bounds stalls on its lower side. No part of
    the grammar stalls otherwise. The partner is an empty open of its own,
    so its normal form is never the whole's."""
    stuck, never = Open(EMPTY_RO), LazyOpen(lambda n: EMPTY_RO, lambda n: (1, 1))
    dual, whole = measure._dual, normal_form(Closed(EMPTY_RO))
    monkeypatch.setattr(measure, "_dual",
                        lambda x: dual(x) if normal_form(dual(x)) == whole else stuck)
    monkeypatch.setattr(measure, "neighborhood",
                        lambda x, k: never if x is stuck else neighborhood(x, k))
