"""Suite reports shared by the whole test session.

The morphism suite takes seconds; building each report once lets
test_laws.py and test_acceptance.py read the same run.
"""

import pytest

from locale_lab.laws import (
    run_frame_suite,
    run_measure_suite,
    run_morphism_suite,
    run_sublocale_suite,
)


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
