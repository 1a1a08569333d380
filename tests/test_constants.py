from __future__ import annotations

import scipy.constants

from cryomux import constants


def test_constants_equal_scipy_bit_for_bit():
    # scipy stays a test-only dependency: an independent source for the
    # exact SI values the package now carries itself
    assert constants.PLANCK == scipy.constants.h
    assert constants.BOLTZMANN == scipy.constants.k
    assert constants.HBAR == scipy.constants.hbar
