"""Exact SI defining constants (2019 redefinition) used by the physics code."""

from __future__ import annotations

import math

#: Planck constant, J s
PLANCK = 6.62607015e-34
#: Boltzmann constant, J/K
BOLTZMANN = 1.380649e-23
#: reduced Planck constant, J s
HBAR = PLANCK / (2 * math.pi)
