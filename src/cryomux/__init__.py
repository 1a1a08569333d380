"""Simulation and analysis toolkit for multiplexed cryogenic microwave
resonator characterisation.

Modules: two-port network algebra (``rfnet``), the cryo-CMOS switch
multiplexer (``muxsim``), resonator physics (``resonator``), dielectric loss
budgets (``lossbudget``), Stark-shift thermometry (``stark``), the fits
(``fitkit``), measurement-chain synthesis (``chain``), the JSON and CSV file
formats (``jsonfile``, ``csvfile``), physical constants (``constants``),
errors (``errors``) and the command line (``cli``).
"""

__version__ = "0.1.0"
