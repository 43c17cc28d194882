"""Numerical laboratory for the landscape function of random Schrodinger operators."""

__version__ = "0.1.0"

# Shared by the library and the CLI's key tables, and kept here so that
# reading them loads no solver module
MAX_NODES = 1 << 24     # memory budget guard: nodes of a grid, sites of a box
DEFAULT_TOL = 1e-9      # relative residual a solve stops at unless given another
