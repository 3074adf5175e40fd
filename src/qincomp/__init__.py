"""Numerical toolkit for detecting nonphysical qubit operations through
LOCC-incomparable bipartite pure states.

Anti-unitary maps and restricted inner-product-preserving superposition
maps, applied to one qubit of a shared 3x4 probe state, deterministically
convert between pairs of states that majorization forbids in both
directions.  This package builds the probe scenarios, computes Schmidt
vectors by two independent eigensolvers, classifies pairs, and sweeps the
operation's parameter space.  The root binds only __version__: import
the modules themselves (from qincomp import cases, sweep, ...).
"""

__version__ = "0.1.0"
