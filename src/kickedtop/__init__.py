"""Kicked-top simulation lab.

A generic spin-j Floquet engine on the permutation-symmetric subspace plus
exact closed-form solutions for the 3- and 4-qubit cases, entanglement
measures, the classical limit map, Husimi-style sphere grids, and a
tomography post-processing pipeline.  Each closed form has a numeric
cross-check in the test suite.
"""

__version__ = "0.1.0"
