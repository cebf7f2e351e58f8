"""Exact spectra, stability and rigidity of sine-cones over positive
Einstein manifolds, with symbolic and numerical verification engines."""

__version__ = "0.1.0"
