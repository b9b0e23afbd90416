"""Simulator and verification harness for power-of-Gauss-curvature flows
of compact convex hypersurfaces in the support-function representation."""

__version__ = "0.1.0"
