"""Desk-scale laboratory for waves reconstructed from snapshots.

Band-limited fields evolve under multiplier propagators; integer-time
snapshots close under a Chebyshev recursion; two or three snapshots
determine the wave up to explicit kernels, with small-denominator
arithmetic deciding when the reconstruction stays bounded, on flat space
and on spheres.
"""

__version__ = "0.1.0"
