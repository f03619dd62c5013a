"""Certified finite-order analysis of log-convex weight sequences.

The package builds weight sequences M_k, their trace-growth function
phi_M(r) = sup_n r^(n+2)/M_n, bump functions whose derivative bounds are
expressed through M, and a superposition that is flat at the origin while
keeping explicitly certified derivative growth. Every stated inequality is
checked at finite order, either in exact rational arithmetic or in log scale
with explicit truncation control; nothing is certified by float coincidence.
"""

__version__ = "0.1.0"
