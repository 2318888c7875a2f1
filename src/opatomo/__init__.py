"""Monte Carlo study of quadrature tomography through a phase-sensitive
optical amplifier.

The package simulates single measurement shots of a bosonic mode whose
quadrature is pre-amplified before hitting a noisy, lossy detector, then
reconstructs the quadrature distribution from the recorded outcomes by
several estimators (direct inversion with and without displacement, a
two-displacement unfolding for unknown offsets, and a homodyne reference),
and distills sub-shot-noise variance estimates from the histograms.
"""
