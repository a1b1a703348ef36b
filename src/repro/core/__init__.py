"""Analytical layer: order calculus, regimes, capacity, density, phase diagram."""
