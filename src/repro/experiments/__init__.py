"""Experiment drivers: capacity sweeps and the per-figure/table harnesses."""
