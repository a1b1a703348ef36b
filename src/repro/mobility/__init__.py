"""Mobility substrate: radial shapes, home-point processes, clustering."""
