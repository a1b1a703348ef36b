"""Torus geometry, square tessellations, and the cell-grid neighbor index."""
