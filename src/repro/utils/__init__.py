"""Shared helpers: seeded RNG streams, power-law fitting, table rendering."""
