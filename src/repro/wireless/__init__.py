"""Wireless substrate: interference model, schedulers, link capacity, connectivity."""
