"""Infrastructure substrate: base-station placement and the wired backbone."""
