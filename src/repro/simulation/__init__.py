"""Network assembly, traffic, flow analysis, and the packet-level simulator."""
