"""Repository benchmark: end-to-end and per-layer timing of the simulator (see README.md)."""
