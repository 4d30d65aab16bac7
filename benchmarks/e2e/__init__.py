"""End-to-end admission benchmark (see README.md)."""
