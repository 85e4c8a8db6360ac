"""Certified-answer throughput benchmark for ptfwitness; see run.py."""
