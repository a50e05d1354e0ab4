"""Benchmark harness: stream I/O, replay, aggregation, CLI."""
