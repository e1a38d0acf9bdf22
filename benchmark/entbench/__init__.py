"""Benchmark harness for the entbounds package: workloads, output checks
against the seed reference, and an outside-in span tracer."""
