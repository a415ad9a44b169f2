"""Repository benchmark: workloads, tracing and baseline tools (see README.md)."""
