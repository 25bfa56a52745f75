"""The repo's benchmark: six workloads, four gated end-to-end metrics,
a per-layer budget measured from outside ``src/``.  See README.md."""
