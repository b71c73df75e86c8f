"""quantrate benchmark: workloads, harness and span tracing."""
