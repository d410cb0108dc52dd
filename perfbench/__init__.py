"""Wall-clock serving benchmark: workloads, passes, layer tracing."""
