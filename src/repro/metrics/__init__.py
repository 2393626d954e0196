"""Run metrics, per-round trace instrumentation and table formatting."""
