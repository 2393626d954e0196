"""Workload generation: topologies, send scripts and the scenario runner."""
