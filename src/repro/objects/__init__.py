"""Shared objects of Algorithm 1: logs, consensus, adopt-commit, and the
object space with genuineness-aware step accounting (§4.3)."""
