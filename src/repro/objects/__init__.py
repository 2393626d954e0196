"""Shared objects of Algorithm 1: logs, consensus, and the object space
with genuineness-aware step accounting and Proposition 47's fast path
(§4.3)."""
