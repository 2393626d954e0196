"""Shared objects of Algorithm 1 (§4.3): logs and consensus objects, each
one class with its genuineness-aware step accounting, in one object
space with Proposition 47's fast path."""
