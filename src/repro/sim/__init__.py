"""Step-level simulation kernel for message-passing automata (Appendix A)."""
