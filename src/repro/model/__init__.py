"""System model substrate: processes, failures, messages, runs.

This package is the executable rendering of Appendix A of the paper.
"""
