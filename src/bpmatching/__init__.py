"""Exact-arithmetic max-sum belief propagation lab for the assignment problem."""
