"""Desk-scale electro-thermal and parasitic RC analysis of stacked CFET cells."""
