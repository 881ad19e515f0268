"""Preserved pre-optimization implementations, kept as test oracles.

These are not product code: tests and the wall-clock benchmark run them
side by side with the shipped implementations and assert identical outputs.
"""
