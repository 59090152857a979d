"""Executable specifications the production kernels are tested against."""
