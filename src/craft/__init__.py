"""Anchor-based cross-modal feature alignment, anchor-aligned MMD domain
matching, and a desk-scale training/evaluation harness over dual-modality
embedding spaces.

The package imports no submodule, so the CLI's CRAFT_THREADS shim can cap
the numeric backend's thread pool before numpy is imported.
"""

__version__ = "0.1.0"
