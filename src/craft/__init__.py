"""Anchor-based cross-modal feature alignment, anchor-aligned MMD domain
matching, and a desk-scale training/evaluation harness over dual-modality
embedding spaces.

The package imports no submodule, so each CLI command loads only the
modules it runs.
"""

__version__ = "0.1.0"
