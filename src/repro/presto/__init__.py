"""Presto: flowcell creation (Algorithm 1) and the policy built on it,
and the centralized controller (spanning trees, shadow MACs, failure
handling and weighted multipathing)."""

from repro.presto.flowcell import FLOWCELL_BYTES, Presto, flowcell
from repro.presto.controller import PrestoController

__all__ = ["FLOWCELL_BYTES", "Presto", "flowcell", "PrestoController"]
