"""Presto: flowcell creation (Algorithm 1) and the policy built on it,
and the centralized controller (spanning trees, shadow MACs, failure
handling and weighted multipathing)."""
