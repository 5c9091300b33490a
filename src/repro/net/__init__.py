"""Network substrate: packets, links, switches, topologies, routing."""
