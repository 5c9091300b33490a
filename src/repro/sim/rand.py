"""Named, seeded random streams.

Every stochastic component pulls from its own ``random.Random`` stream
derived from a single experiment seed plus the component's name.  This
keeps experiments reproducible *and* insulated: adding one more draw in
the workload generator does not perturb ECMP hash decisions.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """Factory of independent ``random.Random`` instances keyed by name."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) stream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng
