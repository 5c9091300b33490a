"""The paper's synthetic workloads (S4): stride, random, random
bijection, and shuffle.  These functions compute sender->receiver pairs
or drive transfer schedules; the experiment harness turns pairs into
elephants/mice/probes.  The shuffle's transfer size and pipeline depth
are the constants :data:`SHUFFLE_TRANSFER_BYTES` and
:data:`SHUFFLE_CONCURRENT`.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.units import MB

#: shuffles tried before :func:`random_bijection_pairs` gives up
BIJECTION_TRIES = 10_000
#: bytes each shuffle sender sends each receiver: the paper sends 1 GB;
#: 15 receivers x 8 MB still outlast a default 45 ms run at 10 Gbps
SHUFFLE_TRANSFER_BYTES = 8 * MB
#: active shuffle transfers per sender (the paper's two)
SHUFFLE_CONCURRENT = 2


def stride_pairs(n_hosts: int, stride: int = 8) -> List[Tuple[int, int]]:
    """stride(k): server[i] sends to server[(i + k) mod n]."""
    if not 0 < stride < n_hosts:
        raise ValueError(f"stride must be in (0, {n_hosts}): {stride}")
    return [(i, (i + stride) % n_hosts) for i in range(n_hosts)]


def random_pairs(
    n_hosts: int,
    hosts_per_pod: int,
    rng: random.Random,
) -> List[Tuple[int, int]]:
    """Random: each server sends to a random destination in another pod;
    multiple senders may pick the same receiver."""
    pairs = []
    for src in range(n_hosts):
        src_pod = src // hosts_per_pod
        while True:
            dst = rng.randrange(n_hosts)
            if dst != src and dst // hosts_per_pod != src_pod:
                pairs.append((src, dst))
                break
    return pairs


def random_bijection_pairs(
    n_hosts: int,
    hosts_per_pod: int,
    rng: random.Random,
) -> List[Tuple[int, int]]:
    """Random bijection: a permutation where every server sends to a
    different-pod destination and receives from exactly one sender."""
    hosts = list(range(n_hosts))
    for _ in range(BIJECTION_TRIES):
        dsts = hosts[:]
        rng.shuffle(dsts)
        if all(
            src != dst and src // hosts_per_pod != dst // hosts_per_pod
            for src, dst in zip(hosts, dsts)
        ):
            return list(zip(hosts, dsts))
    raise RuntimeError("could not find a cross-pod bijection (too few pods?)")


class shuffle_workload:
    """Shuffle: every server sends :data:`SHUFFLE_TRANSFER_BYTES` to
    every other server in ``rng``'s order, :data:`SHUFFLE_CONCURRENT`
    transfers at a time (the paper: 1 GB to each server, two active
    flows per host, emulating a Hadoop shuffle).

    Drive it by calling :meth:`start`; it keeps each sender's pipeline
    full by starting the next transfer whenever one finishes.
    """

    def __init__(self, testbed, rng: random.Random):
        self.tb = testbed
        n = len(testbed.hosts)
        self._queues = {}
        for src in range(n):
            dsts = [d for d in range(n) if d != src]
            rng.shuffle(dsts)
            self._queues[src] = dsts
        self.completed = 0
        self.apps = []

    def start(self) -> None:
        for src in self._queues:
            for _ in range(SHUFFLE_CONCURRENT):
                self._launch(src)

    def _launch(self, src: int) -> None:
        queue = self._queues[src]
        if not queue:
            return
        dst = queue.pop()
        app = self.tb.add_elephant(
            src, dst, size_bytes=SHUFFLE_TRANSFER_BYTES,
            on_complete=lambda _app, src=src: self._done(src),
        )
        self.apps.append(app)

    def _done(self, src: int) -> None:
        self.completed += 1
        self._launch(src)
