"""The seeded random walk as it was before it kept its decision surface, kept
as a reference.

``random_execution`` is the original ``regsim.engine.random_execution``,
kept verbatim so that the differential tests can require the walk in
``regsim.engine``, which draws straight from its live process list while no
adversary Read is pending, to give the same execution for every seed.  It
builds the whole :meth:`_Sim.choices` list and calls ``randrange`` at every
step.
"""

from __future__ import annotations

import random

from regsim.engine import Execution, ProtocolSpec, Workload, _Sim


def random_execution(spec: ProtocolSpec, workload: Workload, seed: int) -> Execution:
    """One execution with all decisions drawn from ``random.Random(seed)``
    (CPython's Mersenne Twister): at every decision point one entry of the
    flattened, deterministically ordered (process, value) choice list is
    picked uniformly, so it needs no :meth:`_Sim.check`.  Identical seeds
    give identical executions."""
    rng = random.Random(seed)
    sim = _Sim(spec, workload)
    while True:
        choices = sim.choices()
        if not choices:
            return sim.snapshot()
        sim.apply(*choices[rng.randrange(len(choices))])
