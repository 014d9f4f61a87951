"""Seeded generator of the benchmark's histories.

Everything here is plain data in the reference's op-tuple format
``(op_id, proc, kind, start, end, value)`` (see ``reference.py``); the
benchmark turns it into ``regsim`` objects.  The same seed always gives the
same histories.

Families:

* ``single`` - one writer (process 0) and one to three readers, two to
  eight ops, the last op of a process pending one time in ten; Read returns
  are biased toward written values so that both verdicts stay common.
* ``multi`` - two or three processes that both write and read.

Random histories are drawn until each (family, number of ops, atomic or not)
stratum holds its fixed count, the verdict coming from the reference's own
search, so every seed gives the same make-up and about the same cost.
* ``contention`` - k Writes by k processes, all pairwise concurrent, then
  two sequential Reads returning the values of two different Writes.  No
  linearization exists (both Reads follow every Write, so both must return
  the last Write's value), and a search that does not prune on that has to
  try all k! orders of the Writes.
"""

from __future__ import annotations

import random

from reference import atomic_exists, history_key

#: The largest number of completed ops ``brute_force_atomic`` accepts.
ORACLE_LIMIT = 8


def _interleave(rng: random.Random, streams: dict[int, list[dict]]) -> None:
    """Assign distinct steps to every invoke and respond, keeping each
    process sequential; the last op of a stream may stay pending."""
    queues = {}
    for p, ops in streams.items():
        q = []
        for op in ops:
            q.append((op, "start"))
            if not op["pending"]:
                q.append((op, "end"))
        if q:
            queues[p] = q
    step = 0
    while queues:
        p = rng.choice(sorted(queues))
        op, edge = queues[p].pop(0)
        op[edge] = step
        step += 1
        if not queues[p]:
            del queues[p]


def _random_history(rng: random.Random, multi: bool, k: int):
    n_procs = rng.randint(2, 4) if not multi else rng.randint(2, 3)
    domain = rng.randint(3, 5)
    streams: dict[int, list[dict]] = {p: [] for p in range(n_procs)}
    written = [0]
    for _ in range(k):
        if multi:
            p = rng.randrange(n_procs)
            kind = "W" if rng.random() < 0.5 else "R"
        elif rng.random() < 0.45:
            p, kind = 0, "W"
        else:
            p, kind = rng.randint(1, n_procs - 1), "R"
        value = None
        if kind == "W":
            value = rng.randint(1, domain - 1)
            written.append(value)
        streams[p].append({"kind": kind, "value": value, "pending": False,
                           "start": None, "end": None})
    for ops in streams.values():
        if ops and rng.random() < 0.1:
            ops[-1]["pending"] = True
    for ops in streams.values():
        for op in ops:
            if op["kind"] == "R" and not op["pending"]:
                op["value"] = (rng.choice(written) if rng.random() < 0.8
                               else rng.randrange(domain))
    _interleave(rng, streams)
    ops = []
    for p, stream in streams.items():
        for op in stream:
            ops.append((len(ops), p, op["kind"], op["start"], op["end"], op["value"]))
    if multi:
        writers = list(range(n_procs))
        readers = list(range(n_procs))
    else:
        writers, readers = [0], list(range(1, n_procs))
    return {"ops": tuple(ops), "domain": domain, "init": 0,
            "writers": writers, "readers": readers}


def contention_history(rng: random.Random, k: int):
    """k concurrent Writes of distinct values, then two sequential Reads by
    process k returning the values of two different Writes."""
    values = rng.sample(range(1, k + 1), k)
    starts = rng.sample(range(k), k)          # every invoke ...
    ends = [k + s for s in rng.sample(range(k), k)]  # ... before every respond
    ops = [(w, w, "W", starts[w], ends[w], values[w]) for w in range(k)]
    first, second = rng.sample(values, 2)
    ops.append((k, k, "R", 2 * k, 2 * k + 1, first))
    ops.append((k + 1, k, "R", 2 * k + 2, 2 * k + 3, second))
    return {"ops": tuple(ops), "domain": k + 1, "init": 0,
            "writers": list(range(k)), "readers": [k]}


#: Corpus make-up: (family, ops, atomic histories, non-atomic histories)
#: per stratum, then (k concurrent Writes, histories) for the contention
#: family.  Sorted by latency, the check samples end in a k=7 cluster of
#: 2.2%, which holds their 99th percentile; the per-history times end in
#: the 8-op non-atomic histories (the oracle tries every order) plus k>=6,
#: about 16%, which holds their 90th percentile.
STRATA = tuple(("single", k, 29, 90 if k == 8 else 57) for k in range(2, ORACLE_LIMIT + 1)) + \
    tuple(("multi", k, 19, 60 if k == 8 else 38) for k in range(2, ORACLE_LIMIT + 1))
CONTENTION = ((4, 4), (5, 4), (6, 4), (7, 24), (8, 2))

#: Draws allowed per history before the generator gives up on a stratum.
MAX_DRAWS = 2000


def corpus(seed: int):
    """The check_corpus histories for ``seed``: a list of (family, spec)
    with ``spec`` a dict of ops, domain, init, writers and readers.  Every
    history is distinct under ``history_key``, so the number of distinct
    histories is the same for every seed."""
    rng = random.Random(f"corpus-{seed}")
    seen = set()
    out = []

    def take(family, spec) -> bool:
        key = history_key(spec["ops"])
        if key in seen:
            return False
        seen.add(key)
        out.append((family, spec))
        return True

    for family, k, n_atomic, n_other in STRATA:
        want = {True: n_atomic, False: n_other}
        draws = 0
        while want[True] or want[False]:
            draws += 1
            if draws > MAX_DRAWS * (n_atomic + n_other):
                raise RuntimeError(f"cannot fill the {family} stratum of {k} ops")
            spec = _random_history(rng, multi=family == "multi", k=k)
            atomic = atomic_exists(spec["ops"], spec["init"])
            if want[atomic] and take(family, spec):
                want[atomic] -= 1
    for k, count in CONTENTION:
        while count:
            count -= take("contention", contention_history(rng, k))
    return out
