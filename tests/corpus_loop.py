"""The exhaustive corpus generator as it was before it shared each op's
records across histories, kept as a reference.

``corpus_histories`` is ``histgen.corpus_histories`` from before it built
op i's record once per (layout, kinds) and value, kept verbatim so that a
differential test can require the same histories in the same order.  It
builds every record of every history afresh.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from regsim import History, OpKind, OpRecord, VarSpec

from histgen import canonical_value_tuples, precedence_structures


def corpus_histories(max_ops: int = 5, domain: int = 3) -> Iterator[History]:
    """Every single-variable history with up to ``max_ops`` completed ops
    over the domain, one per equivalence class (see module docstring)."""
    for k in range(max_ops + 1):
        everyone = frozenset(range(max(k, 1)))
        vs = VarSpec(domain=domain, init=0, writers=everyone, readers=everyone)
        cvals = canonical_value_tuples(k, domain)
        for ivs in precedence_structures(k):
            for kinds in itertools.product((OpKind.WRITE, OpKind.READ), repeat=k):
                for vals in cvals:
                    ops = tuple(
                        OpRecord(
                            op_id=i, proc=i, var="x", kind=kinds[i],
                            start=ivs[i][0], end=ivs[i][1],
                            arg=vals[i] if kinds[i] is OpKind.WRITE else None,
                            ret=vals[i] if kinds[i] is OpKind.READ else None,
                        )
                        for i in range(k)
                    )
                    yield History(vars={"x": vs}, ops=ops)
