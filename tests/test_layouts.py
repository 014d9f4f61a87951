"""Each builder's base-register layout, pinned, and the parts builders share.

The tables are literal: a builder that lays its registers out in another
order, or names, owns, shares or initialises one differently, fails here
even where every run would still pass.
"""

import pytest

from regsim import (build_cts, build_multireader, build_multiwriter, build_raw_register,
                    build_regular_bit)
from regsim.constructions import MAX_LAYOUT_PAIRS, MAX_SEQ, TagCodec, _MultiWriterProgram
from regsim.engine import EngineError, ReadAction, ReturnAction, WriteAction
from regsim.timestamp import LABELING

BUILDERS = {
    "raw_register": build_raw_register,
    "regular_bit": build_regular_bit,
    "multireader": build_multireader,
    "multireader_nowriteback": lambda n: build_multireader(n, writeback=False),
    "multiwriter": build_multiwriter,
    "cts": build_cts,
}

_MR = {
    1: (MAX_SEQ * 2 * 8, [("w1", 0, (1,), 0, "ATOMIC")]),
    2: (MAX_SEQ * 3 * 8, [("w1", 0, (1,), 0, "ATOMIC"), ("w2", 0, (2,), 0, "ATOMIC"),
                          ("c1_2", 1, (2,), 0, "ATOMIC"), ("c2_1", 2, (1,), 0, "ATOMIC")]),
    3: (MAX_SEQ * 4 * 8, [("w1", 0, (1,), 0, "ATOMIC"), ("w2", 0, (2,), 0, "ATOMIC"),
                          ("w3", 0, (3,), 0, "ATOMIC"), ("c1_2", 1, (2,), 0, "ATOMIC"),
                          ("c1_3", 1, (3,), 0, "ATOMIC"), ("c2_1", 2, (1,), 0, "ATOMIC"),
                          ("c2_3", 2, (3,), 0, "ATOMIC"), ("c3_1", 3, (1,), 0, "ATOMIC"),
                          ("c3_2", 3, (2,), 0, "ATOMIC")]),
}

#: builder: {n: (base domain, [(name, owner, readers, init, semantics)])}.
LAYOUTS = {
    "raw_register": {
        1: (2, [("r0", 0, (1,), 0, "SAFE")]),
        2: (2, [("r0", 0, (1, 2), 0, "SAFE")]),
        3: (2, [("r0", 0, (1, 2, 3), 0, "SAFE")]),
    },
    "regular_bit": {
        1: (2, [("bit", 0, (1,), 0, "SAFE")]),
        2: (2, [("bit", 0, (1, 2), 0, "SAFE")]),
        3: (2, [("bit", 0, (1, 2, 3), 0, "SAFE")]),
    },
    "multireader": _MR,
    "multireader_nowriteback": _MR,
    "multiwriter": {
        1: (MAX_SEQ * 1 * 8, [("r0", 0, (0,), 0, "ATOMIC")]),
        2: (MAX_SEQ * 2 * 8, [("r0", 0, (0, 1), 0, "ATOMIC"), ("r1", 1, (0, 1), 8, "ATOMIC")]),
        3: (MAX_SEQ * 3 * 8, [("r0", 0, (0, 1, 2), 0, "ATOMIC"), ("r1", 1, (0, 1, 2), 8, "ATOMIC"),
                              ("r2", 2, (0, 1, 2), 16, "ATOMIC")]),
    },
    "cts": {
        1: (MAX_SEQ * 1 * 8, [("obj0", 0, (0,), 0, "ATOMIC")]),
        2: (MAX_SEQ * 2 * 8, [("obj0", 0, (0, 1), 0, "ATOMIC"),
                              ("obj1", 1, (0, 1), 8, "ATOMIC")]),
        3: (MAX_SEQ * 3 * 8, [("obj0", 0, (0, 1, 2), 0, "ATOMIC"),
                              ("obj1", 1, (0, 1, 2), 8, "ATOMIC"),
                              ("obj2", 2, (0, 1, 2), 16, "ATOMIC")]),
    },
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", BUILDERS)
def test_builder_layout_is_pinned(name, n):
    domain, table = LAYOUTS[name][n]
    regs = BUILDERS[name](n).registers
    assert [(r.name, r.owner, tuple(sorted(r.readers)), r.init, r.semantics.name)
            for r in regs] == table
    assert {r.domain for r in regs} == {domain}


#: n: (per process, the registers it reads in collect order; per process,
#: the registers it writes in write or announce order).  The writer reads
#: nothing and writes its n registers in index order.
MULTIREADER_LINKS = {
    1: ([[], [0]], [[0], []]),
    2: ([[], [0, 3], [1, 2]], [[0, 1], [2], [3]]),
    3: ([[], [0, 5, 7], [1, 3, 8], [2, 4, 6]], [[0, 1, 2], [3, 4], [5, 6], [7, 8]]),
}


@pytest.mark.parametrize("writeback", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_multireader_sources_and_sinks_are_pinned(n, writeback):
    spec = build_multireader(n, writeback=writeback)
    program = spec.program
    assert (program.sources, program.sinks) == MULTIREADER_LINKS[n]
    for proc in range(n + 1):
        assert all(proc in spec.registers[r].readers for r in program.sources[proc])
        assert all(spec.registers[r].owner == proc for r in program.sinks[proc])
    # Each register links its owner to its one reader: it is in exactly one
    # process's sinks and one process's sources.
    every = range(len(spec.registers))
    assert sorted(r for rs in program.sinks for r in rs) == list(every)
    assert sorted(r for rs in program.sources for r in rs) == list(every)


def drive(program, kind, arg, results):
    """The actions of one op by process 1 of a 3-process program, each base
    Read answered from ``results`` in turn, and its return value."""
    actions = []
    action, state = program.begin(1, None, kind, arg)
    reads = iter(results)
    while type(action) is not ReturnAction:
        actions.append(action)
        result = next(reads) if type(action) is ReadAction else None
        action, state = program.resume(1, None, state, result)
    return actions, action.value


def test_cts_labeling_is_the_multiwriter_write():
    # Collected sequence numbers 2, 0 and 5 lead both to publish (6, 1).
    codec = TagCodec(n_pids=3, payload_domain=8)
    results = [codec.encode(2, 0, 3), codec.encode(0, 1, 0), codec.encode(5, 2, 4)]
    write = drive(_MultiWriterProgram(3, codec), "Write", 7, results)
    labeling = drive(build_cts(3, domain=8).program, LABELING, 7, results)
    published = [ReadAction(0), ReadAction(1), ReadAction(2),
                 WriteAction(1, codec.encode(6, 1, 7))]
    assert write == (published, None)
    assert labeling == (published, (6, 1))


#: The smallest n each builder refuses: its layout would pass the bound.
OVERSIZE = {
    "raw_register": MAX_LAYOUT_PAIRS + 1,
    "regular_bit": MAX_LAYOUT_PAIRS + 1,
    "multireader": 257,
    "multiwriter": 257,
    "cts": 257,
}


@pytest.mark.parametrize("name", OVERSIZE)
def test_a_layout_past_the_bound_is_refused(name):
    n = OVERSIZE[name]
    pairs = n if n > MAX_LAYOUT_PAIRS else n * n
    with pytest.raises(EngineError) as raised:
        BUILDERS[name](n)
    assert str(raised.value) == (f"n {n} needs {pairs} (register, reader) pairs, "
                                 f"more than the {MAX_LAYOUT_PAIRS} a layout may hold")


@pytest.mark.parametrize("name", ["raw_register", "regular_bit", "multiwriter", "cts"])
def test_a_layout_at_the_bound_is_built(name):
    n = OVERSIZE[name] - 1
    assert len(BUILDERS[name](n).registers) == (1 if name in ("raw_register", "regular_bit") else n)
