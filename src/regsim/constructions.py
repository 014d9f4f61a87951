"""Wait-free register constructions as simulatable protocols.

Ships the three classic constructions over weak base registers, with
unbounded monotone tags standing in for bounded timestamp machinery:

* ``regular_bit`` — a regular 1-writer n-reader bit from one safe bit.
  The writer skips base writes that would not change the bit, so an
  overlapped safe Read can only ever observe regular-feasible values.
* ``multireader`` — an atomic 1-writer n-reader register from n**2 atomic
  1-writer 1-reader registers carrying (tag, value) pairs: n writer-to-
  reader registers plus n*(n-1) reader-to-reader registers through which
  readers announce the value they chose, preventing new-old inversion
  between readers.
* ``multiwriter`` — an atomic n-writer n-reader register from n atomic
  1-writer n-reader registers: a writer collects all tags, picks a
  sequence number one above the maximum it saw, and tie-breaks equal
  sequence numbers by process id.

A pass-through ``raw_register`` protocol exposes a single base register of
any declared semantics directly; it exists so the safe/regular adversary
itself can be exercised and checked.

Tags are (sequence, process-id) pairs under lexicographic order.  They are
unbounded naturals in principle; encoding into the finite base-register
domain uses a fixed width that desk-scale runs cannot exhaust by counting.
A garbage tag read from a weak base can still carry the largest sequence
number, and the next one then wraps to 0, as a finite tag field does; the
checker judges what follows.
"""

from __future__ import annotations

from typing import NamedTuple

from .engine import (
    BaseRegisterSpec,
    EngineError,
    ProtocolSpec,
    ReadAction,
    ReturnAction,
    StepProgram,
    WriteAction,
)
from .history import SemanticsLevel


class Tag(NamedTuple):
    """Ordering token attached to written values: (sequence, process id)."""

    seq: int
    pid: int


class TaggedValue(NamedTuple):
    tag: Tag
    val: int


def tag_less(a: Tag, b: Tag) -> bool:
    """Strict lexicographic order: by sequence, then by process id.

    For any two tags exactly one of ``tag_less(a, b)``, ``tag_less(b, a)``
    and ``a == b`` holds.
    """
    return a.seq < b.seq or (a.seq == b.seq and a.pid < b.pid)


#: Sequence numbers below this bound are encodable; desk-scale runs count
#: to a few dozen at most.  The multiwriter Write, which the cts Labeling
#: runs, wraps the successor of the largest sequence number it collected
#: modulo this bound, as a finite tag field does: a garbage tag from a safe
#: base can hold ``MAX_SEQ - 1``, and the Write after it is then tagged 0,
#: in the register and in the Labeling's label alike, for the checker to
#: judge.  The bounded constructions that remove this limit altogether are
#: out of scope here.
MAX_SEQ = 1 << 20


class TagCodec:
    """Injective pairing of (seq, pid, payload) into one register value.

    ``encode(seq, pid, val) = (seq * n_pids + pid) * payload_domain + val``
    so the register domain is ``MAX_SEQ * n_pids * payload_domain``, and
    every value of it decodes, garbage included.  ``encode`` refuses a
    ``seq`` of ``MAX_SEQ`` or more as a broken invariant: a sequence number
    taken from a collected tag is wrapped modulo ``MAX_SEQ`` before it is
    encoded (see ``MAX_SEQ``).
    """

    def __init__(self, n_pids: int, payload_domain: int):
        self.n_pids = n_pids
        self.payload_domain = payload_domain
        self.domain = MAX_SEQ * n_pids * payload_domain

    def encode(self, seq: int, pid: int, val: int) -> int:
        if seq >= MAX_SEQ:
            raise EngineError(f"tag sequence {seq} overflows the encoding width")
        return (seq * self.n_pids + pid) * self.payload_domain + val

    def decode(self, raw: int) -> TaggedValue:
        rest, val = divmod(raw, self.payload_domain)
        seq, pid = divmod(rest, self.n_pids)
        return TaggedValue(Tag(seq, pid), val)

    def seq(self, raw: int) -> int:
        """``decode(raw).tag.seq``, without building the tag."""
        return raw // (self.n_pids * self.payload_domain)

    def payload(self, raw: int) -> int:
        """``decode(raw).val``, without building the tag."""
        return raw % self.payload_domain


def _max_tagged(codec: TagCodec, a: int, b: int) -> int:
    """The encoded value carrying the larger tag (payload ignored): ``raw //
    payload_domain`` is ``seq * n_pids + pid``, ordered as ``tag_less``."""
    if a // codec.payload_domain < b // codec.payload_domain:
        return b
    return a


# ---------------------------------------------------------------------------
# Register layouts, each stated once
# ---------------------------------------------------------------------------

#: The most (base register, reader) pairs one layout may hold.  A builder
#: refuses a larger size before it allocates anything, so a size no desk
#: could build is an input error, not an exhausted memory: n**2 pairs for
#: ``multireader``, ``multiwriter`` and ``cts``, n for ``regular_bit`` and
#: ``raw_register``.
MAX_LAYOUT_PAIRS = 1 << 16


def _check_size(n: int, pairs: int, who: str) -> None:
    """Refuse a size ``n`` below 1, or one whose layout would hold more than
    :data:`MAX_LAYOUT_PAIRS` (register, reader) pairs."""
    if n < 1:
        raise EngineError(f"need at least one {who}")
    if pairs > MAX_LAYOUT_PAIRS:
        raise EngineError(f"n {n} needs {pairs} (register, reader) pairs, "
                          f"more than the {MAX_LAYOUT_PAIRS} a layout may hold")


def _single_register(name: str, reg_name: str, n_readers: int, domain: int, init: int,
                     semantics: SemanticsLevel, program: StepProgram) -> ProtocolSpec:
    """Process 0 writes, processes 1..n_readers read, all against one base
    register ``reg_name`` of the given semantics."""
    _check_size(n_readers, n_readers, "reader")
    readers = frozenset(range(1, n_readers + 1))
    reg = BaseRegisterSpec(
        name=reg_name, owner=0, readers=readers, domain=domain, init=init, semantics=semantics
    )
    return ProtocolSpec(
        name=name,
        n_processes=n_readers + 1,
        registers=(reg,),
        program=program,
        budgets={"Write": 1, "Read": 1},
        var_name="X",
        domain=domain,
        init=init,
        writers=frozenset({0}),
        readers=readers,
    )


def _tag_registers(prefix: str, n: int,
                   domain: int) -> tuple[TagCodec, tuple[BaseRegisterSpec, ...]]:
    """One atomic 1-writer n-reader register per process p, named
    ``f"{prefix}{p}"``, holding tag (0, p) and payload 0 at first, and the
    codec of their (tag, payload) values."""
    _check_size(n, n * n, "process")
    codec = TagCodec(n_pids=n, payload_domain=domain)
    everyone = frozenset(range(n))
    return codec, tuple(
        BaseRegisterSpec(
            name=f"{prefix}{p}", owner=p, readers=everyone,
            domain=codec.domain, init=codec.encode(0, p, 0),
            semantics=SemanticsLevel.ATOMIC,
        )
        for p in range(n)
    )


# ---------------------------------------------------------------------------
# raw_register: high-level ops map one-to-one onto one base register
# ---------------------------------------------------------------------------


class _RawProgram(StepProgram):
    def begin(self, proc, mem, kind, arg):
        if kind == "Write":
            return WriteAction(0, arg), None
        return ReadAction(0), None

    def resume(self, proc, mem, state, result):
        return ReturnAction(result, mem), None


def build_raw_register(
    n_readers: int,
    domain: int = 2,
    semantics: SemanticsLevel = SemanticsLevel.SAFE,
    init: int = 0,
) -> ProtocolSpec:
    """Process 0 writes, processes 1..n_readers read, all directly against a
    single base register of the given semantics."""
    return _single_register("raw_register", "r0", n_readers, domain, init, semantics, _RawProgram())


# ---------------------------------------------------------------------------
# regular_bit: regular bit from one safe bit
# ---------------------------------------------------------------------------


class _RegularBitProgram(StepProgram):
    """Writer memory holds the last value actually written.  A Write of the
    same value performs no base access at all, so every base write flips
    the bit and an overlapped safe Read cannot stray outside the regular
    feasible set."""

    def __init__(self, init: int):
        self._init = init

    def initial_memory(self, proc):
        return self._init if proc == 0 else None

    def begin(self, proc, mem, kind, arg):
        if kind == "Write":
            if arg == mem:
                return ReturnAction(None, mem), None
            return WriteAction(0, arg), arg
        return ReadAction(0), None

    def resume(self, proc, mem, state, result):
        if state is None:  # Read
            return ReturnAction(result, mem), None
        return ReturnAction(None, state), None  # Write: remember new value


def build_regular_bit(n_readers: int) -> ProtocolSpec:
    """Regular 1-writer n-reader boolean register over one safe bit."""
    return _single_register("regular_bit", "bit", n_readers, 2, 0, SemanticsLevel.SAFE,
                            _RegularBitProgram(init=0))


# ---------------------------------------------------------------------------
# multireader: atomic 1-writer n-reader from n**2 atomic 1W1R registers
# ---------------------------------------------------------------------------


class _MultiReaderProgram(StepProgram):
    """Process 0 is the writer; processes 1..n are readers.

    Write(v): bump the local sequence number and push (tag, v) to the n
    writer-to-reader registers, the writer's ``sinks``, in order.

    Read by reader j: collect its ``sources`` (the writer register, then the
    n-1 incoming reader-to-reader registers), fold in the locally remembered
    last choice, pick the maximum tag, announce it through its ``sinks``
    (the n-1 outgoing registers), remember it, and return its payload.  The
    local memory keeps a reader's reads monotone; the announcements keep
    readers consistent with each other.
    """

    def __init__(self, n: int, codec: TagCodec, init_enc: int, writeback: bool,
                 sources: list[list[int]], sinks: list[list[int]]):
        self.n = n
        self.codec = codec
        self.init_enc = init_enc
        self.writeback = writeback
        # Per process, the register indices it reads (collect order) and
        # writes (write or announce order).
        self.sources = sources
        self.sinks = sinks

    def initial_memory(self, proc):
        if proc == 0:
            return 0  # last used sequence number
        return self.init_enc  # last chosen (tag, value)

    def begin(self, proc, mem, kind, arg):
        if kind == "Write":
            enc = self.codec.encode(mem + 1, 0, arg)
            return WriteAction(self.sinks[0][0], enc), ("w", 1, enc, mem + 1)
        return ReadAction(self.sources[proc][0]), ("collect", 1, mem)

    def resume(self, proc, mem, state, result):
        phase = state[0]
        if phase == "w":
            _, k, enc, seq = state
            if k < self.n:
                return WriteAction(self.sinks[0][k], enc), ("w", k + 1, enc, seq)
            return ReturnAction(None, seq), None
        if phase == "collect":
            _, k, best = state
            best = _max_tagged(self.codec, best, result)
            if k < self.n:
                return ReadAction(self.sources[proc][k]), ("collect", k + 1, best)
            if self.writeback and self.n > 1:
                return WriteAction(self.sinks[proc][0], best), ("announce", 1, best)
            return ReturnAction(self.codec.payload(best), best), None
        # announce
        _, k, best = state
        if k < self.n - 1:
            return WriteAction(self.sinks[proc][k], best), ("announce", k + 1, best)
        return ReturnAction(self.codec.payload(best), best), None


def build_multireader(n: int, domain: int = 8, writeback: bool = True) -> ProtocolSpec:
    """Atomic 1-writer n-reader register from n**2 atomic 1W1R registers.

    ``writeback=False`` builds the deliberately broken variant whose readers
    do not announce their choices; it is only regular, and exists to
    demonstrate that the reader-to-reader registers are necessary.
    """
    _check_size(n, n * n, "reader")
    codec = TagCodec(n_pids=n + 1, payload_domain=domain)
    init_enc = codec.encode(0, 0, 0)
    # Register i -> j is owned by i and read by j alone: w{j} from the
    # writer first, then each reader i's c{i}_{j}, by i and then by j.
    # Listing each in i's sinks and j's sources as it is laid out gives
    # every process its registers in the order its ops use them.
    regs: list[BaseRegisterSpec] = []
    sources: list[list[int]] = [[] for _ in range(n + 1)]
    sinks: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(1, n + 1):
            if j != i:
                sinks[i].append(len(regs))
                sources[j].append(len(regs))
                regs.append(BaseRegisterSpec(
                    name=f"c{i}_{j}" if i else f"w{j}", owner=i, readers=frozenset({j}),
                    domain=codec.domain, init=init_enc, semantics=SemanticsLevel.ATOMIC,
                ))
    return ProtocolSpec(
        name="multireader" if writeback else "multireader_nowriteback",
        n_processes=n + 1,
        registers=tuple(regs),
        program=_MultiReaderProgram(n, codec, init_enc, writeback, sources, sinks),
        budgets={"Write": n, "Read": 2 * n - 1 if writeback else n},
        var_name="X",
        domain=domain,
        init=0,
        writers=frozenset({0}),
        readers=frozenset(range(1, n + 1)),
    )


# ---------------------------------------------------------------------------
# multiwriter: atomic n-writer n-reader from n atomic 1-writer n-reader
# ---------------------------------------------------------------------------


class _MultiWriterProgram(StepProgram):
    """Every process owns one register holding its latest (tag, value).

    Write(v) by p: collect all n registers, take the successor of the
    largest sequence number seen, modulo MAX_SEQ, and publish ((s, p), v)
    in p's register.
    Read by p: collect all n registers and return the payload under the
    maximal tag.  Concurrent writers may pick equal sequence numbers; the
    process-id tie-break keeps the tag order total.
    """

    def __init__(self, n: int, codec: TagCodec):
        self.n = n
        self.codec = codec

    def begin(self, proc, mem, kind, arg):
        if kind == "Write":
            return ReadAction(0), ("w", 1, 0, arg)
        return ReadAction(0), ("r", 1, None)

    def resume(self, proc, mem, state, result):
        phase = state[0]
        if phase == "w":
            _, k, max_seq, arg = state
            seq = self.codec.seq(result)
            if seq > max_seq:
                max_seq = seq
            if k < self.n:
                return ReadAction(k), ("w", k + 1, max_seq, arg)
            # wrapped as a finite tag field wraps (see MAX_SEQ)
            seq = (max_seq + 1) % MAX_SEQ
            return WriteAction(proc, self.codec.encode(seq, proc, arg)), ("commit", seq)
        if phase == "r":
            _, k, best = state
            best = result if best is None else _max_tagged(self.codec, best, result)
            if k < self.n:
                return ReadAction(k), ("r", k + 1, best)
            return ReturnAction(self.codec.payload(best), mem), None
        # commit
        return ReturnAction(None, mem), None


def build_multiwriter(n: int, domain: int = 8) -> ProtocolSpec:
    """Atomic n-writer n-reader register from n atomic 1WnR registers."""
    codec, regs = _tag_registers("r", n, domain)
    everyone = frozenset(range(n))
    return ProtocolSpec(
        name="multiwriter",
        n_processes=n,
        registers=regs,
        program=_MultiWriterProgram(n, codec),
        budgets={"Write": n + 1, "Read": n},
        var_name="X",
        domain=domain,
        init=0,
        writers=everyone,
        readers=everyone,
    )
