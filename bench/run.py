#!/usr/bin/env python3
"""The regsim benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for their make-up and why each was chosen):

* ``enumerate`` - in-process ``regsim enumerate`` over the whole decision
  tree of five scenarios, plus seeded ``regsim simulate`` / ``regsim check``
  runs of each;
* ``check_corpus`` - ``check_level``, ``classify`` and
  ``brute_force_atomic`` on seeded histories, no engine involved;
* ``trace_roundtrip`` - in-process ``regsim simulate`` then ``regsim check``
  on long seeded random executions, with codec round trips and replays.

A run repeats whole rounds of the workload's fixed work for about
``--seconds`` seconds, checks every round's outputs against the independent
reference in ``reference.py``, the oracle and the properties the workload
names, and prints one JSON object as its last line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import reference  # noqa: E402
from tracer import LatencyProbe, Speed, Tracer, register_ops  # noqa: E402

clock = time.perf_counter

#: Set-up is timed in this many fresh interpreters; setup_s is the median.
SETUP_SAMPLES = 7

R = None  # the regsim package, once imported


def import_regsim():
    """Import regsim from this checkout's ``src/`` and nowhere else."""
    global R
    sys.path.insert(0, str(SRC))
    import regsim
    import regsim.cli  # noqa: F401
    import regsim.scenario  # noqa: F401

    if Path(regsim.__file__).resolve().parent != SRC / "regsim":
        raise SystemExit(f"error: regsim imported from {regsim.__file__}, not {SRC}")
    R = regsim
    return regsim


def run_cli(argv: list[str]):
    """One in-process ``regsim`` command: (exit code, stdout, seconds).  An
    exception out of the command is reported as its code."""
    out = io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = R.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the op fails; the run goes on
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), clock() - t0


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def to_history(spec):
    """A reference op-tuple history as a regsim History on variable x."""
    W, Rd = R.OpKind.WRITE, R.OpKind.READ
    ops = tuple(
        R.OpRecord(op_id=i, proc=p, var="x", kind=W if k == "W" else Rd,
                   start=s, end=e, arg=v if k == "W" else None,
                   ret=v if k == "R" else None)
        for i, p, k, s, e, v in spec["ops"]
    )
    var = R.VarSpec(domain=spec["domain"], init=spec["init"],
                    writers=frozenset(spec["writers"]), readers=frozenset(spec["readers"]))
    return R.History(vars={"x": var}, ops=ops)


class Round:
    """What one round measured: its wall time, latency samples
    (reference-speed seconds), CLI seconds by command and scope, the
    seconds of the benchmark's own replays, and the ops it attempted."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.wall = 0.0
        self.op_latency: list[float] = []
        self.check_latency: list[float] = []
        self.cli: dict[str, float] = {}
        self.replay_s = 0.0
        self.ops: list[dict] = []

    def cli_call(self, argv, scope=None):
        """Run one regsim command, adding its seconds to cli.<command>_s
        and, with a scope, to cli.<command>_s.<scope>."""
        code, out, dt = run_cli(argv)
        keys = [f"cli.{argv[0]}_s"] + ([f"cli.{argv[0]}_s.{scope}"] if scope else [])
        for key in keys:
            self.cli[key] = self.cli.get(key, 0.0) + dt
        return code, out, dt


def scenario_file(path: Path, construction, n, workload, level_semantics=None,
                  seed=0, limits=None):
    kinds = {"Write": "W", "Read": "R", "Labeling": "L", "Scan": "S"}
    sc = {
        "construction": construction,
        "n": n,
        "domain": 8,
        "workload": [
            [{"kind": kinds[k], **({"arg": a} if a is not None else {})} for k, a in ops]
            for ops in workload
        ],
        "mode": "enumerate",
        "seed": seed,
        "limits": limits or {"max_executions": 1_000_000, "max_steps": 10_000},
    }
    if level_semantics:
        sc["base_semantics"] = level_semantics
    path.write_text(json.dumps(sc, indent=1) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Workload: enumerate
# ---------------------------------------------------------------------------

#: name, construction, n, op kinds per process, --check level, expected exit.
ENUM_SCENARIOS = (
    ("multiwriter", "multiwriter", 2, (("Write",), ("Write", "Read")), "atomic", 0),
    ("mr_nowriteback", "multireader_nowriteback", 2,
     (("Write",), ("Read",), ("Read",)), "atomic", 1),
    ("cts", "cts", 2, (("Labeling",), ("Labeling", "Scan")), "cts", 0),
    ("regular_bit", "regular_bit", 2, (("Write", "Write"), ("Read", "Read"), ("Read",)),
     "regular", 0),
    ("raw_safe", "raw_register", 1, (("Write", "Write", "Write"), ("Read", "Read")), "safe", 0),
)
SCOPES = tuple(s[0] for s in ENUM_SCENARIOS)

#: Seeded simulate + check runs per enumerated scenario.
SIMULATIONS = 40


class Enumerate:
    #: trace samples are the CLI's visits of single executions (README.md)
    VISIT_SAMPLES = True

    def __init__(self, seed: int, work: Path):
        self.work = work / "enumerate"
        self.seed = seed

    def prepare(self, write: bool = True) -> None:
        """Write the scenario files.  Write arguments are distinct and never
        the initial 0, so every seed gives the same tree and the same number
        of distinct histories; regular_bit alternates 1, 0 so that every
        Write flips the bit."""
        rng = random.Random(f"enumerate-{self.seed}")
        self.jobs = []
        for name, construction, n, kinds, level, expected in ENUM_SCENARIOS:
            values = iter(rng.sample(range(1, 8), 7))
            bit = iter((1, 0))
            workload = [
                [(k, (next(bit) if construction == "regular_bit" else next(values))
                  if k in ("Write", "Labeling") else None) for k in ops]
                for ops in kinds
            ]
            d = self.work / name
            path = d / "scenario.json"
            if write:
                d.mkdir(parents=True)
                scenario_file(path, construction, n, workload,
                              "safe" if construction == "raw_register" else None)
            if construction in ("regular_bit", "raw_register"):
                domain = 2 if construction == "regular_bit" else 8
                executions = reference.weak_base_executions(
                    [["W" if k == "Write" else "R" for k in ops] for ops in kinds], domain)
            else:
                executions = reference.atomic_base_executions(construction, n, kinds)
            sims = [rng.randrange(1 << 30) for _ in range(SIMULATIONS)]
            self.jobs.append({
                "name": name, "construction": construction, "n": n, "level": level,
                "expected": expected, "path": path, "dir": d, "sims": sims,
                "executions": executions,
                "accesses": reference.access_counts(construction, n),
            })

    def setup(self):
        return [R.scenario.build_protocol(R.scenario.load_scenario(str(j["path"])))
                for j in self.jobs]

    def round(self, ctx, rnd: Round, tracer=None) -> None:
        for job in self.jobs:
            name, d = job["name"], job["dir"]
            if tracer:
                tracer.scope = name
            rnd.speed.tick()
            start = rnd.speed.mark()
            op = {"job": job}
            op["enum"] = rnd.cli_call(["enumerate", "--config", str(job["path"]),
                                       "--check", job["level"], "--out", str(d)], name)[0]
            if job["expected"] == 1:
                cx = str(d / "counterexample.jsonl")
                op["cx"] = (rnd.cli_call(["check", cx, "--level", "atomic"])[0],
                            rnd.cli_call(["check", cx, "--level", "regular"])[0])
            op["sims"] = []
            for i, s in enumerate(job["sims"]):
                out = d / f"sim{i}"
                code_s = rnd.cli_call(["simulate", "--config", str(job["path"]),
                                       "--seed", str(s), "--out", str(out)])[0]
                code_c = rnd.cli_call(["check", str(out / "trace.jsonl"),
                                       "--level", job["level"]])[0]
                op["sims"].append((code_s, code_c))
            op["seconds"] = rnd.speed.elapsed(start)
            rnd.ops.append(op)
        if tracer:
            tracer.scope = None

    def verify(self, op, first) -> list[str]:
        """Problems with one scenario's outputs (empty when all is well)."""
        job, d = op["job"], op["job"]["dir"]
        bad = []
        if op["enum"] != job["expected"]:
            return [f"enumerate exited {op['enum']!r}, expected {job['expected']}"]
        report = json.loads((d / "report.json").read_text())
        verdicts = report["verdicts"][job["level"]]
        if report["executions"] != job["executions"]:
            bad.append(f"{report['executions']} executions, reference {job['executions']}")
        if report["truncated"]:
            bad.append("truncated")
        if verdicts["pass"] + verdicts["fail"] != report["executions"]:
            bad.append("verdict counts do not add up")
        if (verdicts["fail"] > 0) != (job["expected"] == 1):
            bad.append(f"{verdicts['fail']} failing executions")
        if report["max_accesses"] != job["accesses"]:
            bad.append(f"max_accesses {report['max_accesses']}, expected {job['accesses']}")
        files = [d / "report.json"]
        if job["expected"] == 1:
            cx = d / "counterexample.jsonl"
            files.append(cx)
            if op["cx"] != (1, 0):
                bad.append(f"counterexample check exits {op['cx']}, expected (1, 0)")
            _, ops = reference.read_trace(cx.read_text())
            if not reference.per_read_ok(ops, "regular", 0, 8):
                bad.append("counterexample is not regular by the reference")
            if reference.atomic_exists(ops, 0):
                bad.append("counterexample is atomic by the reference")
        for i, (code_s, code_c) in enumerate(op["sims"]):
            path = d / f"sim{i}" / "trace.jsonl"
            files.append(path)
            expected = 0
            if job["construction"] != "cts":
                _, ops = reference.read_trace(path.read_text())
                if job["level"] == "atomic":
                    expected = 0 if reference.atomic_exists(ops, 0) else 1
                    if job["expected"] == 0 and expected:
                        bad.append(f"simulation {i} is not atomic by the reference")
                else:
                    domain = 2 if job["construction"] == "regular_bit" else 8
                    if not reference.per_read_ok(ops, job["level"], 0, domain):
                        bad.append(f"simulation {i} fails the reference {job['level']} check")
            if (code_s, code_c) != (0, expected):
                bad.append(f"simulation {i}: exits {(code_s, code_c)}, expected (0, {expected})")
        digests = [digest(f) for f in files]
        if first is not None and digests != first:
            bad.append("outputs differ from the first round's")
        op["digests"] = digests
        return bad


# ---------------------------------------------------------------------------
# Workload: check_corpus
# ---------------------------------------------------------------------------


class CheckCorpus:
    VISIT_SAMPLES = False

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def prepare(self, write: bool = True) -> None:
        self.corpus = gen.corpus(self.seed)

    def setup(self):
        return [to_history(spec) for _, spec in self.corpus]

    def round(self, ctx, rnd: Round, tracer=None) -> None:
        A, REG, SAFE = (R.SemanticsLevel.ATOMIC, R.SemanticsLevel.REGULAR,
                        R.SemanticsLevel.SAFE)
        speed = rnd.speed
        for (family, spec), h in zip(self.corpus, ctx):
            speed.tick()
            start = speed.mark()
            t0 = clock()
            atomic = R.check_level(h, A)
            check_s = (clock() - t0) * speed.scale()
            op = {"family": family, "spec": spec, "atomic": atomic, "oracle": None}
            if sum(1 for o in spec["ops"] if o[4] is not None) <= gen.ORACLE_LIMIT:
                op["oracle"] = R.brute_force_atomic(h)
            if family == "single":
                op["regular"] = R.check_level(h, REG).ok
                op["safe"] = R.check_level(h, SAFE).ok
                op["classify"] = R.classify(h)
            op["seconds"] = speed.elapsed(start)
            rnd.check_latency.append(check_s)
            rnd.op_latency.append(op["seconds"])
            rnd.ops.append(op)

    def verify(self, op, first) -> list[str]:
        spec, atomic = op["spec"], op["atomic"]
        ops, init = spec["ops"], spec["init"]
        bad = []
        if op["oracle"] is not None and op["oracle"] != atomic.ok:
            bad.append(f"check_level says {atomic.ok}, oracle says {op['oracle']}")
        if op["family"] == "contention" and atomic.ok:
            bad.append("contention history judged atomic")
        if atomic.ok and not reference.replay_linearization(ops, atomic.linearizations["x"], init):
            bad.append("witness linearization does not replay")
        if not atomic.ok and atomic.violating_op not in {o[0] for o in ops if o[2] == "R"}:
            bad.append("failing verdict names no Read")
        if op["family"] == "single":
            regular = reference.per_read_ok(ops, "regular", init, spec["domain"])
            safe = reference.per_read_ok(ops, "safe", init, spec["domain"])
            if (op["regular"], op["safe"]) != (regular, safe):
                bad.append(f"regular/safe {op['regular']}/{op['safe']}, reference {regular}/{safe}")
            levels = R.SemanticsLevel
            top = (levels.ATOMIC if atomic.ok else levels.REGULAR if regular
                   else levels.SAFE if safe else None)
            if op["classify"] is not top:
                bad.append(f"classify says {op['classify']}, expected {top}")
        if first is None and op["oracle"] is None and not op["family"] == "contention":
            bad.append("history too large for the oracle")
        if first is None and op["family"] == "contention":
            if reference.atomic_exists(ops, init):
                bad.append("contention history atomic by the reference")
        verdict = (atomic.ok, atomic.violating_op, op.get("classify"))
        if first is not None and verdict != first:
            bad.append("verdict differs from the first round's")
        op["digests"] = verdict
        return bad


# ---------------------------------------------------------------------------
# Workload: trace_roundtrip
# ---------------------------------------------------------------------------

#: construction, n, traces per round, ops per process, op kinds cycled by
#: each process (one list per process), `regsim check` levels.  Sorted by
#: latency the samples form three clusters (cts, multiwriter, multireader);
#: these counts put the medians inside the multiwriter cluster and the 90th
#: percentile of trace latency inside the multireader one.
TRACE_MIX = (
    ("multiwriter", 3, 50, 40, [("Write", "Read")] * 3, ("atomic",)),
    ("multireader", 3, 25, 30, [("Write",)] + [("Read",)] * 3, ("atomic", "classify")),
    ("cts", 3, 25, 40, [("Labeling", "Scan")] * 3, ("cts",)),
)

#: Executions of the no-writeback counterexample search; the first
#: non-atomic execution is well inside this prefix of the tree.
CX_EXECUTIONS = 2000


class TraceRoundtrip:
    VISIT_SAMPLES = False

    def __init__(self, seed: int, work: Path):
        self.work = work / "trace_roundtrip"
        self.seed = seed

    def prepare(self, write: bool = True) -> None:
        """One scenario per trace.  Op kinds are fixed and arguments are
        single digits, so every seed gives traces of the same length and
        register traces of the same size in bytes."""
        rng = random.Random(f"trace-{self.seed}")
        self.jobs = []
        for construction, n, count, per_proc, kinds, levels in TRACE_MIX:
            for i in range(count):
                workload = []
                for p, cycle in enumerate(kinds):
                    # each process cycles through its own values, so a Read's
                    # value names one Write near it (see README)
                    own = range(1, 8) if construction == "multireader" else (2 * p + 1, 2 * p + 2)
                    values = itertools.cycle(rng.sample(own, len(own)))
                    workload.append([
                        (kind, next(values) if kind in ("Write", "Labeling") else None)
                        for kind in itertools.islice(itertools.cycle(cycle), per_proc)
                    ])
                d = self.work / f"{construction}{i}"
                path = d / "scenario.json"
                seed = rng.randrange(1 << 30)
                if write:
                    d.mkdir(parents=True)
                    scenario_file(path, construction, n, workload, seed=seed)
                self.jobs.append({"construction": construction, "path": path, "dir": d,
                                  "seed": seed, "levels": levels})
        d = self.work / "counterexample"
        workload = [[("Write", rng.randint(1, 7))], [("Read", None)], [("Read", None)]]
        self.cx_path, self.cx_dir = d / "scenario.json", d
        if write:
            d.mkdir(parents=True)
            scenario_file(self.cx_path, "multireader_nowriteback", 2, workload,
                          limits={"max_executions": CX_EXECUTIONS})

    def setup(self):
        out = []
        for job in self.jobs:
            sc = R.scenario.load_scenario(str(job["path"]))
            out.append((sc.workload, R.scenario.build_protocol(sc)))
        return out

    def round(self, ctx, rnd: Round, tracer=None) -> None:
        for job, (workload, spec) in zip(self.jobs, ctx):
            d = job["dir"]
            trace = d / "trace.jsonl"
            rnd.speed.tick()
            start = rnd.speed.mark()
            op = {"job": job, "codes": [], "outs": []}
            op["codes"].append(rnd.cli_call(["simulate", "--config", str(job["path"]),
                                             "--seed", str(job["seed"]), "--out", str(d)])[0])
            for level in job["levels"]:
                code, out, _ = rnd.cli_call(["check", str(trace), "--level", level])
                op["codes"].append(code)
                op["outs"].append(out.strip())
            op["seconds"] = rnd.speed.elapsed(start)
            rnd.op_latency.append(op["seconds"])
            op.update(ctx=(workload, spec), text=trace.read_text(encoding="utf-8"))
            rnd.ops.append(op)
        cx = self.cx_dir / "counterexample.jsonl"
        op = {"job": None, "outs": []}
        rnd.speed.tick()
        start = rnd.speed.mark()
        op["codes"] = [
            rnd.cli_call(["enumerate", "--config", str(self.cx_path), "--check", "atomic",
                          "--out", str(self.cx_dir)])[0],
            rnd.cli_call(["check", str(cx), "--level", "atomic"])[0],
            rnd.cli_call(["check", str(cx), "--level", "regular"])[0],
        ]
        op["text"] = cx.read_text(encoding="utf-8") if cx.exists() else ""
        op["seconds"] = rnd.speed.elapsed(start)
        rnd.ops.append(op)

    def verify(self, op, first) -> list[str]:
        job, bad = op["job"], []
        text = op["text"]
        if job is None:  # the no-writeback counterexample
            if op["codes"] != [1, 1, 0]:
                return [f"counterexample exits {op['codes']}, expected [1, 1, 0]"]
            _, ops = reference.read_trace(text)
            if not reference.per_read_ok(ops, "regular", 0, 8) or reference.atomic_exists(ops, 0):
                bad.append("counterexample is not regular-but-not-atomic by the reference")
        else:
            if op["codes"] != [0] * len(op["codes"]):
                return [f"exits {op['codes']}"]
            expected = {"atomic": "atomic: pass", "classify": "atomic", "cts": "cts: pass"}
            if op["outs"] != [expected[lv] for lv in job["levels"]]:
                bad.append(f"check printed {op['outs']}")
            bad += self._roundtrip_replay(op, first is None)
        d = hashlib.sha256(text.encode()).hexdigest()
        if first is not None and d != first:
            bad.append("trace differs from the first round's (same seed)")
        op["digests"] = d
        return bad

    def _roundtrip_replay(self, op, first_round: bool) -> list[str]:
        """Codec round trip and replay of the recorded decisions, outside
        every timed span; the replay's seconds go to engine.run_schedule_s.
        In the first round also the independent checks on a register trace."""
        job, text, bad = op["job"], op["text"], []
        workload, spec = op.pop("ctx")
        decisions = [tuple(d) for d in json.loads(text.split("\n", 1)[0])["decisions"]]
        t0 = clock()
        replayed = R.run_schedule(spec, workload, decisions)
        op["replay_s"] = clock() - t0
        if job["construction"] == "cts":
            h = R.timestamp.parse_cts_trace(text)
            again = R.timestamp.parse_cts_trace(R.timestamp.serialize_cts_trace(h))
            replayed = R.extract_cts_history(replayed)
        else:
            h = R.parse_trace(text)
            again = R.parse_trace(R.serialize_trace(h))
            replayed = R.extract_history(replayed, "high")
        if again != h:
            bad.append("parse(serialize(h)) != h")
        if replayed != h:
            bad.append("replaying the recorded decisions gives other ops")
        if not first_round or job["construction"] == "cts":
            return bad
        _, ops = reference.read_trace(text)
        if sorted(ops) != sorted(register_ops(h)):
            bad.append("regsim and the reference read the trace differently")
        if job["construction"] == "multireader" and not reference.per_read_ok(ops, "regular", 0, 8):
            bad.append("multireader trace is not regular by the reference")
        verdict = R.check_level(h, R.SemanticsLevel.ATOMIC)
        if not verdict.ok or not reference.replay_linearization(ops, verdict.linearizations["X"], 0):
            bad.append("witness linearization does not replay")
        return bad


WORKLOADS = {"enumerate": Enumerate, "check_corpus": CheckCorpus,
             "trace_roundtrip": TraceRoundtrip}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def percentile(samples, q: int) -> float:
    """The q-th percentile (exclusive method, as statistics.quantiles)."""
    return statistics.quantiles(samples, n=100)[q - 1]


class Runner:
    def __init__(self, workload, seconds: float, speed: Speed, probe=None):
        self.workload = workload
        self.speed = speed
        self.probe = probe
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = None
        self.correct = True
        self.first: list | None = None
        self.problems: list[str] = []

    def one_round(self, ctx, tracer=None) -> Round:
        """One round of the workload with the tracer (or else the latency
        probe) installed, then the checks of its ops with neither."""
        rnd = Round(self.speed)
        recorder = tracer or self.probe
        if recorder:
            recorder.install()
        t0 = clock()
        try:
            self.workload.round(ctx, rnd, tracer)
            rnd.wall = clock() - t0
        finally:
            if recorder:
                recorder.uninstall()
        if self.probe:
            checks, visits = self.probe.take()
            rnd.check_latency += checks
            rnd.op_latency += visits
        rnd.op_seconds = [op["seconds"] for op in rnd.ops]
        if self.peak_rss_mb is None:
            # after one round of work, before the benchmark's own records of
            # later rounds add to the process
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digests = []
        for i, op in enumerate(rnd.ops):
            self.attempted += 1
            try:
                bad = self.workload.verify(op, None if self.first is None else self.first[i])
            except Exception as exc:  # a malformed output fails its op
                bad = [f"{type(exc).__name__}: {exc}"]
            digests.append(op.get("digests"))
            rnd.replay_s += op.get("replay_s", 0.0)
            if bad:
                self.failed += 1
                self.problems.append(f"op {i}: " + "; ".join(bad))
        if self.first is None:
            self.first = digests
        elif len(digests) != len(self.first):
            self.correct = False
        rnd.ops = None  # verified; keep only the figures
        return rnd

    def rounds(self, ctx, traced: bool):
        """Untraced rounds, or alternating untraced / traced pairs, until the
        next one would overrun ``seconds`` (at least three, or one pair)."""
        plain, with_trace = [], []
        tracer = Tracer() if traced else None
        start = clock()
        while True:
            plain.append(self.one_round(ctx))
            if traced:
                tracer.reset()
                rnd = self.one_round(ctx, tracer)
                rnd.layers = {None: tracer.metrics()}
                rnd.layers.update({s: tracer.metrics(s) for s in SCOPES})
                with_trace.append(rnd)
                step = plain[-1].wall + rnd.wall
                if clock() - start + step > self.seconds:
                    break
            else:
                step = statistics.median(r.wall for r in plain)
                if len(plain) >= 3 and clock() - start + step > self.seconds:
                    break
        return plain, with_trace


def setup_probe(workload_name: str, seed: int, work: Path) -> None:
    """Child-process side of setup_s: from before ``import regsim`` until
    the workload's inputs are ready.  Prints reference-speed seconds."""
    workload = WORKLOADS[workload_name](seed, work)
    workload.prepare(write=False)
    speed = Speed()
    for _ in range(5):
        speed.probe()
    t0 = clock()
    import_regsim()
    workload.setup()
    raw = clock() - t0
    for _ in range(5):
        speed.probe()
    print(repr(raw * speed.scale()))


def measure_setup(args, work: Path) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe", str(work)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def end_to_end(setup_s, peak_rss_mb, plain, check_samples) -> dict:
    # every round repeats the same traces: one sample per trace, its median
    # over the rounds, as for wall_s
    op = list(map(statistics.median, zip(*(r.op_latency for r in plain))))
    return {
        "setup_s": (setup_s, "s"),
        # each op's median over the rounds, summed: a burst of noise in one
        # round moves one op's sample, not the whole figure
        "wall_s": (sum(map(statistics.median, zip(*(r.op_seconds for r in plain)))), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "check_p50_us": (statistics.median(check_samples) * 1e6, "us"),
        "check_p99_us": (percentile(check_samples, 99) * 1e6, "us"),
        "trace_p50_ms": (statistics.median(op) * 1e3, "ms"),
        "trace_p90_ms": (percentile(op, 90) * 1e3, "ms"),
    }


def per_layer(plain, traced) -> dict:
    out = {}
    for scope in (None,) + SCOPES:
        suffix = f".{scope}" if scope else ""
        for name in traced[0].layers[scope]:
            values = [r.layers[scope][name] for r in traced]
            unit = per_layer_unit(name)
            exact = unit in ("count", "bytes")  # equal in every round
            out[name + suffix] = (values[0] if exact else statistics.median(values), unit)
        for cmd in ("enumerate", "simulate", "check"):
            if scope and cmd != "enumerate":
                continue
            key = f"cli.{cmd}_s{suffix}"
            out[key] = (statistics.median(r.cli.get(key, 0.0) for r in plain), "s")
    # the CLI never calls run_schedule: this is the benchmark's own replay
    out["engine.run_schedule_s"] = (statistics.median(r.replay_s for r in plain), "s")
    out["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                               - statistics.median(r.wall for r in plain), "s")
    return out


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "regsim" / "__init__.py").is_file():
        print(f"error: no regsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.setup_probe))
        return 0

    runs_dir = ROOT / ".bench_run"
    runs_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.prepare()
        setup_s = measure_setup(args, work)
        import_regsim()
        ctx = workload.setup()
        speed = Speed()
        for _ in range(9):
            speed.probe()
        probe = (LatencyProbe(speed, workload.VISIT_SAMPLES)
                 if not args.trace and args.workload != "check_corpus" else None)
        runner = Runner(workload, args.seconds, speed, probe)
        if args.trace:
            plain, traced = runner.rounds(ctx, traced=True)
            counts = [{k: v for k, v in r.layers[None].items()
                       if per_layer_unit(k) in ("count", "bytes")} for r in traced]
            if any(c != counts[0] for c in counts):
                runner.correct = False
                runner.problems.append("per-layer counts differ between rounds")
            metrics = per_layer(plain, traced)
        else:
            plain, _ = runner.rounds(ctx, traced=False)
            checks = [s for r in plain for s in r.check_latency]
            metrics = end_to_end(setup_s, runner.peak_rss_mb, plain, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
