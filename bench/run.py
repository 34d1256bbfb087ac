#!/usr/bin/env python3
"""Benchmark of the blakley library and command line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` of
the checkout this file sits in; no install is needed. Workloads, metrics
and the reasons for both are described in ``bench/README.md``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones. The line
before it is a JSON report with the machine, the counts, the digests and
every end-to-end metric including ``fail_frac`` and ``exhausted_frac``.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

from layertrace import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

M61 = 2**61 - 1
M31 = 2**31 - 1

# Set-up is repeated until the timed set-ups add up to SETUP_SECONDS, and
# at least SETUP_MIN_SAMPLES times, and its median reported. The samples
# are spread over the run, a share before each pass. A set-up of a few ms
# (mostly the import) so gets over a hundred samples, and neither a cold
# bytecode cache on the first import nor a slow second of the machine
# decides setup_s.
SETUP_SECONDS = 1.0
SETUP_MIN_SAMPLES = 3
# Every schedule has at least 100 ops, so latency_p90_ms has ten samples
# above it; each op is timed in at least MIN_PASSES passes.
MIN_PASSES = 3
CLI_TIMEOUT_S = 60
STARTUP_SAMPLES = 15

# sha256 over the BLK1 bytes of GOLDEN_SPLITS, dealt with RandomSource.seeded.
# Seeded split output must stay byte-identical; an exhausted split counts
# as the bytes b"EXHAUSTED\n".
GOLDEN_SPLITS = (
    # (p, t, n, secret, seed)
    (M61, 3, 5, 123456789, 1),
    (M61, 4, 8, 987654321, 2),
    (M31, 5, 5, 31337, 3),
    (101, 8, 8, 100, 4),
    (31, 3, 5, 17, 5),
    (13, 3, 5, 4, 6),
    (7, 3, 5, 6, 7),
    (7, 3, 8, 1, 8),
)
GOLDEN_DIGEST = "69d92fd24680a6cba531a43b9ae9485b0248d143ecc2468b1619ea5ac20998fb"


def op_seed(workload: str, seed: int, index: int, role: str) -> int:
    """Seed of one operation: each op draws from its own stream, so an op
    that consumes more or fewer draws does not shift any later op."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}/{role}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def import_blakley():
    """Import a fresh copy of the package from SRC."""
    for name in [m for m in sys.modules if m == "blakley" or m.startswith("blakley.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import blakley

    if Path(blakley.__file__).resolve().parent != SRC / "blakley":
        raise ImportError(f"blakley was imported from {blakley.__file__}, not {SRC}")
    return blakley


def encode_all(bl, shares) -> bytes:
    return "".join(bl.encode_share(s) for s in shares).encode()


@dataclass
class Outcome:
    ns: int
    blob: bytes
    ok: bool
    split: bool = False
    exhausted: bool = False
    error: str = ""
    kind: str = ""


class NullTracer:
    active = False


NULL_TRACER = NullTracer()


def weighted(cells):
    """Each (cell, weight) repeated weight times, spread evenly."""
    slots = []
    for k, (cell, w) in enumerate(cells):
        slots += [((j + 0.5) / w, k, cell) for j in range(w)]
    slots.sort()
    return [cell for _, _, cell in slots]


class Workload:
    """A fixed list of operations (one pass), built from weighted cells.

    Op i draws its inputs from op_seed(name, seed, i, ...) alone, so a
    pass is the same work every time it runs. ``op(i, rep)`` runs op i in
    pass number rep.
    """

    name = ""
    cells = ()
    repeats = 1
    # Seconds one pass took when the benchmark was written (CPython 3.11,
    # 2 x86-64 vCPUs); a run makes round(--seconds / pass_seconds) passes,
    # so both commits of a comparison do the same work.
    pass_seconds = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.schedule = weighted(self.cells) * self.repeats
        self.tracer = NULL_TRACER

    def setup(self, bl):
        self.bl = bl

    def teardown(self):
        pass

    def traced_pass(self, tracer, untraced: list) -> tuple:
        """(base, traced): a pass with tracer on, and the untraced pass
        that trace_overhead compares it with."""
        self.tracer = tracer
        try:
            return untraced, run_pass(self)
        finally:
            self.tracer = NULL_TRACER

    def rng(self, index: int, role: str) -> random.Random:
        return random.Random(op_seed(self.name, self.seed, index, role))


class DealWorkload(Workload):
    """Library split; each op is one call of blakley.split."""

    def setup(self, bl):
        super().setup(bl)
        self.params = {
            cell: bl.SchemeParams(bl.PrimeModulus(cell[0]), cell[1], cell[2])
            for cell, _ in self.cells
        }

    def op(self, index: int, rep: int) -> Outcome:
        bl = self.bl
        p, t, n = cell = self.schedule[index]
        params = self.params[cell]
        secret = self.rng(index, "input").randrange(p)
        dealer = bl.RandomSource.seeded(op_seed(self.name, self.seed, index, "dealer"))
        tracer = self.tracer
        shares = None
        error = ""
        t0 = perf_counter_ns()
        tracer.active = True
        try:
            shares = bl.split(secret, params, dealer)
        except bl.AdmissibilityExhaustedError:
            pass
        except Exception as e:  # an undocumented error is a failed op
            error = f"{type(e).__name__}: {e}"
        finally:
            tracer.active = False
        ns = perf_counter_ns() - t0
        if error:
            return Outcome(ns, b"", False, split=True, error=error)
        if shares is None:  # a documented outcome, not a failure
            return Outcome(ns, b"EXHAUSTED\n", True, split=True, exhausted=True)
        if n > p:  # no admissible set exists for n > p (Ball's bound on MDS codes)
            return Outcome(ns, b"", False, split=True, error=f"split returned for n > p at {cell}")
        ok = ([s.index for s in shares] == list(range(1, n + 1))
              and all(s.params == params for s in shares)
              and bl.reconstruct(self.rng(index, "subset").sample(shares, t)) == secret)
        return Outcome(ns, encode_all(bl, shares), ok, split=True,
                       error="" if ok else f"dealt set at {cell} does not reconstruct")


class Deal(DealWorkload):
    name = "deal"
    # p50 falls inside the (4,8) group and p90 inside the (4,16) group,
    # away from the edges between cells.
    cells = (
        ((M61, 3, 5), 40),
        ((M61, 4, 8), 20),
        ((M61, 5, 10), 10),
        ((M61, 5, 12), 15),
        ((M61, 4, 16), 10),
        ((M61, 5, 16), 5),
    )
    pass_seconds = 3.2


class DealTight(DealWorkload):
    name = "deal-tight"
    cells = tuple(((p, t, n), 1) for p in (7, 11, 13, 17, 23, 31)
                  for t, n in ((3, 5), (3, 6), (4, 6))) + (((7, 3, 8), 1),)
    # Attempts per split are random, so p50 needs many ops to settle.
    repeats = 30
    pass_seconds = 6.1


def recoordinate(bl, shares, rng: random.Random) -> list:
    """Another share set of the same secret, with other records.

    The planes are moved by the change of coordinates x_j = x'_j + lam x'_k
    (one j >= 2, k != j), which keeps x_1, and then translated by a vector
    whose first entry is 0. Both keep the secret. The translation changes
    only the constants, and the change of coordinates acts on the
    coefficient rows by an invertible map that fixes e_1, so every
    t-subset stays nonsingular and every smaller one still leaves x_1
    open: the set stays admissible without running the dealer again.
    """
    params = shares[0].params
    p, t = params.modulus.p, params.threshold
    rows = [list(s.coeffs) for s in shares]
    if t >= 3:
        j = rng.randrange(1, t - 1)
        k = rng.choice([m for m in range(t - 1) if m != j])
        lam = rng.randrange(1, p)
        for a in rows:
            a[k] = (a[k] + lam * a[j]) % p
    shift = [0] + [rng.randrange(p) for _ in range(t - 1)]
    return [bl.Share(s.index, tuple(a),
                     s.constant + shift[-1] - sum(x * v for x, v in zip(a, shift)), params)
            for s, a in zip(shares, rows)]


class Combine(Workload):
    """decode_share on t records, then reconstruct; the dealer does not run.

    Each cell's set is dealt once, in set-up (the t = 32 ones take 0.2 s
    each). Every (op, pass) then combines its own records, made from that
    set by recoordinate() outside the timer: no record, share or
    coefficient matrix repeats, so only per-prime work such as the
    primality proof of p is the same from one op to the next.
    """

    name = "combine"
    cells = tuple(((p, t), 1) for p in (101, M31, M61) for t in (2, 3, 5, 8, 16, 32))
    repeats = 20
    pass_seconds = 0.45

    def setup(self, bl):
        super().setup(bl)
        self.sets = {}
        for (p, t), _ in self.cells:
            params = bl.SchemeParams(bl.PrimeModulus(p), t, t)
            rng = random.Random(op_seed(self.name, self.seed, 0, f"set/{p}/{t}"))
            secret = rng.randrange(p)
            self.sets[(p, t)] = (bl.split(secret, params, bl.RandomSource(rng)), secret)

    def op(self, index: int, rep: int) -> Outcome:
        bl = self.bl
        p, t = self.schedule[index]
        shares, secret = self.sets[(p, t)]
        rng = self.rng(index, f"input/{rep}")
        records = [bl.encode_share(s) for s in rng.sample(recoordinate(bl, shares, rng), t)]
        tracer = self.tracer
        got = None
        error = ""
        t0 = perf_counter_ns()
        tracer.active = True
        try:
            got = bl.reconstruct([bl.decode_share(r) for r in records])
        except Exception as e:  # every dealt set must combine
            error = f"{type(e).__name__}: {e}"
        finally:
            tracer.active = False
        ns = perf_counter_ns() - t0
        ok = got == secret
        if not ok and not error:
            error = f"combine at p={p} t={t} returned the wrong secret"
        return Outcome(ns, f"{got}\n".encode(), ok, error=error)


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd, env) -> tuple:
    """Run cmd to completion and return (wall ns, CompletedProcess).

    The waits block, because subprocess's timeout path polls with sleeps
    of up to 50 ms and so rounds each time up to its next poll. A timer
    kills a child that runs past CLI_TIMEOUT_S instead.
    """
    t0 = perf_counter_ns()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return perf_counter_ns() - t0, subprocess.CompletedProcess(cmd, proc.returncode, out, err)


class Cli(Workload):
    """One `python -m blakley` process at a time, in a fixed rotation."""

    name = "cli"
    cells = (("split", 1), ("combine", 1), ("inspect", 1), ("analyze0", 1), ("analyze1", 1))
    repeats = 20
    pass_seconds = 4.7
    SPLIT = (M61, 4, 8)
    ANALYZE = (31, 3, 5)

    def setup(self, bl):
        super().setup(bl)
        self.env = python_env()
        self.spawned = 0
        self.dir = WORK / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = {}
        for p, t, n in (self.SPLIT, self.ANALYZE):
            params = bl.SchemeParams(bl.PrimeModulus(p), t, n)
            rng = random.Random(op_seed(self.name, self.seed, 0, f"set/{p}"))
            secret = rng.randrange(p)
            shares = bl.split(secret, params, bl.RandomSource(rng))
            paths = []
            for s in shares:
                path = self.dir / f"in-{p}-{s.index}.blk"
                path.write_text(bl.encode_share(s))
                paths.append(str(path))
            self.files[p] = (paths, shares, secret)
        self.child_stats = []
        self.harness = False

    def traced_pass(self, tracer, untraced: list) -> tuple:
        # A traced command runs through cli_child.py, so its base is the
        # same command through the same child with tracing off, run just
        # before it so that both see the same machine.
        base, traced = [], []
        for i in range(len(self.schedule)):
            self.harness = True
            try:
                base.append(self.op(i, 0))
            finally:
                self.harness = False
            self.tracer = tracer
            try:
                traced.append(self.op(i, 0))
            finally:
                self.tracer = NULL_TRACER
        return base, traced

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass

    def run(self, argv):
        self.spawned += 1
        stats = None
        if self.tracer is not NULL_TRACER:
            stats = self.dir / f"stats-{self.spawned}.json"
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(stats)] + argv
        elif self.harness:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), "-"] + argv
        else:
            cmd = [sys.executable, "-m", "blakley"] + argv
        ns, proc = spawn(cmd, self.env)
        if stats is not None and stats.exists():
            self.child_stats.append(json.loads(stats.read_text()))
        return ns, proc

    def op(self, index: int, rep: int) -> Outcome:
        kind = self.schedule[index]
        outcome = self.command(kind, index, self.rng(index, "input"))
        outcome.kind = kind
        return outcome

    def command(self, kind: str, index: int, rng: random.Random) -> Outcome:
        bl = self.bl
        if kind == "split":
            p, t, n = self.SPLIT
            secret = rng.randrange(p)
            seed = op_seed(self.name, self.seed, index, "dealer")
            out = self.dir / f"split-{self.spawned}"
            ns, proc = self.run(["split", "--secret", str(secret), "--prime", str(p),
                                 "--threshold", str(t), "--shares", str(n),
                                 "--out", str(out), "--seed", str(seed)])
            params = bl.SchemeParams(bl.PrimeModulus(p), t, n)
            want = encode_all(bl, bl.split(secret, params, bl.RandomSource.seeded(seed)))
            files = sorted(out.glob("*.blk")) if out.is_dir() else []
            blob = b"".join((out / f"share_{i}.blk").read_bytes()
                            for i in range(1, n + 1) if (out / f"share_{i}.blk").is_file())
            ok = (proc.returncode == 0 and proc.stdout == b"" and len(files) == n
                  and blob == want)
            if ok:
                chosen = rng.sample(files, t)
                ok = bl.reconstruct([bl.decode_share(f.read_text()) for f in chosen]) == secret
            shutil.rmtree(out, ignore_errors=True)
            return self.outcome(ns, proc, blob, ok, split=True)
        if kind == "combine":
            paths, shares, secret = self.files[self.SPLIT[0]]
            ns, proc = self.run(["combine"] + rng.sample(paths, self.SPLIT[1]))
            return self.outcome(ns, proc, proc.stdout, proc.stdout == f"{secret}\n".encode())
        if kind == "inspect":
            paths, shares, _ = self.files[self.SPLIT[0]]
            k = rng.randrange(len(paths))
            ns, proc = self.run(["inspect", paths[k]])
            s = shares[k]
            want = [f"modulus: {s.params.modulus.p}", f"threshold: {s.params.threshold}",
                    f"shares: {s.params.total}", f"index: {s.index}",
                    f"coefficients: {','.join(map(str, s.coeffs))}",
                    f"constant: {s.constant}"]
            lines = proc.stdout.decode().splitlines()
            ok = lines[:6] == want and len(lines) == 7 and lines[6].startswith("plane: ")
            return self.outcome(ns, proc, proc.stdout, ok)
        p, t, _ = self.ANALYZE
        if kind == "analyze0":
            held = []
            ns, proc = self.run(["analyze", "--prime", str(p), "--threshold", str(t)])
        else:
            paths = self.files[p][0]
            held = [paths[rng.randrange(len(paths))]]
            ns, proc = self.run(["analyze"] + held)
        # Fewer than t shares of an admissible set leave every secret
        # equally likely: p candidates, each on p**(t-1-k) points.
        per_value = p ** (t - 1 - len(held))
        lines = proc.stdout.decode().splitlines()
        ok = (lines[:2] == [f"p={p} t={t} shares={len(held)}", f"candidates: {p} of {p}"]
              and "pinned: no" in lines
              and lines[-p:] == [f"{v:>5} {per_value:>5}" for v in range(p)])
        return self.outcome(ns, proc, proc.stdout, ok)

    def outcome(self, ns, proc, blob, ok, split=False) -> Outcome:
        exhausted = split and proc.returncode == 3
        error = "" if ok else (f"exit {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()[-200:]}")
        return Outcome(ns, blob + f"exit={proc.returncode}\n".encode(), ok,
                       split=split, exhausted=exhausted, error=error)


WORKLOADS = {w.name: w for w in (Deal, DealTight, Combine, Cli)}


def golden_digest(bl) -> str:
    h = hashlib.sha256()
    for p, t, n, secret, seed in GOLDEN_SPLITS:
        params = bl.SchemeParams(bl.PrimeModulus(p), t, n)
        try:
            h.update(encode_all(bl, bl.split(secret, params, bl.RandomSource.seeded(seed))))
        except bl.AdmissibilityExhaustedError:
            h.update(b"EXHAUSTED\n")
    return h.hexdigest()


def run_pass(workload, rep: int = 0) -> list:
    return [workload.op(i, rep) for i in range(len(workload.schedule))]


def set_up(workload, times: list, until_s: float):
    """Set the workload up again, timing each set-up into times, until
    times add up to until_s and hold at least SETUP_MIN_SAMPLES."""
    while len(times) < SETUP_MIN_SAMPLES or sum(times) < until_s:
        if times:
            workload.teardown()
        gc.collect()
        t0 = perf_counter()
        workload.setup(import_blakley())
        times.append(perf_counter() - t0)


def measure(workload, seconds: float, setup_times: list) -> list:
    count = max(MIN_PASSES, round(seconds / workload.pass_seconds))
    passes = []
    for rep in range(count):
        set_up(workload, setup_times, SETUP_SECONDS * (rep + 1) / count)
        passes.append(run_pass(workload, rep))
    return passes


def fold(passes) -> tuple:
    """One Outcome per op, timed as the fastest of its passes.

    The machine's speed drifts by tens of percent over seconds; the
    fastest pass of each op leaves out most of that drift. An op fails
    if any pass failed or produced other bytes than the first pass.
    Returns (outcomes, failed executions).
    """
    ops = []
    failed = 0
    for runs in zip(*passes):
        first = runs[0]
        bad = [r for r in runs if not r.ok or r.blob != first.blob]
        failed += len(bad)
        error = next((r.error for r in bad if r.error), "output differs between passes" if bad else "")
        ops.append(Outcome(min(r.ns for r in runs), first.blob, not bad, first.split,
                           first.exhausted, error, first.kind))
    return ops, failed


def digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.blob)
    return h.hexdigest()


def ops_per_s(outcomes) -> float:
    return len(outcomes) / (sum(o.ns for o in outcomes) / 1e9)


def end_to_end(outcomes, failed: int, attempted: int, setup_times) -> dict:
    ms = [o.ns / 1e6 for o in outcomes]
    splits = [o for o in outcomes if o.split]
    return {
        "ops_per_s": (ops_per_s(outcomes), "ops/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "fail_frac": (failed / attempted, "ratio"),
        "exhausted_frac": (sum(o.exhausted for o in splits) / len(splits) if splits else 0.0,
                           "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def startup_ms() -> tuple:
    """Median wall ms of `python -c pass` and of `python -c "import blakley.cli"`,
    sampled alternately so that both see the same machine speed."""
    times = ([], [])
    for _ in range(STARTUP_SAMPLES):
        for code, out in zip(("pass", "import blakley.cli"), times):
            ns, proc = spawn([sys.executable, "-c", code], python_env())
            if proc.returncode:
                raise RuntimeError(f"python -c {code!r} exited {proc.returncode}")
            out.append(ns / 1e6)
    return statistics.median(times[0]), statistics.median(times[1])


def per_layer(tracer, untraced, base, traced) -> dict:
    calls, edges = tracer.calls, tracer.edges

    def ms(name):
        return tracer.total_ns[name] / 1e6

    def self_ms(name):
        return tracer.self_ns[name] / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    adm = calls["scheme.admissible"]
    checks = (edges["scheme.admissible>modlinalg.determinant"]
              + edges["scheme.admissible>modlinalg.in_rowspace"])
    scan_s = ms("analysis.candidate_secrets") / 1e3
    p, t, _ = Cli.ANALYZE
    out = {
        "scheme.admissible.calls": (adm, "count"),
        "scheme.admissible.self_ms": (self_ms("scheme.admissible"), "ms"),
        "scheme.subset_checks_per_admissible": (ratio(checks, adm), "count"),
        "scheme.attempts_per_split": (ratio(edges["scheme.split>scheme.admissible"],
                                            calls["scheme.split"]), "count"),
        "scheme.accept_ratio": (ratio(tracer.true_returns["scheme.admissible"], adm), "ratio"),
        "scheme.split.self_ms": (self_ms("scheme.split"), "ms"),
        "scheme.reconstruct_point.self_ms": (self_ms("scheme.reconstruct_point"), "ms"),
        "modlinalg.ModMatrix.calls": (calls["modlinalg.ModMatrix"], "count"),
        "share_io.decode_share.self_ms": (self_ms("share_io.decode_share"), "ms"),
        # Every analyze op of the cli workload scans all p**t points.
        "analysis.points_per_s": (ratio(calls["analysis.candidate_secrets"] * p**t, scan_s),
                                  "1/s"),
    }
    for name in ("modlinalg.determinant", "modlinalg.rank", "modlinalg.in_rowspace",
                 "modlinalg.solve", "field.inv_mod", "field.sample_uniform", "field.is_prime",
                 "share_io.encode_share", "analysis.candidate_secrets"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.ms"] = (ms(name), "ms")
    out["share_io.decode_share.calls"] = (calls["share_io.decode_share"], "count")

    startup, imported = startup_ms()
    out["cli.interp_startup_ms"] = (startup, "ms")
    out["cli.import_ms"] = (imported - startup, "ms")
    # Median wall time of each command's process; 0 on the library workloads.
    for kind in ("split", "combine", "inspect", "analyze"):
        times = [o.ns / 1e6 for o in untraced if o.kind.startswith(kind)]
        out[f"cli.{kind}.ms"] = (statistics.median(times) if times else 0.0, "ms")
    out["trace_overhead"] = (ops_per_s(traced) / ops_per_s(base), "ratio")
    return out


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "blakley" / "__init__.py").is_file():
        print(f"bench: no blakley package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    setup_times = []
    try:
        report = {"workload": workload.name, "seed": args.seed, "machine": machine(),
                  "ops_per_pass": len(workload.schedule)}
        if args.trace:
            set_up(workload, setup_times, SETUP_SECONDS)
            untraced = run_pass(workload)
            tracer = Tracer()
            tracer.install()
            try:
                base, traced = workload.traced_pass(tracer, untraced)
            finally:
                tracer.uninstall()
            for stats in getattr(workload, "child_stats", ()):
                tracer.merge(stats)
            runs = [untraced, traced] if base is untraced else [untraced, base, traced]
            outcomes, failed = fold(runs)
            attempted = len(runs) * len(outcomes)
            metrics = per_layer(tracer, untraced, base, traced)
            report["calls"] = dict(sorted(tracer.calls.items()))
        else:
            passes = measure(workload, args.seconds, setup_times)
            outcomes, failed = fold(passes)
            attempted = len(passes) * len(outcomes)
            metrics = end_to_end(outcomes, failed, attempted, setup_times)
            report["passes"] = len(passes)
        report["golden_digest"] = golden_digest(workload.bl)
    finally:
        workload.teardown()

    report["digest"] = digest(outcomes)
    report["attempted"] = attempted
    report["failed"] = failed
    report["errors"] = sorted({o.error for o in outcomes if o.error})[:10]
    report["setup_samples"] = len(setup_times)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = failed == 0 and report["golden_digest"] == GOLDEN_DIGEST
    # fail_frac and exhausted_frac are 0 on most workloads, so they stay in
    # the report line; the result line carries failures as `failed`.
    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                      if k not in ("fail_frac", "exhausted_frac")}
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as e:
        print(f"bench: cannot import blakley: {e}", file=sys.stderr)
        sys.exit(2)
