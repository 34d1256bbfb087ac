"""Command line front end.

Subcommands: split, combine, analyze, inspect, bench. Exit codes are
stable: 0 success; 3 the rejection loop gave up
(AdmissibilityExhaustedError); 4 the shares do not determine a unique
point (SingularSharesError); 5 the leakage scan would be too large
(EnumerationTooLargeError); 2 bad arguments and any other BlakleyError,
ValueError or OSError. Each code covers its error's subclasses too.
Secrets are only ever written to stdout or share files, never to stderr.
"""

import argparse
import sys
import time
from pathlib import Path

from .analysis import candidate_secrets
from .errors import (
    AdmissibilityExhaustedError,
    BlakleyError,
    EnumerationTooLargeError,
    InvalidParamsError,
    MalformedFieldError,
    SingularSharesError,
)
from .field import PrimeModulus, RandomSource, is_prime, sample_uniform
from .scheme import SchemeParams, _require_splittable, reconstruct, split
from .share_io import MAX_RECORD_LEN, decode_share, encode_share

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_SINGULAR = 4
EXIT_TOO_LARGE = 5

# The first family an error belongs to picks its exit code; any other
# error that main catches exits EXIT_USAGE.
_EXIT_CODES = (
    (AdmissibilityExhaustedError, EXIT_EXHAUSTED),
    (SingularSharesError, EXIT_SINGULAR),
    (EnumerationTooLargeError, EXIT_TOO_LARGE),
)


def _rng(seed) -> RandomSource:
    return RandomSource.system() if seed is None else RandomSource.seeded(seed)


def _read_share(path: str):
    # Read bytes, not text: a record ending in \r\n or \r must fail the
    # grammar, not be turned into \n. Read one byte past the longest
    # valid record, so an endless or huge file costs bounded memory and
    # still fails as too long.
    with open(path, "rb") as fh:
        data = fh.read(MAX_RECORD_LEN + 1)
    try:
        record = data.decode("ascii")
    except UnicodeDecodeError:
        raise MalformedFieldError("share file is not ASCII") from None
    if len(record) > MAX_RECORD_LEN:
        raise MalformedFieldError(f"share file is longer than {MAX_RECORD_LEN} characters")
    return decode_share(record)


def cmd_split(args) -> int:
    params = SchemeParams(PrimeModulus(args.prime), args.threshold, args.shares)
    shares = split(args.secret, params, _rng(args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for share in shares:
        (out / f"share_{share.index}.blk").write_text(encode_share(share))
    return EXIT_OK


def cmd_combine(args) -> int:
    shares = [_read_share(f) for f in args.files]
    print(reconstruct(shares))
    return EXIT_OK


def cmd_analyze(args) -> int:
    shares = [_read_share(f) for f in args.files]
    if not shares and (args.prime is None or args.threshold is None):
        raise InvalidParamsError("analyzing zero shares needs --prime and --threshold")
    modulus = None if args.prime is None else PrimeModulus(args.prime)
    report = candidate_secrets(shares, modulus=modulus, threshold=args.threshold)
    p = len(report.candidate_counts)
    t = shares[0].params.threshold if shares else args.threshold
    live = report.candidates()
    print(f"p={p} t={t} shares={len(shares)}")
    print(f"candidates: {len(live)} of {p}")
    print(f"entropy: {report.entropy_bits:.12f} bits (max {report.max_bits:.12f})")
    if report.pinned:
        print(f"pinned: yes (value {report.pinned_value()})")
    else:
        print("pinned: no")
    width_v = max(len("value"), len(str(p - 1)))
    width_c = max([len("count")] + [len(str(report.candidate_counts[v])) for v in live])
    print(f"{'value'.rjust(width_v)} {'count'.rjust(width_c)}")
    for v in live:
        print(f"{str(v).rjust(width_v)} {str(report.candidate_counts[v]).rjust(width_c)}")
    if args.csv:
        with open(args.csv, "w") as fh:
            for v in range(p):
                fh.write(f"{v},{report.candidate_counts[v]}\n")
    return EXIT_OK


def _plane_equation(share) -> str:
    t = share.params.threshold
    if t == 2:
        names, lhs = ["x"], "y"
    elif t == 3:
        names, lhs = ["x", "y"], "z"
    else:
        names, lhs = [f"x{j}" for j in range(1, t)], f"x{t}"
    terms = [f"{a}{name}" for a, name in zip(share.coeffs, names)]
    terms.append(str(share.constant))
    return f"{lhs} = {' + '.join(terms)} (mod {share.params.modulus.p})"


def cmd_inspect(args) -> int:
    share = _read_share(args.file)
    params = share.params
    print(f"modulus: {params.modulus.p}")
    print(f"threshold: {params.threshold}")
    print(f"shares: {params.total}")
    print(f"index: {share.index}")
    print(f"coefficients: {','.join(str(v) for v in share.coeffs)}")
    print(f"constant: {share.constant}")
    print(f"plane: {_plane_equation(share)}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.primes < 1:
        raise InvalidParamsError("--primes must be at least 1")
    if args.trials < 1:
        raise InvalidParamsError("--trials must be at least 1")
    rng = _rng(args.seed)
    t, n = args.threshold, args.shares
    # check (t, n) before any prime search
    _require_splittable(SchemeParams(PrimeModulus(2), t, n))
    rows = []
    prime_index = 0
    candidate = 1
    while len(rows) < args.primes:
        candidate += 1
        if not is_prime(candidate):
            continue
        prime_index += 1
        if candidate <= n:
            print(f"bench: skipping prime {candidate} at prime_index "
                  f"{prime_index}: not above n={n}", file=sys.stderr)
            continue
        modulus = PrimeModulus(candidate)
        params = SchemeParams(modulus, t, n)
        split_total = 0.0
        rec_total = 0.0
        for _ in range(args.trials):
            secret = sample_uniform(rng, modulus)
            t0 = time.perf_counter()
            shares = split(secret, params, rng)
            split_total += time.perf_counter() - t0
            subset = rng.sample(shares, t)
            t0 = time.perf_counter()
            got = reconstruct(subset)
            rec_total += time.perf_counter() - t0
            if got != secret:
                raise SingularSharesError(
                    f"round trip mismatch at p={candidate}"
                )
        rows.append((prime_index, candidate,
                     split_total / args.trials, rec_total / args.trials))
    with open(args.out, "w") as fh:
        fh.write("prime_index,prime,split_seconds,reconstruct_seconds,trials\n")
        for idx, p, s, r in rows:
            fh.write(f"{idx},{p},{s:.9f},{r:.9f},{args.trials}\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blakley",
        description="Blakley threshold secret sharing over a prime field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_split = sub.add_parser("split", help="write share files for a secret")
    p_split.add_argument("--secret", type=int, required=True)
    p_split.add_argument("--prime", type=int, required=True)
    p_split.add_argument("--threshold", type=int, required=True)
    p_split.add_argument("--shares", type=int, required=True)
    p_split.add_argument("--out", required=True, help="directory for share_<i>.blk files")
    p_split.add_argument("--seed", type=int, default=None,
                         help="deterministic randomness for reproducible shares; a seeded"
                         " split is only as secret as the seed, since the seed and one"
                         " share give the secret, and at p = 2^61-1 shares 1..t-1 gave"
                         " it whatever the seed in every cell tried with t >= 24;"
                         " smaller cells are not known to be safe")
    p_split.set_defaults(func=cmd_split)

    p_combine = sub.add_parser("combine", help="recover the secret from t share files")
    p_combine.add_argument("files", nargs="+")
    p_combine.set_defaults(func=cmd_combine)

    p_analyze = sub.add_parser("analyze",
                               help="enumerate what a sub-threshold share set reveals")
    p_analyze.add_argument("files", nargs="*")
    p_analyze.add_argument("--csv", default=None, help="also write value,count rows here")
    p_analyze.add_argument("--prime", type=int, default=None,
                           help="field modulus, needed when no files are given")
    p_analyze.add_argument("--threshold", type=int, default=None,
                           help="scheme threshold, needed when no files are given")
    p_analyze.set_defaults(func=cmd_analyze)

    p_inspect = sub.add_parser("inspect", help="pretty-print one share file")
    p_inspect.add_argument("file")
    p_inspect.set_defaults(func=cmd_inspect)

    p_bench = sub.add_parser("bench", help="time split and reconstruct over growing primes")
    p_bench.add_argument("--primes", type=int, required=True,
                         help="number of benchmarked primes (those above --shares)")
    p_bench.add_argument("--shares", type=int, required=True)
    p_bench.add_argument("--threshold", type=int, required=True)
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (BlakleyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        for family, code in _EXIT_CODES:
            if isinstance(e, family):
                return code
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
