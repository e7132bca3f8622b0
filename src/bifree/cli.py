"""Command-line surface: combinatorial queries, moments, property checks.

Exit codes: 0 = success / property holds, 1 = counterexample found,
2 = usage or data error.  All output is line-oriented and byte-stable under
fixed flags and seed.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .bnc import (
    BncPartition,
    bnc_mobius,
    classify_blocks,
    enumerate_bnc,
    is_bi_non_crossing,
    maximal_mono_intervals,
)
from .cumulants import cumulant_test
from .errors import BiFreeError, DomainError, SizeError
from .liberation import (
    eval_tensor,
    liberation_test,
    replacement_expand,
    taur,
    taur_test,
    ubm_eval,
    ubm_moment,
)
from .partitions import format_partition, parse_partition
from .specfile import load_family
from .vaccine import vaccine_reconstruct_moment, vaccine_test


# `ubm --n` above this exits 2 before any work; `ubm --n 3000 --t 1` takes
# about 2 s, and the time grows about as n^3 (n = 10,000 took 69 s)
UBM_MAX_N = 3000
# `--word` above this many letters exits 2 before any work.  From the command
# line, 976 letters already end in a RecursionError in `moment` (all three
# modes) and `liberate`; a caller that runs main() from a deeper stack fails
# sooner, so the limit keeps half the recursion limit spare.  Words this long
# are far out of reach in time anyway: `moment --spec tests/data/two_pairs.json`
# on 20 letters `al` takes about 7 s, and two more letters about 4 times as long.
WORD_MAX_LEN = 500


def _parse_eps(text: str) -> tuple:
    return tuple(tok.strip() for tok in text.split(","))


def _word(fam, text):
    """The --word argument parsed against the spec, at most WORD_MAX_LEN letters."""
    w = fam.word(text)
    if len(w) > WORD_MAX_LEN:
        raise SizeError(f"--word must have at most {WORD_MAX_LEN} letters, got {len(w)}")
    return w


def _pair(fam, pair):
    """The --pair argument, which must name a pair of the spec when given."""
    if pair is not None and pair not in fam.pures:
        raise DomainError(f"--pair {pair!r} names no pair of the spec")
    return pair


def cmd_bnc(args) -> int:
    chi = args.chi
    if args.action == "enum":
        for bp in enumerate_bnc(chi):
            print(format_partition(bp.partition))
    elif args.action == "intervals":
        eps = _parse_eps(args.eps)
        for interval in maximal_mono_intervals(chi, eps):
            print(" ".join(str(i) for i in interval))
    elif args.action == "check":
        p = parse_partition(args.pi, len(chi))
        print("BNC: yes" if is_bi_non_crossing(p, chi) else "BNC: no")
    elif args.action == "blocks":
        p = parse_partition(args.pi, len(chi))
        labels = classify_blocks(BncPartition.of(p, chi))
        for b in p.blocks:
            print(f"{' '.join(str(x) for x in b)}: {labels[b]}")
    elif args.action == "mobius":
        lower = parse_partition(args.lower, len(chi))
        upper = parse_partition(args.upper, len(chi))
        print(bnc_mobius(BncPartition.of(lower, chi), BncPartition.of(upper, chi)))
    return 0


def cmd_moment(args) -> int:
    fam = load_family(args.spec)
    w = _word(fam, args.word)
    if args.mode == "bifree":
        print(fam.joint().phi(w))
    elif args.mode == "vaccine":
        print(vaccine_reconstruct_moment(fam.pures, w, seed=args.seed))
    else:
        print(fam.joint().theta(w))
    return 0


def cmd_check(args) -> int:
    fam = load_family(args.spec)
    joint = fam.joint()
    pair = _pair(fam, args.pair)
    if args.method == "vaccine":
        verdict = vaccine_test(joint, args.max_len, args.trials, args.seed)
    elif args.method == "taur":
        verdict = taur_test(joint, pair, args.max_len)
    elif args.method == "liberation":  # against the spec's joint, perturbations included
        verdict = liberation_test(joint, pair, args.max_len)
    else:
        verdict = cumulant_test(joint, args.max_len)
    print(verdict.render())
    return 0 if verdict.holds else 1


def cmd_ubm(args) -> int:
    if args.n > UBM_MAX_N:
        raise SizeError(f"ubm --n must be at most {UBM_MAX_N}, got {args.n}")
    if args.t is None:
        moment = ubm_moment(args.n)
        try:
            text = moment.render()
        except ValueError:  # an integer past the interpreter's str() digit limit
            raise SizeError(
                f"ubm --n {args.n}: a coefficient has more than "
                f"{sys.get_int_max_str_digits()} digits, the interpreter's limit "
                "for printing an integer") from None
        print(text)
    else:
        print(f"{ubm_eval(args.n, args.t):.12g}")
    return 0


def cmd_taur(args) -> int:
    fam = load_family(args.spec)
    print(taur(_word(fam, args.word), _pair(fam, args.pair)).render())
    return 0


def cmd_liberate(args) -> int:
    fam = load_family(args.spec)
    w = _word(fam, args.word)
    pair = _pair(fam, args.pair)
    joint = fam.joint()
    c0, c1 = replacement_expand(fam.pures, w, pair)
    tv = eval_tensor(joint, taur(w, pair))
    ok = c0 == joint.phi(w) and c1 == tv
    print(f"c0={c0}, c1={c1}, taur={tv}, {'MATCH' if ok else 'MISMATCH'}")
    return 0 if ok else 1


@functools.cache  # one parser per process: each parse fills a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifree",
        description="Exact combinatorics of bi-free independence.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bnc = sub.add_parser("bnc", help="bi-non-crossing lattice queries")
    p_bnc.add_argument("action",
                       choices=["enum", "intervals", "check", "blocks", "mobius"])
    p_bnc.add_argument("--chi", required=True, help="side string, e.g. rllr")
    p_bnc.add_argument("--eps", help="comma-separated colors, e.g. p0,p1,p1,p0")
    p_bnc.add_argument("--pi", help='partition, e.g. "1|2 5 7|3 4|6 8"')
    p_bnc.add_argument("--lower", help="lower partition for mobius")
    p_bnc.add_argument("--upper", help="upper partition for mobius")
    p_bnc.set_defaults(fn=cmd_bnc)

    p_moment = sub.add_parser("moment", help="evaluate a mixed moment")
    p_moment.add_argument("--spec", required=True)
    p_moment.add_argument("--mode", default="bifree",
                          choices=["bifree", "vaccine", "conditional"])
    p_moment.add_argument("--word", required=True)
    p_moment.add_argument("--seed", type=int, default=None)
    p_moment.set_defaults(fn=cmd_moment)

    p_check = sub.add_parser("check", help="run an independence property check")
    p_check.add_argument("--spec", required=True)
    p_check.add_argument("--method", required=True,
                         choices=["cumulants", "vaccine", "taur", "liberation"])
    p_check.add_argument("--max-len", type=int, default=4, dest="max_len")
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--pair", help="distinguished pair id")
    p_check.set_defaults(fn=cmd_check)

    p_ubm = sub.add_parser("ubm", help="free unitary Brownian motion moments")
    p_ubm.add_argument("--n", type=int, required=True)
    p_ubm.add_argument("--t", type=float, default=None)
    p_ubm.set_defaults(fn=cmd_ubm)

    p_taur = sub.add_parser("taur", help="render the interval tensor map of a word")
    p_taur.add_argument("--spec", required=True)
    p_taur.add_argument("--word", required=True)
    p_taur.add_argument("--pair", required=True)
    p_taur.set_defaults(fn=cmd_taur)

    p_lib = sub.add_parser("liberate", help="order-t derivative dual-route check")
    p_lib.add_argument("--spec", required=True)
    p_lib.add_argument("--word", required=True)
    p_lib.add_argument("--pair", required=True)
    p_lib.set_defaults(fn=cmd_liberate)

    return parser


def _validate(args, parser):
    if args.command == "bnc":
        if args.action == "intervals" and not args.eps:
            parser.error("bnc intervals requires --eps")
        if args.action in ("check", "blocks") and not args.pi:
            parser.error(f"bnc {args.action} requires --pi")
        if args.action == "mobius" and not (args.lower and args.upper):
            parser.error("bnc mobius requires --lower and --upper")
    if args.command == "moment":
        if args.mode == "vaccine" and args.seed is None:
            parser.error("--mode vaccine requires --seed")
    if args.command == "check":
        if args.method == "vaccine" and args.seed is None:
            parser.error("--method vaccine requires --seed")
        if args.method in ("taur", "liberation") and not args.pair:
            parser.error(f"--method {args.method} requires --pair")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args, parser)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (BiFreeError, ValueError, KeyError, OSError) as exc:
        # str() of a one-argument KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
