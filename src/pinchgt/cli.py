"""Command-line interface.

Three subcommands:

* ``check A.json B.json``: evaluate the trace inequality and every
  pinching property for one matrix pair, emitting a JSON certificate.
* ``chain A.json B.json --m 1..3``: per-power CSV trace of the proof
  chain for a positive definite pair, with invariant checks.
* ``random-suite --dims 2..6 --trials 20 --seed 7``: seeded randomized
  sweep, byte-identical output for identical flags. Each dimension's
  trials run as stacked operands, a few library calls per stack.

Exit codes: 0 when everything passed, 1 when a verified inequality or
identity was violated, 2 for unusable input (bad file, non-Hermitian
matrix, bad flag values).
"""

import argparse
import functools
import json
import sys

import numpy as np

from .core import HermitianMatrix, random_hermitian, random_pd, random_psd
from .errors import PinchError
from .matrixio import load_matrix, matrix_digest
from .pinching import PinchOperator, pinching_checks
from .policy import NumericPolicy
from .spectral import decompose
from .tensor import DIM_CAP
from .verify import chain_checks, convergence_study, finite_power_certificate, gt_check

__all__ = ["main"]

# matrix entries in one random-suite operand stack; a dimension's trials run
# in as many stacks as this allows, so peak memory does not grow with --trials
SUITE_STACK_ENTRIES = 1 << 16


# the --tol-* flags: (flag, the NumericPolicy field it overrides, help)
_POLICY_FLAGS = (
    ("--tol-herm", "herm_tol", "relative Hermiticity tolerance on input matrices"),
    ("--tol-cluster", "cluster_tol", "relative gap below which eigenvalues share a cluster"),
    ("--tol-psd", "psd_tol", "relative slack for positivity decisions"),
    ("--tol-residual", "residual_tol", "relative residual allowed in eigendecompositions"),
)


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("numeric policy")
    for flag, field, text in _POLICY_FLAGS:
        g.add_argument(flag, dest=field, type=float, default=None, metavar="T", help=text)


def _policy_from(args: argparse.Namespace) -> NumericPolicy:
    overrides = {field: getattr(args, field) for _, field, _ in _POLICY_FLAGS}
    return NumericPolicy(**{k: v for k, v in overrides.items() if v is not None})


# the grammar of --m and --dims
_INTS = f"INT, INT..INT or INT,INT,... (each from 1 to {DIM_CAP})"


def _parse_ints(flag: str, text: str) -> list[int]:
    """The integers `text` lists in the _INTS grammar; a range's ends are
    checked against DIM_CAP before it is expanded."""
    lo, dots, hi = text.partition("..")
    try:
        ends = [int(lo), int(hi)] if dots else [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects {_INTS}, got {text!r}")
    if min(ends) < 1 or (dots and ends[1] < ends[0]):
        raise ValueError(f"{flag} {text!r} is empty or not positive")
    if max(ends) > DIM_CAP:
        raise ValueError(f"{flag} {text!r} exceeds the cap {DIM_CAP}")
    return list(range(ends[0], ends[1] + 1)) if dots else ends


def _fmt(x) -> str:
    return "" if x is None else format(x, ".12g")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:  # an unwritable --out is unusable input, exit 2
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _operand_record(path: str, x: HermitianMatrix) -> dict:
    return {"path": path, "dim": x.dim, "sha256": matrix_digest(path)}


# the chain CSV columns, each a ChainTrace field
_CHAIN_COLUMNS = ("m", "s0", "s0_tensorized", "t_pinched", "target", "bound", "gap_bound")


def cmd_check(args: argparse.Namespace) -> int:
    policy = _policy_from(args)
    a = load_matrix(args.matrix_a, policy)
    b = load_matrix(args.matrix_b, policy)

    report = gt_check(a, b, policy)
    # the pinching properties need a positive definite reference, so they
    # are exercised on exp(B) with operand exp(A); both always qualify
    checks = [
        *report.checks,
        *pinching_checks(PinchOperator(report.exp_b), report.exp_a.source, policy),
        finite_power_certificate(report, args.m, policy),
    ]

    all_passed = all(c.passed for c in checks)
    certificate = {
        "inputs": {
            "matrix_a": _operand_record(args.matrix_a, a),
            "matrix_b": _operand_record(args.matrix_b, b),
            "power": args.m,
            "policy": policy.as_dict(),
        },
        "golden_thompson": {
            "lhs": report.lhs,
            "rhs": report.rhs,
            "gap": report.gap,
            "commuting": report.commuting,
        },
        "checks": [c.as_dict() for c in checks],
        "verdict": "pass" if all_passed else "violation",
    }
    _emit(json.dumps(certificate, indent=2) + "\n", args.out)
    return 0 if all_passed else 1


def cmd_chain(args: argparse.Namespace) -> int:
    if args.cap < 1:
        raise ValueError(f"--cap must be positive, got {args.cap}")
    if args.cap > DIM_CAP:
        raise ValueError(f"--cap {args.cap} exceeds the dimension cap {DIM_CAP}")
    policy = _policy_from(args)
    ms = _parse_ints("--m", args.m)
    a = load_matrix(args.matrix_a, policy)
    b = load_matrix(args.matrix_b, policy)

    rows = convergence_study(a, b, ms, policy, cap=args.cap)
    lines = [",".join(_CHAIN_COLUMNS)]
    lines += [",".join(_fmt(getattr(ct, col)) for col in _CHAIN_COLUMNS) for ct in rows]
    _emit("\n".join(lines) + "\n", args.out)

    violations = [(m, c) for m, c in chain_checks(rows) if not c.passed]
    for m, c in violations:
        print(
            f"violation: {c.name} at m={m}: residual {c.residual:.6e} "
            f"exceeds tolerance {c.tolerance:.6e}",
            file=sys.stderr,
        )
    return 1 if violations else 0


def _suite_violations(dim: int, trial_seeds: range, policy: NumericPolicy) -> int:
    """Violated trials among `trial_seeds`, all run as one stack per operand.

    Trial s draws A, B, the reference and the operand with the keys
    4s .. 4s + 3. It is violated when its golden_thompson_gap check or any
    of its pinching checks fails.
    """
    a = random_hermitian(dim, [4 * s for s in trial_seeds])
    b = random_hermitian(dim, [4 * s + 1 for s in trial_seeds])
    ok = gt_check(a, b, policy).holds
    base = random_pd(dim, [4 * s + 2 for s in trial_seeds])
    x = random_psd(dim, [4 * s + 3 for s in trial_seeds])
    for c in pinching_checks(PinchOperator(decompose(base, policy)), x, policy):
        ok = ok & c.passed
    return int(np.count_nonzero(~ok))


def cmd_random_suite(args: argparse.Namespace) -> int:
    policy = _policy_from(args)
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    dims = _parse_ints("--dims", args.dims)
    n_trials = len(dims) * args.trials
    # trial k draws with the keys 4 (seed + k) .. 4 (seed + k) + 3, and a
    # generator key must lie in [0, 2**128)
    max_seed = 2**126 - n_trials
    if not 0 <= args.seed <= max_seed:
        raise ValueError(
            f"--seed must be between 0 and {max_seed} for {n_trials} trials, got {args.seed}"
        )

    total = 0
    out_lines = []
    for i, dim in enumerate(dims):
        seeds = range(args.seed + i * args.trials, args.seed + (i + 1) * args.trials)
        # trials per stack, so that one operand stack holds at most
        # SUITE_STACK_ENTRIES matrix entries whatever --trials is; above
        # dim 256 one matrix holds more, and a stack holds one trial
        per_stack = max(1, SUITE_STACK_ENTRIES // (dim * dim))
        dim_violations = sum(
            _suite_violations(dim, seeds[lo : lo + per_stack], policy)
            for lo in range(0, args.trials, per_stack)
        )
        total += dim_violations
        out_lines.append(f"dim {dim}: {args.trials} trials, {dim_violations} violations")
    out_lines.append(f"total: {n_trials} trials, {total} violations")
    sys.stdout.write("\n".join(out_lines) + "\n")
    return 1 if total else 0


# built once per process: parse_args reads the parser and never changes it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchgt",
        description="Golden-Thompson verification through spectral pinching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="certify one Hermitian pair, emitting a JSON certificate"
    )
    p_check.add_argument("matrix_a", help="JSON matrix file, first operand")
    p_check.add_argument("matrix_b", help="JSON matrix file, second operand")
    p_check.add_argument("--m", type=int, default=2,
                         help="tensor power for the finite-power certificate")
    p_check.add_argument("--out", default=None, help="write the certificate here")
    _add_policy_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_chain = sub.add_parser(
        "chain", help="trace the proof chain over tensor powers, emitting CSV"
    )
    p_chain.add_argument("matrix_a", help="JSON matrix file, positive definite")
    p_chain.add_argument("matrix_b", help="JSON matrix file, positive definite")
    p_chain.add_argument("--m", required=True,
                         help=f"ascending tensor powers: {_INTS}")
    p_chain.add_argument("--cap", type=int, default=DIM_CAP,
                         help=f"largest tensor-power dimension to materialize "
                              f"(at most {DIM_CAP})")
    p_chain.add_argument("--out", default=None, help="write the CSV here")
    _add_policy_flags(p_chain)
    p_chain.set_defaults(func=cmd_chain)

    p_rand = sub.add_parser(
        "random-suite", help="seeded randomized sweep over dimensions"
    )
    p_rand.add_argument("--dims", default="2..6",
                        help=f"dimensions to cover: {_INTS}")
    p_rand.add_argument("--trials", type=int, default=20,
                        help="trials per dimension")
    p_rand.add_argument("--seed", type=int, default=0,
                        help="base seed; trial k of the sweep uses seed+k")
    _add_policy_flags(p_rand)
    p_rand.set_defaults(func=cmd_random_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PinchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
