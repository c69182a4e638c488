"""Command-line entry point.

Subcommands: ``simulate`` (one urn run, top-order CSV or occupancy JSON),
``limit-sample`` (batches from the exact limit samplers), ``oracle``
(closed-form evaluation of a query), and ``verify`` (statistical suites).
Exit codes: 0 success, 1 a verification suite failed, 2 usage, domain or
resource error.  With an explicit ``--seed`` the output files are
byte-identical across runs and thread counts; without one a fresh 64-bit
seed is drawn from system entropy and printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys

from . import karlin_sim as ksim
from . import limit_sim as lsim
from .choquet_oracle import ChoquetQuery, joint_cdf, tail_dependence
from .interval_sets import IntervalSet
from .karlin_sim import replica_rng
from .verify import MAX_REPLICAS, SuiteConfig, SUITES, run_suite

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """argparse type for counts: anything but an integer >= 1 is a usage error."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _resolve_seed(seed) -> int:
    if seed is not None:
        return seed
    fresh = secrets.randbits(64)
    print(f"seed: {fresh}", file=sys.stderr)
    return fresh


def _write_out(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _family_from_json(obj) -> tuple:
    """The sets of ``{"family": [...]}`` (or of a bare list); errors start with the JSON path."""
    if isinstance(obj, dict) and "family" in obj:
        obj = obj["family"]
    if not isinstance(obj, list) or not obj:
        raise ValueError("family: expected a nonempty list of interval sets")
    return tuple(IntervalSet.from_json(entry, f"family[{i}]") for i, entry in enumerate(obj))


def _add_common(p):
    p.add_argument("--alpha", type=float, default=1.0, help="tail index of the marks")
    p.add_argument("--beta", type=float, required=True, help="memory parameter in (0,1)")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed; drawn from entropy if absent")
    p.add_argument("--out", default=None, help="output path (stdout if absent)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="karlin-rsm")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the urn model once")
    _add_common(p_sim)
    p_sim.add_argument("--n", type=_positive_int, required=True, help="number of draws")
    p_sim.add_argument("--top-m", type=_positive_int, default=5, dest="top_m")

    p_lim = sub.add_parser("limit-sample", help="draw from the limit sup-measure")
    _add_common(p_lim)
    p_lim.add_argument("--replicas", type=_positive_int, default=1000)
    p_lim.add_argument("--query", required=True, help="JSON file with the query family")
    p_lim.add_argument("--variant", choices=("karlin", "mstar"), default="karlin")

    p_or = sub.add_parser("oracle", help="evaluate a closed-form query")
    p_or.add_argument("--query", required=True, help="JSON file with a Choquet query")
    p_or.add_argument(
        "--statistic", choices=("joint-cdf", "tail-dependence"), default="joint-cdf"
    )

    p_ver = sub.add_parser("verify", help="run a statistical verification suite")
    _add_common(p_ver)
    p_ver.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_ver.add_argument("--n", default=None, help="n or comma-separated n grid")
    p_ver.add_argument("--replicas", type=_positive_int, default=None)
    p_ver.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    p_ver.add_argument("--query", default=None, help="optional JSON file overriding the query family")
    for p in (p_sim, p_ver):  # limit-sample writes CSV only
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    ksim.b_n(args.alpha, args.beta, args.n)  # every output prints b_n: fail before drawing
    run = ksim.simulate(args.alpha, args.beta, args.n, seed)
    if args.format == "csv":
        _write_out(ksim.top_m_csv(ksim.top_m(run, args.top_m)), args.out)
    else:
        _write_out(ksim.occupancy_json(run) + "\n", args.out)
    return 0


def _cmd_limit_sample(args) -> int:
    if args.replicas > MAX_REPLICAS:  # the CSV is built in memory
        raise ValueError(f"replica count must be at most {MAX_REPLICAS}, got {args.replicas}")
    seed = _resolve_seed(args.seed)
    family = _family_from_json(_load_json(args.query))
    sampler = lsim.sample_mstar if args.variant == "mstar" else lsim.sample_karlin
    samples = [
        sampler(replica_rng(seed, r), args.alpha, args.beta, family)
        for r in range(args.replicas)
    ]
    _write_out(lsim.limit_samples_csv(samples), args.out)
    return 0


def _cmd_oracle(args) -> int:
    query = ChoquetQuery.from_json(_load_json(args.query))
    value = joint_cdf(query) if args.statistic == "joint-cdf" else tail_dependence(query)
    print(f"{value:.12g}")
    return 0


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    n_grid = None  # the suite's default
    if args.n is not None:
        try:
            n_grid = tuple(int(part) for part in str(args.n).split(","))
        except ValueError as exc:
            raise ValueError(f"malformed --n value {args.n!r}") from exc
    family = ()
    if args.query is not None:
        family = _family_from_json(_load_json(args.query))
    cfg = SuiteConfig(
        suite=args.suite,
        alpha=args.alpha,
        beta=args.beta,
        n_grid=n_grid,
        replicas=args.replicas,
        family=family,
        seed=seed,
        threads=args.threads,
    )
    report = run_suite(cfg)
    _write_out(report.to_csv() if args.format == "csv" else report.to_json() + "\n", args.out)
    print(
        f"suite {report.suite}: {sum(r.passed for r in report.rows)}/{len(report.rows)} "
        f"checks passed in {report.runtime:.1f}s",
        file=sys.stderr,
    )
    return 0 if report.all_pass else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "limit-sample": _cmd_limit_sample,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, ksim.ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
