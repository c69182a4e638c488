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
from .distributions import HeavyTailSpec
from .interval_sets import IntervalSet
from .karlin_sim import FrequencyModel, replica_rng
from .verify import SuiteConfig, SUITES, run_suite

__all__ = ["main"]


def _default_threads() -> int:
    env = os.environ.get("KARLIN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


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
    if isinstance(obj, dict) and "family" in obj:
        obj = obj["family"]
    if not isinstance(obj, list) or not obj:
        raise ValueError("query file must contain a nonempty field 'family'")
    return tuple(IntervalSet.from_json(entry) for entry in obj)


def _add_common(p, need_beta=True):
    p.add_argument("--alpha", type=float, default=1.0, help="tail index of the marks")
    p.add_argument("--beta", type=float, required=need_beta, help="memory parameter in (0,1)")
    p.add_argument("--seed", type=int, default=None, help="64-bit seed; drawn from entropy if absent")
    p.add_argument("--out", default=None, help="output path (stdout if absent)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


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
    p_ver.add_argument("--threads", type=int, default=None)
    p_ver.add_argument("--confidence", type=float, default=0.99)
    p_ver.add_argument("--query", default=None, help="optional JSON file overriding the query family")
    return parser


# per-suite defaults for (n_grid, replicas); a multi-n marginal grid adds a
# convergence-direction row, which needs replicas in the thousands to have
# power (the finite-n bias is within a couple of percent already at n = 1e3)
_SUITE_DEFAULTS = {
    "marginal": ((10 ** 5,), 2000),
    "locations": ((10 ** 5,), 10 ** 4),
    "occupancy": ((10 ** 6,), 100),
    "patterns": ((10 ** 6,), 100),
    "limit-vs-oracle": ((10 ** 5,), 10 ** 5),
    "extremal-mstar": ((10 ** 5,), 10 ** 5),
}


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    model = FrequencyModel(beta=args.beta)
    spec = HeavyTailSpec(alpha=args.alpha)
    run = ksim.simulate(model, spec, args.n, seed)
    if args.format == "csv":
        _write_out(ksim.top_m_csv(ksim.top_m(run, args.top_m)), args.out)
    else:
        _write_out(ksim.occupancy_json(run) + "\n", args.out)
    return 0


def _cmd_limit_sample(args) -> int:
    seed = _resolve_seed(args.seed)
    HeavyTailSpec(alpha=args.alpha)  # fail fast on a bad tail index
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
    n_grid, replicas = _SUITE_DEFAULTS[args.suite]
    if args.n is not None:
        try:
            n_grid = tuple(int(part) for part in str(args.n).split(","))
        except ValueError as exc:
            raise ValueError(f"malformed --n value {args.n!r}") from exc
    if args.replicas is not None:
        replicas = args.replicas
    family = ()
    if args.query is not None:
        family = _family_from_json(_load_json(args.query))
    cfg = SuiteConfig(
        suite=args.suite,
        alpha=args.alpha,
        beta=args.beta,
        n_grid=n_grid,
        replicas=replicas,
        family=family,
        seed=seed,
        confidence=args.confidence,
        threads=args.threads if args.threads is not None else _default_threads(),
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
