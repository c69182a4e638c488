"""Command-line entry point.

Subcommands: ``simulate`` (one urn run, top-order CSV or occupancy JSON),
``limit-sample`` (batches from the exact limit samplers), ``oracle``
(closed-form evaluation of a query), and ``verify`` (statistical suites).
Exit codes: 0 success, 1 a verification suite failed, 2 usage, domain or
resource error, 141 (128 + SIGPIPE, as a shell reports a writer that a closed
pipe ended) when the reader of stdout closes it early, e.g. ``| head``, with
nothing printed to stderr.  With an explicit ``--seed`` the output files are
byte-identical across runs and thread counts; without one a fresh 64-bit
seed is drawn from system entropy and printed to stderr.  The CSV and JSON
formats of ``simulate`` and ``limit-sample`` are written here and nowhere else,
and their values are taken from alpha = 1, where the samplers draw, to ``--alpha``.
A ``verify`` report is the one at alpha = 1: ``verify`` only checks ``--alpha``,
and ``oracle`` maps its query's thresholds to index 1 (``ChoquetQuery.from_json``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import secrets
import sys

from . import karlin_sim as ksim
from . import limit_sim as lsim
from .choquet_oracle import ChoquetQuery, joint_cdf, tail_dependence
from .distributions import _alpha_power, _check_alpha
from .interval_sets import IntervalSet
from .karlin_sim import replica_rng
from .verify import MAX_REPLICAS, SuiteConfig, SUITES, run_suite

__all__ = ["main"]

EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE


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


@contextlib.contextmanager
def _output(path):
    """Where a command writes: stdout, or the ``--out`` file; commands enter it once their checks pass."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


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
    p.add_argument("--alpha", type=float, default=1.0,
                   help="tail index of marks, applied to printed values (verify: checked only)")
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
    _check_alpha(args.alpha)
    ksim.b_n(args.beta, args.n)  # every output prints b_n: fail before drawing
    # the batch of one that ksim.simulate returns, drawn here: perfbench's tracer counter on simulate
    # reads fields of the run type it returned before, until that counter moves to simulate_batch
    batch = ksim.simulate_batch(args.beta, args.n, replica_rng(seed), 1)
    if args.format == "json":
        histogram = sorted(ksim.occupancy_histogram(batch).items())
        b_n = _alpha_power(batch.b_n, args.alpha)
        payload = {"n": batch.n, "seed": seed, "replica": 0, "k_n": int(batch.k_n[0]),
                   "b_n": b_n if math.isfinite(b_n) else None,  # JSON has no inf
                   "histogram": {str(k): count for k, count in histogram}}
        with _output(args.out) as out:
            out.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        return 0
    stats = ksim.top_m(batch, args.top_m)
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["rank", "value", "value_normalized", "label", "locations"])
        writer.writerows([st.rank, repr(_alpha_power(st.value, args.alpha)),
                          repr(_alpha_power(st.value_normalized, args.alpha)), st.label,
                          ";".join(map(repr, st.locations))] for st in stats)
    return 0


def _cmd_limit_sample(args) -> int:
    if args.replicas > MAX_REPLICAS:  # the suites' per-part bound; it bounds the run time, not memory
        raise ValueError(f"replica count must be at most {MAX_REPLICAS}, got {args.replicas}")
    seed = _resolve_seed(args.seed)
    _check_alpha(args.alpha)
    family = _family_from_json(_load_json(args.query))
    sampler = lsim.sample_mstar if args.variant == "mstar" else lsim.sample_karlin
    sample = sampler(replica_rng(seed, 0), args.beta, family)  # a rejected family opens no file
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["replica", "set_id", "value", "atoms_used"])
        for r in range(args.replicas):  # each replica's rows are written as soon as it is drawn
            if r:
                sample = sampler(replica_rng(seed, r), args.beta, family)
            writer.writerows([r, set_id, repr(value), sample.atoms_used]
                             for set_id, value in enumerate(_alpha_power(sample.values, args.alpha).tolist()))
    return 0


def _cmd_oracle(args) -> int:
    query = ChoquetQuery.from_json(_load_json(args.query))
    value = joint_cdf(query) if args.statistic == "joint-cdf" else tail_dependence(query)
    print(f"{value:.12g}")
    return 0


def _cmd_verify(args) -> int:
    _check_alpha(args.alpha)  # no suite reads it: the report at any alpha is the one at alpha = 1
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
        beta=args.beta,
        n_grid=n_grid,
        replicas=args.replicas,
        family=family,
        seed=seed,
        threads=args.threads,
    )
    report = run_suite(cfg)
    with _output(args.out) as out:
        out.write(report.to_csv() if args.format == "csv" else report.to_json() + "\n")
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
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader has gone: what is left to flush goes to devnull, so the exit prints nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except (ValueError, OSError, ksim.ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
