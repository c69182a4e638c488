"""Command-line entry point.

Subcommands: ``simulate`` (one urn run, top-order CSV or occupancy JSON),
``limit-sample`` (batches from the exact limit samplers), ``oracle``
(closed-form evaluation of a query), and ``verify`` (statistical suites).
Exit codes: 0 success, 1 a verification suite failed, 2 usage, domain or
resource error, 141 (128 + SIGPIPE, as a shell reports a writer that a closed
pipe ended) when the reader of stdout closes it early, e.g. ``| head``, with
nothing printed to stderr.  With an explicit ``--seed`` the output files are
byte-identical across runs and thread counts; without one a fresh 64-bit
seed is drawn from system entropy and printed to stderr.  Every file format is
read or written here and nowhere else: the family and query JSON, the CSV and
JSON of ``simulate`` and ``limit-sample``, and the ``verify`` reports.  So is
alpha, since the library works at index 1: a printed value x is x**(1/alpha),
and a query threshold z is z**alpha at index 1, both by libm's pow
(:func:`_power`); ``verify`` only checks ``--alpha`` and reports at alpha = 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import secrets
import sys
from dataclasses import astuple

from . import karlin_sim as ksim
from . import limit_sim as lsim
from .choquet_oracle import ChoquetQuery, joint_cdf, tail_dependence
from .interval_sets import UNIT, IntervalSet, normalize
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


def _check_alpha(alpha: float):
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def _power(x, p: float) -> float:
    """x**p by libm's pow, as float's ** computes it: inf past float range, 0 below it.  The map
    between index 1 and index alpha, x**(1/alpha) for printed values and z**alpha for thresholds."""
    try:
        return float(x) ** p
    except OverflowError:
        return math.inf


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc


def _json_fields(obj, fields, path: str) -> list:
    """The values of the required fields of a JSON object at ``path`` ("" for a query's root)."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path or 'query'}: expected an object with fields {', '.join(fields)}")
    for field in fields:
        if field not in obj:
            raise ValueError(f"{path + '.' if path else ''}{field}: missing")
    return [obj[field] for field in fields]


def _json_number(value, path: str) -> float:
    """A JSON number as a float; anything else, booleans included, raises naming ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{path}: number out of float range") from None


def _json_pair(value, path: str) -> tuple:
    """A JSON ``[lo, hi]`` array as two floats; anything else raises naming ``path``."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{path}: expected [lo, hi]")
    return _json_number(value[0], f"{path}[0]"), _json_number(value[1], f"{path}[1]")


def _set_from_json(obj, path: str) -> IntervalSet:
    """The set of a JSON object at ``path``; every error message starts with the path."""
    (intervals,) = _json_fields(obj, ("intervals",), path)
    carrier = _json_pair(obj.get("carrier", list(UNIT)), f"{path}.carrier")
    if not isinstance(intervals, list):
        raise ValueError(f"{path}.intervals: expected a list of [lo, hi]")
    raw = [_json_pair(pair, f"{path}.intervals[{i}]") for i, pair in enumerate(intervals)]
    try:
        return normalize(raw, carrier)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _family_from_json(obj) -> tuple:
    """The sets of ``{"family": [...]}`` (or of a bare list); errors start with the JSON path."""
    if isinstance(obj, dict) and "family" in obj:
        obj = obj["family"]
    if not isinstance(obj, list) or not obj:
        raise ValueError("family: expected a nonempty list of interval sets")
    return tuple(_set_from_json(entry, f"family[{i}]") for i, entry in enumerate(obj))


def _query_from_json(obj) -> ChoquetQuery:
    """The query of a JSON object; a malformed field's error starts with its JSON path.  Its
    thresholds z > 0 are at index alpha, and P(M_alpha(A) <= z) = P(M_1(A) <= z**alpha)."""
    alpha, beta, raw = _json_fields(obj, ("alpha", "beta", "pairs"), "")
    alpha = _json_number(alpha, "alpha")
    _check_alpha(alpha)
    if not isinstance(raw, list) or not raw:
        raise ValueError("pairs: expected a nonempty list of {set, z} objects")
    pairs = []
    for i, pair in enumerate(raw):
        a, z = _json_fields(pair, ("set", "z"), f"pairs[{i}]")
        a, z = _set_from_json(a, f"pairs[{i}].set"), _json_number(z, f"pairs[{i}].z")
        if not z > 0:
            raise ValueError(f"thresholds must be positive, got {z}")
        pairs.append((a, _power(z, alpha)))
    return ChoquetQuery(pairs=tuple(pairs), beta=_json_number(beta, "beta"))


# report columns, in the order of the CheckRow fields (``passed`` is "pass")
_REPORT_FIELDS = ("suite", "check", "estimate", "target", "se_or_crit", "pass", "n", "replicas", "seed")


def _report_csv(report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_REPORT_FIELDS)
    writer.writerows([r.suite, r.check, repr(r.estimate), repr(r.target), repr(r.se_or_crit),
                      "true" if r.passed else "false", r.n, r.replicas, r.seed] for r in report.rows)
    return buf.getvalue()


def _report_json(report) -> str:
    rows = [dict(zip(_REPORT_FIELDS, astuple(r))) for r in report.rows]
    return json.dumps({"suite": report.suite, "seed": report.seed, "rows": rows}, indent=2)


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
    p = 1.0 / args.alpha
    ksim.b_n(args.beta, args.n)  # every output prints b_n: fail before drawing
    # the batch of one that ksim.simulate returns, drawn here: perfbench's tracer counter on simulate
    # reads fields of the run type it returned before, until that counter moves to simulate_batch
    batch = ksim.simulate_batch(args.beta, args.n, replica_rng(seed), 1)
    if args.format == "json":
        histogram = sorted(ksim.occupancy_histogram(batch).items())
        b_n = _power(batch.b_n, p)
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
        writer.writerows([st.rank, repr(_power(st.value, p)), repr(_power(st.value_normalized, p)), st.label,
                          ";".join(map(repr, st.locations))] for st in stats)
    return 0


def _cmd_limit_sample(args) -> int:
    if args.replicas > MAX_REPLICAS:  # the suites' per-part bound; it bounds the run time, not memory
        raise ValueError(f"replica count must be at most {MAX_REPLICAS}, got {args.replicas}")
    seed = _resolve_seed(args.seed)
    _check_alpha(args.alpha)
    p = 1.0 / args.alpha
    family = _family_from_json(_load_json(args.query))
    sampler = lsim.sample_mstar if args.variant == "mstar" else lsim.sample_karlin
    sample = sampler(replica_rng(seed, 0), args.beta, family)  # a rejected family opens no file
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["replica", "set_id", "value", "atoms_used"])
        for r in range(args.replicas):  # each replica's rows are written as soon as it is drawn
            if r:
                sample = sampler(replica_rng(seed, r), args.beta, family)
            writer.writerows([r, set_id, repr(_power(value, p)), sample.atoms_used]
                             for set_id, value in enumerate(sample.values))
    return 0


def _cmd_oracle(args) -> int:
    query = _query_from_json(_load_json(args.query))
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
    report = run_suite(SuiteConfig(suite=args.suite, beta=args.beta, n_grid=n_grid, replicas=args.replicas,
                                   family=family, seed=seed, threads=args.threads))
    with _output(args.out) as out:
        out.write(_report_csv(report) if args.format == "csv" else _report_json(report) + "\n")
    print(f"suite {report.suite}: {sum(r.passed for r in report.rows)}/{len(report.rows)} "
          f"checks passed in {report.runtime:.1f}s", file=sys.stderr)
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
