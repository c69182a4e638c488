"""What the CLI prints and what the samplers draw, pinned.

``golden.json`` holds the sha256 of about thirty outputs at fixed seeds and
small scales, and of the arrays of every sampler below them (bytes, dtype and
shape), with the numpy version they were recorded under: numpy does not
promise ``Generator`` streams across versions, so under another numpy the tests
fail and name both.  It also holds numpy's CPU dispatch targets then, since a
SIMD loop of ``np.power`` need not round as libm's ``pow`` does: moved digests
are reported with the recorded and the running dispatch.  A change that moves
a stream updates the file in the same diff and names each moved digest; a
change that claims the same bytes leaves it alone.  Regenerate with
``PYTHONPATH=src python tests/test_golden.py --write``.  A ``verify`` report
does not depend on ``--alpha`` at all.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from karlin_rsm import cli
from karlin_rsm import karlin_sim as ksim
from karlin_rsm import limit_sim as lsim
from karlin_rsm.interval_sets import normalize

GOLDEN = Path(__file__).with_name("golden.json")

FAMILY = {"family": [{"intervals": [[0.0, 0.25]]}, {"intervals": [[0.2, 0.6]]}, {"intervals": [[0.5, 0.9]]}]}
QUERY = {"alpha": 1.0, "beta": 0.5, "pairs": [{"set": {"intervals": [[0.0, 0.25]]}, "z": 1.0},
                                             {"set": {"intervals": [[0.2, 0.6]]}, "z": 2.0}]}

# each suite at a scale that runs in about a second
SUITE_SCALES = {
    "marginal": ("--n", "1000,10000", "--replicas", "500"),
    "locations": ("--n", "10000", "--replicas", "2000"),
    "occupancy": ("--n", "100000", "--replicas", "100"),
    "patterns": ("--n", "100000", "--replicas", "100"),
    "limit-vs-oracle": ("--n", "1000", "--replicas", "5000"),
    "extremal-mstar": ("--n", "1000", "--replicas", "5000"),
}


def verify_argv(suite, fmt, beta="0.5"):
    return ("verify", "--suite", suite, "--beta", beta, *SUITE_SCALES[suite], "--seed", "1", "--threads", "1",
            "--format", fmt)


# the oracle's thresholds at index 1 are z**alpha: these pin that map
ORACLE_ALPHAS = ("0.3", "3")


def golden_calls(directory: Path) -> dict:
    """Name -> argv of each pinned output, reading the query files that :func:`digests` writes."""
    family, query = str(directory / "family.json"), str(directory / "query.json")
    calls = {}
    for beta in ("0.5", "0.9"):
        for fmt in ("csv", "json"):
            calls[f"simulate_beta{beta}_{fmt}"] = ("simulate", "--beta", beta, "--n", "100000", "--seed", "1",
                                                   "--format", fmt)
    for variant in ("karlin", "mstar"):
        for alpha in ("1.0", "0.3"):
            calls[f"limit-sample_{variant}_alpha{alpha}"] = (
                "limit-sample", "--beta", "0.5", "--alpha", alpha, "--variant", variant, "--replicas", "200",
                "--seed", "1", "--query", family)
    for statistic in ("joint-cdf", "tail-dependence"):
        calls[f"oracle_{statistic}"] = ("oracle", "--query", query, "--statistic", statistic)
        for alpha in ORACLE_ALPHAS:
            calls[f"oracle_{statistic}_alpha{alpha}"] = (
                "oracle", "--query", str(directory / f"query_alpha{alpha}.json"), "--statistic", statistic)
    for suite in SUITE_SCALES:
        for fmt in ("csv", "json"):
            calls[f"verify_{suite}_{fmt}"] = verify_argv(suite, fmt)
    for suite in ("patterns", "locations"):
        calls[f"verify_{suite}_beta0.9_csv"] = verify_argv(suite, "csv", beta="0.9")
    return calls


def output(argv) -> bytes:
    """What ``cli.main(argv)`` writes to stdout; it must exit 0, or 1 for a failed suite."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    assert code in ((0, 1) if argv[0] == "verify" else (0,)), (argv, code)
    return out.getvalue().encode()


def digests(directory: Path) -> dict:
    (directory / "family.json").write_text(json.dumps(FAMILY))
    (directory / "query.json").write_text(json.dumps(QUERY))
    for alpha in ORACLE_ALPHAS:
        (directory / f"query_alpha{alpha}.json").write_text(json.dumps({**QUERY, "alpha": float(alpha)}))
    return {name: hashlib.sha256(output(argv)).hexdigest() for name, argv in golden_calls(directory).items()}


def array_digest(*arrays) -> str:
    """sha256 of each array's dtype, shape and bytes, in turn."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def array_digests() -> dict:
    """Name -> digest of each sampler array: every ``UrnBatch`` field, its cells and walked
    positions on a 2-set family, and the limit samplers' batches on a 3-set family and on a family
    of the carrier [0, 10]."""
    got = {}
    pair = tuple(normalize(s["intervals"]) for s in FAMILY["family"][:2])
    for beta in (0.3, 0.5, 0.9, 0.99):
        for n, runs in ((1, 3), (50, 40), (2000, 10)):
            batch = ksim.simulate_batch(beta, n, ksim.replica_rng(7, n), runs, pair)
            name = f"simulate_batch_beta{beta}_n{n}_runs{runs}"
            for key in ("cuts", "run", "keys", "counts", "marks", "k_n", "top", "top_cells", "streams",
                        "cells"):
                got[f"{name}.{key}"] = array_digest(getattr(batch, key))
            got[f"{name}.walked_positions"] = array_digest(
                *(box for r in range(runs) for box in batch.walked_positions(r)))
    three = tuple(normalize(s["intervals"]) for s in FAMILY["family"])
    wide = tuple(normalize(ivs, carrier=(0.0, 10.0)) for ivs in ([(0.0, 3.0)], [(2.0, 7.5), (9.0, 10.0)]))
    for name, family in (("three", three), ("carrier10", wide)):
        got[f"karlin_batch_{name}"] = array_digest(lsim.karlin_batch(ksim.replica_rng(7), 0.5, family, 300))
        levels, hits = lsim.top_m_batch(ksim.replica_rng(7), 0.5, 4, family, 300)
        got[f"top_m_batch_{name}.levels"] = array_digest(levels)
        got[f"top_m_batch_{name}.hits"] = array_digest(hits)
    got["mstar_batch_three"] = array_digest(lsim.mstar_batch(ksim.replica_rng(7), 0.5, three, 300))
    got["coupled_batch_three"] = array_digest(*lsim.coupled_batch(ksim.replica_rng(7), 0.5, three, 300))
    return got


def recorded() -> dict:
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.fail(f"golden digests were recorded under numpy {golden['numpy']}, this is numpy "
                    f"{np.__version__}; install the recorded one (constraints.txt)", pytrace=False)
    return golden


def cpu_dispatch() -> list:
    """numpy's active SIMD dispatch targets: the ones it was built for that this CPU has."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return sorted(target for target in __cpu_dispatch__ if __cpu_features__.get(target))


def assert_same(got: dict, golden: dict, section: str):
    pinned = golden[section]
    assert sorted(got) == sorted(pinned)
    moved = sorted(name for name in got if got[name] != pinned[name])
    assert not moved, (f"digests moved: {moved}; numpy's CPU dispatch was {golden['dispatch']} where they "
                       f"were recorded and is {cpu_dispatch()} here")


def test_golden_digests(tmp_path):
    assert_same(digests(tmp_path), recorded(), "sha256")


def test_array_digests():
    assert_same(array_digests(), recorded(), "arrays")


def test_moved_digests_name_both_cpu_dispatch_sets():
    golden = {"dispatch": ["RECORDED_TARGET"], "arrays": {"a": "1", "b": "2"}}
    with pytest.raises(AssertionError) as exc:
        assert_same({"a": "1", "b": "3"}, golden, "arrays")
    message = str(exc.value)
    assert "['b']" in message and "['RECORDED_TARGET']" in message and str(cpu_dispatch()) in message


@pytest.mark.parametrize("suite", sorted(SUITE_SCALES))
def test_verify_report_does_not_depend_on_alpha(suite):
    # the samplers draw at alpha = 1 and a report reads nothing at another index, so every --alpha
    # prints the alpha = 1 bytes
    for fmt in ("csv", "json"):
        argv = verify_argv(suite, fmt)
        at_one = output((*argv, "--alpha", "1"))
        for alpha in ("0.001", "0.3", "3"):
            assert output((*argv, "--alpha", alpha)) == at_one, (fmt, alpha)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps({"numpy": np.__version__, "dispatch": cpu_dispatch(),
                                      "sha256": digests(Path(tmp)), "arrays": array_digests()}, indent=2) + "\n")
