"""What the CLI prints, pinned.

``golden.json`` holds the sha256 of about twenty outputs at fixed seeds and
small scales, with the numpy version they were recorded under: numpy does not
promise ``Generator`` streams across versions, so under another numpy the test
fails and names both.  A change that moves a stream updates the file in the
same diff and names each moved digest; a change that claims the same bytes
leaves it alone.  Regenerate with ``PYTHONPATH=src python tests/test_golden.py
--write``.  A ``verify`` report does not depend on ``--alpha`` at all.
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


def golden_calls(family: str, query: str) -> dict:
    """Name -> argv of each pinned output; ``family`` and ``query`` are the paths of FAMILY and QUERY."""
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
    family, query = directory / "family.json", directory / "query.json"
    family.write_text(json.dumps(FAMILY))
    query.write_text(json.dumps(QUERY))
    return {name: hashlib.sha256(output(argv)).hexdigest()
            for name, argv in golden_calls(str(family), str(query)).items()}


def test_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.fail(f"golden digests were recorded under numpy {golden['numpy']}, this is numpy "
                    f"{np.__version__}; install the recorded one (constraints.txt)", pytrace=False)
    got = digests(tmp_path)
    assert sorted(got) == sorted(golden["sha256"])
    moved = sorted(name for name in got if got[name] != golden["sha256"][name])
    assert not moved, f"digests moved: {moved}"


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
        GOLDEN.write_text(json.dumps({"numpy": np.__version__, "sha256": digests(Path(tmp))}, indent=2) + "\n")
