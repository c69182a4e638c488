"""Self-tests of the benchmark: injected faults count as failures, tracing changes nothing.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

import checks
import layers
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

CLI = [run.PYTHON, "-m", "karlin_rsm.cli"]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Real reports of one small call per subcommand, with the call that made each."""
    work = tmp_path_factory.mktemp("work")
    wl = workloads.build("cli-short", 7, work, 1)
    for path, text in wl.inputs.items():
        Path(path).write_text(text)
    bench = run.Bench(work, time.perf_counter())
    out = {}
    for call in wl.calls:
        result = bench.call(call, CLI)
        report = Path(call.out) if call.out else work / f"{call.name}.stdout"
        out[call.kind] = (call, result, report.read_bytes())
    return out


def test_real_reports_pass(reports):
    for call, result, _ in reports.values():
        assert result.outcome.ok, (call.name, result.outcome.reason)


def test_nonzero_exit_fails(reports):
    for kind, (call, _, report) in reports.items():
        assert not checks.check(kind, call.expect, 2, report).ok
    call, _, report = reports["simulate"]
    assert not checks.check("simulate", call.expect, 1, report).ok


def test_truncated_csv_fails(reports):
    for kind in ("simulate", "limit-sample", "verify"):
        call, result, report = reports[kind]
        cut = report[: report.rindex(b"\n", 0, len(report) - 1) + 1]
        assert not checks.check(kind, call.expect, result.returncode, cut).ok
        assert not checks.check(kind, call.expect, result.returncode, report[:-7]).ok


def test_wrong_oracle_digit_fails(reports):
    call, _, report = reports["oracle"]
    text = report.decode().strip()
    for i, ch in enumerate(text):
        if ch.isdigit():
            wrong = text[:i] + str((int(ch) + 2) % 10) + text[i + 1:]
            assert not checks.check("oracle", call.expect, 0, wrong.encode()).ok, wrong


def test_verify_exit_code_must_match_verdict(reports):
    call, _, report = reports["verify"]
    assert checks.check("verify", call.expect, 0, report).checks_failed == 0
    assert not checks.check("verify", call.expect, 1, report).ok
    failed = report.replace(b",true,", b",false,", 1)
    outcome = checks.check("verify", call.expect, 1, failed)
    assert outcome.ok and outcome.checks_failed == 1


def test_bench_counts_injected_faults(tmp_path):
    """A fake CLI that exits 3, or writes another report on a repeat, is counted as failed."""
    script = tmp_path / "fake.py"
    script.write_text(
        "import sys\n"
        "argv = sys.argv[1:]\n"
        "open(argv[argv.index('--out') + 1], 'w').write(open(argv[0]).read())\n"
        "sys.exit(int(argv[1]))\n"
    )
    report = tmp_path / "report.txt"
    header = ",".join(checks.LIMIT_HEADER) + "\n"
    report.write_text(header + "0,0,1.5,2\n")
    bench = run.Bench(tmp_path, time.perf_counter())

    def call(code):
        out = str(tmp_path / "out.csv")
        return workloads.Call("fake", "limit-sample", (str(report), str(code), "--out", out),
                              out, {"replicas": 1, "sets": 1})

    first = bench.call(call(0), [run.PYTHON, str(script)])
    assert first.outcome.ok and bench.failed == 0
    bench.call(call(3), [run.PYTHON, str(script)])
    assert bench.failed == 1
    report.write_text(header + "0,0,1.25,2\n")
    bench.call(call(0), [run.PYTHON, str(script)], reference=first.digest)
    assert bench.failed == 2


def test_wrapper_returns_the_same_object():
    sentinel = object()
    t = tracer.Tracer("test")
    wrapped = t.wrap("distributions.fake", lambda x, y=None: sentinel)
    assert wrapped(1, y=2) is sentinel
    (span,) = t.spans
    assert span[1] == "distributions.fake" and span[4] == 0 and span[3] >= span[2]


def test_install_traces_and_restores(tmp_path):
    import karlin_rsm
    from karlin_rsm import cli, karlin_sim, limit_sim, verify

    family = tmp_path / "family.json"
    family.write_text(json.dumps({"family": [{"intervals": [[0.0, 0.25]]},
                                             {"intervals": [[0.2, 0.6]]}]}))
    originals = (karlin_sim.simulate, karlin_rsm.simulate, cli.replica_rng,
                 dict(verify.SUITES), limit_sim.sample_karlin)

    def limit_sample(out):
        argv = ["limit-sample", "--beta", "0.5", "--replicas", "50", "--seed", "3",
                "--query", str(family), "--out", str(out)]
        assert cli.main(argv) == 0
        return out.read_bytes()

    plain = limit_sample(tmp_path / "plain.csv")
    t = tracer.Tracer("test")
    uninstall = tracer.install(t)
    try:
        assert karlin_sim.simulate is karlin_rsm.simulate is not originals[0]
        assert limit_sample(tmp_path / "traced.csv") == plain
    finally:
        uninstall()
    assert (karlin_sim.simulate, karlin_rsm.simulate, cli.replica_rng, dict(verify.SUITES),
            limit_sim.sample_karlin) == originals

    names = [s[1] for s in t.spans]
    assert names.count("limit_sim.sample_karlin") == 50
    assert names.count("karlin_sim.replica_rng") == 50
    metrics = layers.span_metrics([t.spans])
    assert metrics["limit_sim.replicas"] == 50
    assert metrics["cli.replica_rng_s"] > 0
    assert metrics["limit_sim.atoms_per_replica"] >= 1


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "verify.suite_occupancy", 0.0, 10.0, 0, 1, {"threads": 2}),
        (2, "karlin_sim.simulate", 1.0, 6.0, 1, 2, {"n": 10, "k_n": 4, "object_labels": False}),
        (3, "karlin_sim.simulate", 2.0, 9.0, 1, 3, {"n": 10, "k_n": 6, "object_labels": True}),
        (4, "distributions.zeta_sample_batch", 2.0, 3.0, 3, 3, {"labels": 10}),
    ]
    m = layers.span_metrics([spans])
    assert m["verify.self_s"] == pytest.approx(2.0)  # 10 s minus [1, 9)
    assert m["verify.occupancy_s"] == pytest.approx(10.0)
    assert m["verify.thread_util"] == pytest.approx((2.0 + 5.0 + 7.0) / 20.0)
    assert m["karlin_sim.simulate_self_s"] == pytest.approx(5.0 + 6.0)
    assert m["karlin_sim.k_n_mean"] == 5 and m["karlin_sim.object_label_runs"] == 1
    assert m["distributions.ns_per_label"] == pytest.approx(1e8)


def test_import_times_count_each_package_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |     numpy.linalg",
        "import time:        40 |         50 |   scipy.special",
        "import time:         5 |        210 | karlin_rsm",
        "import time:         3 |          3 | karlin_rsm.cli",
    ])
    assert layers.import_times(stderr) == {
        "cli.import_s": 213e-6, "cli.import_scipy_s": 50e-6, "cli.import_numpy_s": 160e-6}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WHY)
