import json
import math
import subprocess
import sys
import time

import pytest

from karlin_rsm import cli

BIN = [sys.executable, "-m", "karlin_rsm.cli"]


def run_cli(*args, **kw):
    return subprocess.run(BIN + list(args), capture_output=True, text=True, **kw)


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({
        "alpha": 1.0,
        "beta": 0.5,
        "pairs": [{"set": {"carrier": [0, 1], "intervals": [[0.0, 0.25]]}, "z": 1.0}],
    }))
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({
        "family": [{"carrier": [0, 1], "intervals": [[0.0, 0.25]]}],
    }))
    return str(path)


class TestOracleCommand:
    def test_reference_value(self, query_file):
        res = run_cli("oracle", "--query", query_file)
        assert res.returncode == 0
        assert res.stdout.strip() == "0.606530659713"

    def test_tail_dependence_statistic(self, query_file):
        res = run_cli("oracle", "--query", query_file, "--statistic", "tail-dependence")
        assert res.returncode == 0
        assert res.stdout.strip() == "0.5"

    def test_malformed_query_names_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alpha": 1.0, "pairs": []}))
        res = run_cli("oracle", "--query", str(bad))
        assert res.returncode == 2
        assert "beta" in res.stderr

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        res = run_cli("oracle", "--query", str(bad))
        assert res.returncode == 2


def test_all_lists_exactly_the_public_api():
    # every name in __all__ exists, and every public function or class a
    # module defines is in its __all__
    import importlib
    import inspect

    import karlin_rsm

    problems = [f"karlin_rsm.{name} does not exist" for name in karlin_rsm.__all__
                if not hasattr(karlin_rsm, name)]
    for short in ("choquet_oracle", "cli", "distributions", "interval_sets", "karlin_sim", "limit_sim",
                  "verify"):
        module = importlib.import_module(f"karlin_rsm.{short}")
        problems += [f"{short}.{name} does not exist" for name in module.__all__ if not hasattr(module, name)]
        problems += [f"{short}.{name} is not in __all__" for name, obj in vars(module).items()
                     if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                     and obj.__module__ == module.__name__ and name not in module.__all__]
    assert not problems, problems


def test_import_loads_no_scipy():
    code = "import karlin_rsm.cli, sys; print([m for m in sys.modules if m.startswith('scipy')])"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestUsageErrors:
    def test_missing_beta(self):
        res = run_cli("verify", "--suite", "occupancy")
        assert res.returncode == 2

    def test_unknown_suite(self):
        res = run_cli("verify", "--suite", "bogus", "--beta", "0.5")
        assert res.returncode == 2

    def test_domain_error_beta(self):
        res = run_cli("simulate", "--beta", "1.5", "--n", "100", "--seed", "1")
        assert res.returncode == 2
        assert "beta" in res.stderr

    @pytest.mark.parametrize("argv", [
        ["limit-sample", "--replicas", "-5"],
        ["limit-sample", "--replicas", "0"],
        ["simulate", "--n", "0"],
        ["simulate", "--n", "1e3"],
        ["simulate", "--n", "100", "--top-m", "0"],
        ["verify", "--suite", "occupancy", "--replicas", "-100"],
    ])
    def test_counts_must_be_positive(self, argv, family_file, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [*argv, "--beta", "0.5", "--seed", "1", "--out", str(out)]
        if argv[0] == "limit-sample":
            argv += ["--query", family_file]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_resource_error_exits_two(self):
        res = run_cli("simulate", "--beta", "0.5", "--n", "20000000", "--seed", "1")
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
        assert "budget" in res.stderr

    def test_normalisation_zero_exits_two(self, capsys):
        # at beta 0.9, zeta(1/beta) = 9.59 > n = 5: nu((0, n]) = 0, so b_n would be 0
        for argv in (["simulate", "--beta", "0.9", "--n", "5", "--seed", "1"],
                     ["verify", "--suite", "marginal", "--beta", "0.9", "--n", "5",
                      "--replicas", "100", "--seed", "1", "--threads", "1"]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: n=5 is below zeta") and len(err.splitlines()) == 1


def _family_json(tmp_path, carrier, intervals):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"family": [{"carrier": carrier, "intervals": intervals}]}))
    return str(path)


BAD_FAMILY = {"family": [[[0, 0.5]]]}


@pytest.mark.parametrize("command, payload", [
    (["oracle"], 5),
    (["oracle"], {"alpha": None, "beta": 0.5, "pairs": [{"set": {"intervals": [[0.0, 0.25]]}, "z": 1.0}]}),
    (["oracle"], {"alpha": 1.0, "beta": 0.5, "pairs": [{"set": [[0.0, 0.25]], "z": 1.0}]}),
    (["limit-sample", "--beta", "0.5", "--replicas", "5", "--seed", "1"], BAD_FAMILY),
    (["verify", "--suite", "patterns", "--beta", "0.5", "--n", "1000", "--replicas", "100",
      "--seed", "1", "--threads", "1"], BAD_FAMILY),
])
def test_query_of_wrong_shape_exits_two(command, payload, tmp_path, capsys):
    # valid JSON of the wrong shape is a usage error: exit 2 and one error line
    query = tmp_path / "query.json"
    query.write_text(json.dumps(payload))
    assert cli.main([*command, "--query", str(query)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestLimitSampleDomain:
    def test_wide_carrier_samples(self, tmp_path):
        query = _family_json(tmp_path, [0, 4], [[0.0, 3.0]])
        out = tmp_path / "out.csv"
        assert cli.main(["limit-sample", "--beta", "0.5", "--replicas", "20", "--seed", "1",
                         "--query", query, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 20
        assert all(float(r.split(",")[2]) > 0 and int(r.split(",")[3]) >= 1 for r in rows)

    def test_mstar_wide_carrier_exits_two(self, tmp_path, capsys):
        query = _family_json(tmp_path, [0, 4], [[0.0, 3.0]])
        assert cli.main(["limit-sample", "--beta", "0.5", "--replicas", "5", "--seed", "1",
                         "--query", query, "--variant", "mstar",
                         "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unit carrier" in err and len(err.splitlines()) == 1

    def test_tiny_set_samples_at_once(self, tmp_path):
        query = _family_json(tmp_path, [0, 1], [[0.0, 1e-300]])
        out = tmp_path / "out.csv"
        t0 = time.perf_counter()
        assert cli.main(["limit-sample", "--beta", "0.5", "--replicas", "1", "--seed", "1",
                         "--query", query, "--out", str(out)]) == 0
        assert time.perf_counter() - t0 < 1.0
        value = float(out.read_text().splitlines()[1].split(",")[2])
        assert math.isfinite(value) and value > 0


class TestSimulateCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "top.csv"
        res = run_cli("simulate", "--beta", "0.5", "--n", "5000", "--seed", "42",
                      "--top-m", "3", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,value,value_normalized,label,locations"
        assert len(lines) == 4

    def test_json_output(self, tmp_path):
        out = tmp_path / "occ.json"
        res = run_cli("simulate", "--beta", "0.5", "--n", "5000", "--seed", "42",
                      "--format", "json", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 5000
        assert sum(payload["histogram"].values()) == payload["k_n"]

    def test_auto_seed_printed(self):
        res = run_cli("simulate", "--beta", "0.5", "--n", "1000")
        assert res.returncode == 0
        assert "seed:" in res.stderr


class TestLimitSampleCommand:
    def test_csv_schema(self, family_file, tmp_path):
        out = tmp_path / "limit.csv"
        res = run_cli("limit-sample", "--beta", "0.5", "--replicas", "5", "--seed", "1",
                      "--query", family_file, "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replica,set_id,value,atoms_used"
        assert len(lines) == 6

    def test_mstar_variant(self, family_file):
        res = run_cli("limit-sample", "--beta", "0.5", "--replicas", "3", "--seed", "1",
                      "--query", family_file, "--variant", "mstar")
        assert res.returncode == 0


class TestVerifyCommand:
    def test_small_suite_passes_and_writes_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        res = run_cli("verify", "--suite", "occupancy", "--beta", "0.5", "--n", "100000",
                      "--replicas", "100", "--seed", "42", "--out", str(out), "--threads", "2")
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "suite,check,estimate,target,se_or_crit,pass,n,replicas,seed"
        assert all(line.split(",")[5] == "true" for line in lines[1:])

    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        args = ["verify", "--suite", "patterns", "--beta", "0.5", "--n", "10000",
                "--replicas", "100", "--seed", "7"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(*args, "--threads", "1", "--out", str(out1)).returncode == 0
        assert run_cli(*args, "--threads", "3", "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("verify", "--suite", "occupancy", "--beta", "0.5", "--n", "10000",
                      "--replicas", "100", "--seed", "42", "--format", "json", "--out", str(out))
        assert res.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["suite"] == "occupancy"
        assert payload["rows"]

    def test_failing_suite_exits_one(self):
        # at N = 100 replicas the KS noise floor sits near 0.09, so the 0.05
        # calibration bound must fail
        res = run_cli("verify", "--suite", "marginal", "--beta", "0.5", "--n", "100000",
                      "--replicas", "100", "--seed", "42")
        assert res.returncode == 1
