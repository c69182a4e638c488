import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karlin_rsm import cli
from karlin_rsm.verify import SuiteReport

BIN = [sys.executable, "-W", "error::RuntimeWarning", "-m", "karlin_rsm.cli"]  # a warning fails, as in process


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


@pytest.mark.parametrize("first, z, alpha, cdf, td", [
    ([[0.0, 0.25]], 1e-200, 3.0, "0", "inf"),  # z**alpha below float range: weight inf
    ([[0.0, 0.25]], 0.5, 1e308, "0", "inf"),
    ([], 1e-200, 3.0, "0.606530659713", "0.5"),  # weight inf on a set of measure 0 adds nothing
    ([[0.0, 0.25]], 2.0, 1e308, "0.606530659713", "0.5"),  # z**alpha beyond float range: the pair drops
    ([[0.0, 0.25]], 1e200, 3.0, "0.606530659713", "0.5"),
])
def test_oracle_thresholds_beyond_float_range_at_index_one(first, z, alpha, cdf, td, tmp_path, capsys):
    # a threshold z at index alpha is z**alpha at index 1; where that leaves float range the oracle
    # prints the limit answer, with nothing on stderr
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"alpha": alpha, "beta": 0.5, "pairs": [
        {"set": {"intervals": first}, "z": z}, {"set": {"intervals": [[0.5, 0.75]]}, "z": 1.0}]}))
    for statistic, want in (("joint-cdf", cdf), ("tail-dependence", td)):
        assert cli.main(["oracle", "--query", str(query), "--statistic", statistic]) == 0
        assert capsys.readouterr() == (want + "\n", "")


def test_all_lists_exactly_the_public_api():
    # every name in __all__ exists, and every public function or class a
    # module defines is in its __all__, for every module of the package
    import importlib
    import inspect
    import pkgutil

    import karlin_rsm

    problems = [f"karlin_rsm.{name} does not exist" for name in karlin_rsm.__all__
                if not hasattr(karlin_rsm, name)]
    shorts = [m.name for m in pkgutil.iter_modules(karlin_rsm.__path__)]
    assert len(shorts) >= 7, shorts  # the discovery found the modules
    for short in shorts:
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

    def test_infinite_alpha(self, capsys):
        assert cli.main(["simulate", "--alpha", "inf", "--beta", "0.5", "--n", "100", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: alpha") and len(err.splitlines()) == 1

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

    def test_limit_sample_replica_bound(self, family_file, capsys, monkeypatch):
        # checked before the seed is drawn, the family file read or a replica drawn
        _no_samplers(monkeypatch)
        assert cli.main(["limit-sample", "--beta", "0.5", "--replicas", "1048577",
                         "--query", "no-such-file.json"]) == 2
        assert capsys.readouterr().err == "error: replica count must be at most 1048576, got 1048577\n"
        with pytest.raises(AssertionError, match="a sampler ran"):
            cli.main(["limit-sample", "--beta", "0.5", "--replicas", "1048576", "--seed", "1",
                      "--query", family_file])

    def test_limit_sample_has_no_format(self, family_file, capsys):
        # limit-sample writes CSV only, so --format json is a usage error
        with pytest.raises(SystemExit) as exc:
            cli.main(["limit-sample", "--beta", "0.5", "--replicas", "5", "--seed", "1",
                      "--query", family_file, "--format", "json"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_resource_error_exits_two(self, capsys, monkeypatch):
        res = run_cli("simulate", "--beta", "0.5", "--n", "20000000", "--seed", "1")
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
        assert "budget" in res.stderr
        # every suite checks each n of its grid before any part runs
        _no_samplers(monkeypatch)
        for suite, beta, n, replicas in (("extremal-mstar", "0.9", "20000000", "100000"),
                                         ("marginal", "0.5", "10000,20000000", "2000")):
            _exits_two(capsys, ["verify", "--suite", suite, "--beta", beta, "--n", n, "--replicas", replicas,
                                "--seed", "1", "--threads", "1"], "n=20000000 exceeds the allocation budget")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--top-m", "3"],
        ["simulate", "--format", "json"],
        *[["verify", "--suite", suite, "--replicas", "100"] for suite in ("marginal", "occupancy", "patterns")],
    ])
    def test_bad_alpha_exits_two_before_any_draw(self, argv, tmp_path, capsys, monkeypatch):
        # alpha is checked by the command, before any run is drawn or --out opened (verify checks it though
        # no suite reads it); the suites that run the limit samplers and limit-sample are test_limit_sim's
        # test_samplers_reject_bad_alpha_...
        _no_samplers(monkeypatch)
        out = tmp_path / "out"
        for alpha in ("0.0", "-1.0", "nan", "inf"):
            _exits_two(capsys, [*argv, "--beta", "0.5", "--n", "1000", f"--alpha={alpha}", "--seed", "1",
                                "--out", str(out)], "alpha must be positive and finite")
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--alpha", "0.01", "--n", "100000"],
        ["verify", "--suite", "marginal", "--alpha", "0.01", "--n", "10000", "--replicas", "100"],
        ["verify", "--suite", "limit-vs-oracle", "--alpha", "0.01", "--replicas", "100"],
        ["simulate", "--alpha", "0.005", "--n", "100000"],
        ["verify", "--suite", "limit-vs-oracle", "--alpha", "0.005", "--replicas", "100"],
    ])
    def test_small_alpha_runs(self, argv):
        # every alpha > 0 runs: the urn's marks and b_n are drawn at alpha = 1, and only the printed
        # values take the power 1/alpha.  These calls exited 2 while the urn's marks of index alpha,
        # or b_n, could overflow; now stderr holds no warning (BIN makes one fatal) and no error, and a
        # verify report, which reads the draws at alpha = 1 only, is the one at alpha = 1
        res = run_cli(*argv, "--beta", "0.5", "--seed", "1")
        if argv[0] == "verify":
            assert res.returncode in (0, 1) and res.stderr.startswith(f"suite {argv[2]}: ")
            assert len(res.stderr.splitlines()) == 1
            at_one = run_cli(*argv, "--beta", "0.5", "--seed", "1", "--alpha", "1")
            assert (at_one.returncode, at_one.stdout) == (res.returncode, res.stdout)
        else:
            assert (res.returncode, res.stderr) == (0, "")
            assert all(math.isfinite(float(row.split(",")[2])) for row in res.stdout.splitlines()[1:])

    def test_values_beyond_float_range_print_inf(self):
        # at alpha = 0.01 and n = 1e7 every mark of index alpha, mark**100, is beyond float range, while
        # the normalised ones, (mark / b_n)**100 with b_n drawn at alpha = 1, stay finite
        res = run_cli("simulate", "--beta", "0.5", "--alpha", "0.01", "--n", "10000000", "--seed", "1")
        assert (res.returncode, res.stderr) == (0, "")
        rows = [row.split(",") for row in res.stdout.splitlines()[1:]]
        assert len(rows) == 5 and {row[1] for row in rows} == {"inf"}
        assert all(math.isfinite(float(row[2])) for row in rows)

    def test_json_stays_strict_where_b_n_is_beyond_float_range(self):
        # b_n = 4369.1**100 at beta 0.5, n = 1e7 and alpha = 0.01 is beyond float range: JSON has no inf,
        # so it is written as null, which a strict parser reads
        def strict(constant):
            raise ValueError(f"{constant} is not JSON")

        for alpha, b_n in (("0.01", None), ("1.0", 4369.098742482097)):
            res = run_cli("simulate", "--beta", "0.5", "--alpha", alpha, "--n", "10000000", "--seed", "1",
                          "--format", "json")
            assert (res.returncode, res.stderr) == (0, "")
            assert json.loads(res.stdout, parse_constant=strict)["b_n"] == b_n

    def test_n_grid_only_for_marginal(self, capsys):
        # the other suites read one n; a grid would silently lose its points
        assert cli.main(["verify", "--suite", "occupancy", "--beta", "0.5", "--n", "1000,10000",
                         "--replicas", "100", "--seed", "1", "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the ") and "takes one n" in err and len(err.splitlines()) == 1

    def test_no_confidence_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "occupancy", "--beta", "0.5", "--confidence", "0.99"])
        assert exc.value.code == 2
        assert "--confidence" in capsys.readouterr().err

    def test_normalisation_zero_exits_two(self, capsys, monkeypatch):
        # at beta 0.9, zeta(1/beta) = 9.59 > n = 5: nu((0, n]) = 0, so b_n would be 0
        _exits_two(capsys, ["simulate", "--beta", "0.9", "--n", "5", "--seed", "1"], "n=5 is below zeta")
        _no_samplers(monkeypatch)  # every suite checks its n before any part runs
        for suite, replicas in (("marginal", "100"), ("extremal-mstar", "100000")):
            _exits_two(capsys, ["verify", "--suite", suite, "--beta", "0.9", "--n", "5", "--replicas", replicas,
                                "--seed", "1", "--threads", "1"], "n=5 is below zeta")


def _exits_two(capsys, argv, message):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


def _no_samplers(monkeypatch):
    """Make the urn and every limit sampler fail if a suite calls them."""
    def no_run(*args, **kwargs):
        raise AssertionError("a sampler ran")

    for name in ("simulate", "simulate_batch"):
        monkeypatch.setattr(cli.ksim, name, no_run)
    for name in ("karlin_batch", "mstar_batch", "coupled_batch", "top_m_batch",
                 "sample_karlin", "sample_mstar"):
        monkeypatch.setattr(cli.lsim, name, no_run)


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
    (["oracle"], {"alpha": 10 ** 400, "beta": 0.5,
                  "pairs": [{"set": {"intervals": [[0.0, 0.25]]}, "z": 1.0}]}),
    (["limit-sample", "--beta", "0.5", "--replicas", "3", "--seed", "1"],
     {"family": [{"carrier": [1, 0], "intervals": []}]}),
    (["verify", "--suite", "marginal", "--beta", "0.5", "--n", "1000", "--replicas", "100",
      "--seed", "1", "--threads", "1"], {"family": [{"carrier": [-1, 1], "intervals": [[-0.5, 0.5]]}]}),
])
def test_query_of_wrong_shape_exits_two(command, payload, tmp_path, capsys):
    # valid JSON of the wrong shape is a usage error: exit 2 and one error line
    query = tmp_path / "query.json"
    query.write_text(json.dumps(payload))
    assert cli.main([*command, "--query", str(query)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("suite", ["marginal", "locations", "patterns"])
def test_query_set_of_measure_zero_exits_two_before_any_run(suite, tmp_path, capsys, monkeypatch):
    # an empty set has no Frechet law and no hit target, so it is a usage error
    _no_samplers(monkeypatch)
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"family": [{"intervals": []}]}))
    assert cli.main(["verify", "--suite", suite, "--beta", "0.5", "--n", "100000", "--replicas", "500",
                     "--seed", "1", "--threads", "1", "--query", str(query)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "positive measure" in err and len(err.splitlines()) == 1


# Valid query files, each with the kind of every field by JSON path; a kind
# maps to values of the wrong type or shape for it.
VALID_QUERIES = {
    "oracle": {"alpha": 1.0, "beta": 0.5, "pairs": [
        {"set": {"carrier": [0, 1], "intervals": [[0.0, 0.25], [0.5, 0.75]]}, "z": 1.0},
        {"set": {"intervals": [[0.1, 0.2]]}, "z": 2},
    ]},
    "limit-sample": {"family": [
        {"carrier": [0, 1], "intervals": [[0.0, 0.25]]},
        {"carrier": [0.0, 1.0], "intervals": [[0.5, 0.75], [0.8, 0.9]]},
    ]},
}


def _kind(keys: tuple) -> str:
    last, parent = keys[-1], (keys[-2] if len(keys) > 1 else None)
    if last in ("alpha", "beta", "z"):
        return "number"
    if last == "carrier" or parent == "intervals":
        return "pair"
    if last in ("pairs", "family"):
        return "nonempty list"
    return "list" if last == "intervals" else "object"


def _fields(node, keys=()):
    """(keys, kind) of every field below a node, outermost first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield keys + (key,), _kind(keys + (key,))
        if isinstance(value, dict) or (isinstance(value, list) and _kind(keys + (key,)) != "pair"):
            yield from _fields(value, keys + (key,))


def _path_text(keys: tuple) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else (f".{k}" if i else k) for i, k in enumerate(keys))


_SCALARS = st.one_of(st.text(max_size=3), st.booleans(), st.none())
_OBJECTS = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
_NOT_NUMBER = st.one_of(_SCALARS, _OBJECTS, st.lists(st.integers(), max_size=2))
_NUMBERS = st.one_of(st.integers(-5, 5), st.floats(0.0, 1.0))
WRONG = {
    "number": _NOT_NUMBER,
    "pair": st.one_of(
        _NUMBERS, _SCALARS, _OBJECTS,
        st.lists(_NUMBERS, max_size=4).filter(lambda v: len(v) != 2),
        st.tuples(_NOT_NUMBER, _NUMBERS).map(list), st.tuples(_NUMBERS, _NOT_NUMBER).map(list),
    ),
    "list": st.one_of(_NUMBERS, _SCALARS, _OBJECTS),
    "nonempty list": st.one_of(_NUMBERS, _SCALARS, _OBJECTS, st.just([])),
    "object": st.one_of(_NUMBERS, _SCALARS, st.lists(_NUMBERS, max_size=2)),
}
_CASES = [(command, keys, kind) for command, doc in VALID_QUERIES.items() for keys, kind in _fields(doc)]


def _run_query(command: str, doc) -> tuple:
    """Exit code and stderr of ``command`` on a query file holding ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        query = Path(tmp) / "query.json"
        query.write_text(json.dumps(doc))
        argv = [command, "--query", str(query)]
        if command == "limit-sample":
            argv += ["--beta", "0.5", "--replicas", "2", "--seed", "1", "--out", str(Path(tmp) / "out.csv")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(VALID_QUERIES))
def test_valid_query_files_exit_zero(command):
    assert _run_query(command, VALID_QUERIES[command]) == (0, "")


@given(st.sampled_from(_CASES), st.data())
@settings(max_examples=200, deadline=None)
def test_query_field_errors_name_the_field(case, data):
    # one field of a valid query file replaced by a value of the wrong type
    # or shape (or removed, where it is required): exit 2, and the one error
    # line names the field's JSON path
    command, keys, kind = case
    doc = json.loads(json.dumps(VALID_QUERIES[command]))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    required = isinstance(keys[-1], str) and keys[-1] != "carrier"
    if required and data.draw(st.booleans()):
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = data.draw(WRONG[kind])
    code, err = _run_query(command, doc)
    assert code == 2, err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert _path_text(keys) in err, err


class TestLimitSampleDomain:
    def test_wide_carrier_samples(self, tmp_path):
        query = _family_json(tmp_path, [0, 4], [[0.0, 3.0]])
        out = tmp_path / "out.csv"
        assert cli.main(["limit-sample", "--beta", "0.5", "--replicas", "20", "--seed", "1",
                         "--query", query, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 20
        assert all(float(r.split(",")[2]) > 0 and int(r.split(",")[3]) >= 1 for r in rows)

    @pytest.mark.parametrize("family, argv, message", [
        ([{"intervals": [[i / 64, i / 64 + 0.01]]} for i in range(21)], [], "family of 21 sets exceeds"),
        ([{"intervals": [[0.0, 0.5]]}], ["--alpha", "inf"], "alpha must be positive"),
    ])
    def test_rejected_family_creates_no_output(self, family, argv, message, tmp_path, capsys):
        # replica 0 is drawn before --out is opened (the mstar case is test_mstar_wide_carrier_exits_two)
        query, out = tmp_path / "family.json", tmp_path / "out.csv"
        query.write_text(json.dumps({"family": family}))
        _exits_two(capsys, ["limit-sample", "--beta", "0.5", "--replicas", "5", "--seed", "1", "--query", str(query),
                            "--out", str(out), *argv], message)
        assert not out.exists()

    @pytest.mark.parametrize("carrier, message", [
        ([-1e308, 1e308], "carrier (-1e+308, 1e+308) has a length hi - lo beyond float range"),
        ([0, "Infinity"], "carrier (0.0, inf) must be a finite interval"),
    ], ids=["finite-ends", "infinite-end"])
    def test_carrier_of_no_finite_length_exits_two(self, carrier, message, tmp_path, capsys):
        # finite ends further apart than float range are named as such, not as an infinite carrier
        query = tmp_path / "family.json"
        query.write_text(json.dumps({"family": [{"carrier": carrier, "intervals": [[0.0, 1.0]]}]})
                         .replace('"Infinity"', "Infinity"))
        _exits_two(capsys, ["limit-sample", "--beta", "0.5", "--replicas", "5", "--seed", "1", "--query", str(query)],
                   message)

    def test_mstar_wide_carrier_exits_two(self, tmp_path, capsys):
        query = _family_json(tmp_path, [0, 4], [[0.0, 3.0]])
        out = tmp_path / "out.csv"
        assert cli.main(["limit-sample", "--beta", "0.5", "--replicas", "5", "--seed", "1",
                         "--query", query, "--variant", "mstar", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unit carrier" in err and len(err.splitlines()) == 1
        assert not out.exists()  # the first replica fails before the output is opened

    def test_levels_beyond_float_range_print_inf(self, tmp_path):
        # on the carrier [0, 1e300] the pattern rate is 1e150, so every first arrival is about 1e-150
        # and its level at alpha = 0.1 about 1e1500: inf, with no RuntimeWarning (BIN makes one fatal)
        query = _family_json(tmp_path, [0, 1e300], [[0.0, 1e300]])
        res = run_cli("limit-sample", "--beta", "0.5", "--alpha", "0.1", "--replicas", "50", "--seed", "1",
                      "--query", query)
        assert (res.returncode, res.stderr) == (0, "")
        values = [row.split(",")[2] for row in res.stdout.splitlines()[1:]]
        assert len(values) == 50 and set(values) == {"inf"}

    def test_levels_below_float_range_print_zero(self, tmp_path):
        # at alpha = 0.001 a level Gamma**-1000 rounds to 0.0 once Gamma exceeds about 2.1, so sets of
        # positive measure print 0.0, the value of a set of measure 0, with no RuntimeWarning
        query = tmp_path / "family.json"
        query.write_text(json.dumps({"family": [{"intervals": [[0.0, 0.25]]}, {"intervals": [[0.2, 0.6]]},
                                                {"intervals": [[0.5, 0.9]]}]}))
        res = run_cli("limit-sample", "--beta", "0.5", "--alpha", "0.001", "--replicas", "200", "--seed", "1",
                      "--query", str(query))
        assert (res.returncode, res.stderr) == (0, "")
        values = [float(row.split(",")[2]) for row in res.stdout.splitlines()[1:]]
        assert len(values) == 600 and 0.0 in values

    def test_tiny_set_samples_at_once(self, tmp_path):
        query = _family_json(tmp_path, [0, 1], [[0.0, 1e-300]])
        out = tmp_path / "out.csv"
        t0 = time.perf_counter()
        assert cli.main(["limit-sample", "--beta", "0.5", "--replicas", "1", "--seed", "1",
                         "--query", query, "--out", str(out)]) == 0
        assert time.perf_counter() - t0 < 1.0
        value = float(out.read_text().splitlines()[1].split(",")[2])
        assert math.isfinite(value) and value > 0


def _comb(start: int, step: int) -> dict:
    """The set of intervals [i/128, i/128 + 0.004) for i = start, start + step, ... below 128."""
    return {"intervals": [[i / 128, i / 128 + 0.004] for i in range(start, 128, step)]}


# families that cut [0, 1) into 64 atoms: one set of 64 intervals, two interleaved sets of 32
MANY_ATOMS = {"one-set": [_comb(0, 2)], "two-sets": [_comb(0, 4), _comb(2, 4)]}


def _limit_sample(family: list, variant: str, replicas: int) -> tuple:
    """Exit code, stderr and output rows of ``limit-sample`` on a family of sets."""
    with tempfile.TemporaryDirectory() as tmp:
        query, out = Path(tmp) / "family.json", Path(tmp) / "out.csv"
        query.write_text(json.dumps({"family": family}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["limit-sample", "--beta", "0.5", "--replicas", str(replicas), "--seed", "1",
                             "--query", str(query), "--variant", variant, "--out", str(out)])
        rows = out.read_text().splitlines()[1:] if out.exists() else []
    return code, err.getvalue(), rows


class TestManyAtoms:
    @pytest.mark.parametrize("variant", ["karlin", "mstar"])
    @pytest.mark.parametrize("name", MANY_ATOMS)
    def test_limit_sample(self, name, variant):
        code, err, rows = _limit_sample(MANY_ATOMS[name], variant, 30)
        assert (code, err) == (0, "")
        assert len(rows) == 30 * len(MANY_ATOMS[name])
        assert all(float(row.split(",")[2]) > 0 for row in rows)

    @pytest.mark.parametrize("name", MANY_ATOMS)
    def test_verify_locations_ends_by_verdict(self, name, tmp_path):
        query, out = tmp_path / "family.json", tmp_path / "report.csv"
        query.write_text(json.dumps({"family": MANY_ATOMS[name]}))
        res = run_cli("verify", "--suite", "locations", "--beta", "0.5", "--n", "10000", "--replicas", "500",
                      "--seed", "3", "--threads", "1", "--query", str(query), "--out", str(out))
        assert res.returncode in (0, 1) and "Traceback" not in res.stderr, res.stderr
        sets = len(MANY_ATOMS[name])
        assert len(out.read_text().splitlines()) == 1 + 2 * sets + 1  # hits and values per set, joint hit


# an interval in one of 128 slots of [0, 1), so that intervals of distinct slots stay disjoint
_SLOT = st.tuples(st.integers(0, 127), st.floats(0.0, 1 / 128)).map(lambda p: [p[0] / 128, p[0] / 128 + p[1]])
_SET = st.integers(0, 40).flatmap(lambda k: st.lists(_SLOT, min_size=k, max_size=k))


@given(st.lists(_SET, min_size=1, max_size=4))
@settings(max_examples=120, deadline=None)
def test_any_family_samples_or_exits_two(intervals):
    # families of 1-4 sets with 0-40 intervals each, up to 160 atoms: exit 0, or 2 with one error line
    for variant in ("karlin", "mstar"):
        code, err, _ = _limit_sample([{"intervals": set_} for set_ in intervals], variant, 20)
        assert code == 0 or (code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1), err


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


@pytest.mark.parametrize("alpha", [0.3, 3.0])
def test_alpha_only_powers_the_printed_values(alpha, tmp_path):
    # the samplers draw at alpha = 1: each value printed at alpha is the one printed at alpha = 1 raised
    # to 1/alpha by libm's pow, as float's ** computes it, bit for bit, and every other field is the same
    query, out = tmp_path / "family.json", tmp_path / "out"
    query.write_text(json.dumps({"family": [{"intervals": [[0.0, 0.25]]}, {"intervals": [[0.2, 0.6]]},
                                            {"intervals": [[0.5, 0.9]]}]}))
    limit = ["limit-sample", "--beta", "0.5", "--replicas", "200", "--query", str(query)]
    for argv, columns in ((["simulate", "--beta", "0.5", "--n", "100000", "--top-m", "12"], (1, 2)),
                          ([*limit, "--variant", "karlin"], (2,)), ([*limit, "--variant", "mstar"], (2,))):
        rows = {}
        for a in (1.0, alpha):
            assert cli.main([*argv, "--alpha", repr(a), "--seed", "3", "--out", str(out)]) == 0
            rows[a] = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[1.0][0] == rows[alpha][0] and len(rows[1.0]) == len(rows[alpha]) > 1
        for one, other in zip(rows[1.0][1:], rows[alpha][1:]):
            for c, (x, y) in enumerate(zip(one, other, strict=True)):
                assert y == (repr(float(x) ** (1.0 / alpha)) if c in columns else x), (argv, c, x, y)
    b_n = {}
    for a in (1.0, alpha):
        assert cli.main(["simulate", "--beta", "0.5", "--n", "100000", "--alpha", repr(a), "--seed", "3",
                         "--format", "json", "--out", str(out)]) == 0
        b_n[a] = json.loads(out.read_text())["b_n"]
    assert b_n[alpha] == b_n[1.0] ** (1.0 / alpha)


def test_traced_simulate_prints_the_same_bytes(tmp_path, monkeypatch):
    # perfbench's tracer wraps the package's public functions; its counter on karlin_sim.simulate reads
    # fields that the batch simulate returns lacks, so the CLI must draw through simulate_batch
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    def outputs(tag: str) -> list:
        out = []
        for i, extra in enumerate((["--top-m", "7"], ["--format", "json"])):
            path = tmp_path / f"{tag}{i}"
            assert cli.main(["simulate", "--beta", "0.5", "--n", "20000", "--seed", "5", *extra,
                             "--out", str(path)]) == 0
            out.append(path.read_bytes())
        return out

    plain = outputs("plain")
    t = tracer.Tracer("test")
    uninstall = tracer.install(t)
    try:
        traced = outputs("traced")
    finally:
        uninstall()
    assert traced == plain
    names = [span[1] for span in t.spans]
    assert names.count("karlin_sim.simulate_batch") == 2 and "karlin_sim.simulate" not in names


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def _peak_rss_mb(argv) -> float:
    """Peak resident memory of a CLI call, in MB, from ``os.wait4`` in a small process that starts it.

    A direct child would report at least the test process's own peak: Linux keeps, as a process's
    peak, that of the memory it replaces at exec."""
    probe = ("import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
             "_, status, usage = os.wait4(child.pid, 0); print(os.waitstatus_to_exitcode(status), "
             "usage.ru_maxrss / 1024)")  # KB on Linux
    res = subprocess.run([sys.executable, "-c", probe, *BIN, *argv], capture_output=True, text=True)
    code, peak = res.stdout.split()
    assert code == "0", res.stderr
    return float(peak)


class TestSimulateMemory:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB on Linux")
    def test_csv_locations_do_not_expand_the_run(self, tmp_path):
        # the CSV draws only the printed boxes' positions, so at n = 1e7 it peaks within 8 MB of the
        # JSON call, which reads no position (190 MB against 37 MB when the run was expanded), also
        # with ranks past WALK (about 200 MB when they scanned the expanded run)
        argv = ["simulate", "--beta", "0.5", "--n", "10000000", "--seed", "1"]
        json_mb = _peak_rss_mb([*argv, "--format", "json", "--out", str(tmp_path / "occ.json")])
        for top in ("5", "20"):
            csv_mb = _peak_rss_mb([*argv, "--top-m", top, "--out", str(tmp_path / "top.csv")])
            assert csv_mb - json_mb < 8, (top, csv_mb, json_mb)


class TestClosedPipe:
    """A reader that closes stdout early, as ``| head`` does, ends the call quietly with exit 141."""

    def test_limit_sample_into_head(self, tmp_path):
        query = tmp_path / "family.json"
        query.write_text(json.dumps({"family": [{"intervals": [[0.03, 0.28]]}, {"intervals": [[0.31, 0.61]]},
                                                {"intervals": [[0.51, 0.91]]}]}))
        # 20,000 replicas write far more than a pipe holds, so the writer meets the closed pipe
        child = subprocess.Popen(BIN + ["limit-sample", "--beta", "0.5", "--replicas", "20000", "--seed", "1",
                                        "--query", str(query)],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert child.stdout.readline() == "replica,set_id,value,atoms_used\n"
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(), err) == (cli.EXIT_CLOSED_PIPE, "")
        assert cli.EXIT_CLOSED_PIPE not in (0, 1, 2)

    def test_failed_suite_is_not_turned_into_success(self):
        # the failing suite of TestVerifyCommand, its report written into a pipe already closed
        child = subprocess.Popen(BIN + ["verify", "--suite", "marginal", "--beta", "0.5", "--n", "3",
                                        "--replicas", "2000", "--seed", "42"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait() == cli.EXIT_CLOSED_PIPE
        assert "error" not in err and "Traceback" not in err


class TestLimitSampleCommand:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB on Linux")
    def test_memory_does_not_grow_with_replicas(self, tmp_path):
        # each replica's rows are written as soon as it is drawn, so 32,768 replicas of a 3-set family
        # peak within 8 MB of 1,000 (when the CSV was built in memory, about 18 MB apart)
        query = tmp_path / "family.json"
        query.write_text(json.dumps({"family": [{"intervals": [[0.03, 0.28]]}, {"intervals": [[0.31, 0.61]]},
                                                {"intervals": [[0.51, 0.91]]}]}))
        small, large = (_peak_rss_mb(["limit-sample", "--beta", "0.5", "--replicas", str(replicas), "--seed", "1",
                                      "--query", str(query), "--out", str(tmp_path / f"{replicas}.csv")])
                        for replicas in (1000, 32768))
        assert len((tmp_path / "32768.csv").read_text().splitlines()) == 1 + 3 * 32768
        assert large - small < 8.0, (small, large)

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
        # beta 0.5 at n = 1e4 runs on one thread whatever is asked; beta 0.9 at n = 2e4 on the threads asked for
        for beta, n in (("0.5", "10000"), ("0.9", "20000")):
            args = ["verify", "--suite", "patterns", "--beta", beta, "--n", n,
                    "--replicas", "100", "--seed", "7"]
            out1, out2 = tmp_path / f"r1-{beta}.csv", tmp_path / f"r2-{beta}.csv"
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

    def test_defaults_come_from_the_suite(self, monkeypatch):
        # without --n and --replicas the suite runs at its own default scale
        configs = []

        def recording(cfg):
            configs.append(cfg)
            return SuiteReport(cfg.suite, cfg.seed, [])

        monkeypatch.setattr(cli, "run_suite", recording)
        assert cli.main(["verify", "--suite", "occupancy", "--beta", "0.5", "--seed", "1"]) == 0
        assert (configs[0].n_grid, configs[0].replicas) == ((10 ** 6,), 100)

    def test_failing_suite_exits_one(self):
        # at n = 3 the normalized sup is far from its Frechet limit (KS about 0.17), while at
        # 2000 replicas the gate is the 0.05 calibration bound, so the suite must fail
        res = run_cli("verify", "--suite", "marginal", "--beta", "0.5", "--n", "3",
                      "--replicas", "2000", "--seed", "42")
        assert res.returncode == 1


    def test_locations_names_the_rank_without_a_sample(self, tmp_path, capsys):
        # a run of n = 3 draws has at most 3 boxes, so the fourth of 5 sets has no urn value to compare
        query = tmp_path / "family.json"
        query.write_text(json.dumps({"family": [{"intervals": [[i / 5, i / 5 + 0.1]]} for i in range(5)]}))
        assert cli.main(["verify", "--suite", "locations", "--beta", "0.5", "--n", "3", "--replicas", "100",
                         "--seed", "1", "--threads", "1", "--query", str(query)]) == 2
        assert capsys.readouterr().err == (
            "error: no run of n=3 draws has a box of mark rank 4, so value_top4 has no sample\n")


SUITES = ("marginal", "locations", "occupancy", "patterns", "limit-vs-oracle", "extremal-mstar")
TINY = ["--beta", "0.0001", "--seed", "1"]  # s = 1/beta = 1e4, so 2**s * zeta(s) is beyond float range


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", *TINY, "--n", "1000"], id="simulate-csv"),
    pytest.param(["simulate", *TINY, "--n", "1000", "--format", "json"], id="simulate-json"),
    pytest.param(["limit-sample", *TINY, "--replicas", "5", "--query", "{family}"], id="limit-sample"),
    pytest.param(["oracle", "--query", "{query}"], id="oracle"),
    *(pytest.param(["verify", "--suite", suite, *TINY, "--n", "10000", "--replicas", "100", "--threads", "1"],
                   id=suite) for suite in SUITES),
])
def test_beta_below_one_over_1024_runs(argv, family_file, tmp_path, capsys):
    # every call ends in an exit code: 0, a suite's 1 by its rows, or its 2 with one error line
    # (locations: every run has k_n = 1 box, so rank 2 has no sample)
    query = tmp_path / "tiny.json"
    query.write_text(json.dumps({"alpha": 1.0, "beta": 0.0001,
                                 "pairs": [{"set": {"intervals": [[0.0, 0.25]]}, "z": 1.0}]}))
    code = cli.main([arg.format(family=family_file, query=query) for arg in argv])
    err = capsys.readouterr().err
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0,)), err
    assert code < 2 or err.startswith("error: ") and len(err.splitlines()) == 1, err


class _ReadRecorder(argparse.Namespace):
    """A parsed namespace that records which options are read."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("command, argv", [
    ("simulate", ["--beta", "0.5", "--n", "100"]),
    ("limit-sample", ["--beta", "0.5", "--replicas", "2", "--query", "{family}"]),
    ("oracle", ["--query", "{query}"]),
    ("verify", ["--suite", "occupancy", "--beta", "0.5", "--n", "1000", "--replicas", "100",
                "--threads", "1"]),
])
def test_every_option_is_read(command, argv, monkeypatch, query_file, family_file, tmp_path):
    # an option that its handler never reads is accepted and silently ignored
    build = cli._build_parser
    parsed = []

    def recording_parser():
        parser = build()
        parse = parser.parse_args

        def parse_args(args):
            parsed.append(_ReadRecorder(**vars(parse(args))))
            return parsed[-1]

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(cli, "_build_parser", recording_parser)
    argv = [a.format(family=family_file, query=query_file) for a in argv]
    if command != "oracle":
        argv += ["--seed", "1", "--out", str(tmp_path / "out")]
    assert cli.main([command, *argv]) == 0
    subparsers = next(a for a in build()._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest for a in subparsers.choices[command]._actions} - {"help"}
    unread = options - vars(parsed[0])["_read"]
    assert not unread, f"{command} never reads {sorted(unread)}"
