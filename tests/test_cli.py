import enum
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tidlab.cli
import tidlab.graded
import tidlab.matrixops
from tidlab.cli import CHECKS, RunConfig, _json_text, main, parse_seeds, parse_shapes
from tidlab.graded import CROSSED, ChainConvention, convention_search
from tidlab.matrixops import Phi2Params
from tidlab.tensors import _BATCH, TensorShape


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_seeds():
    assert parse_seeds("7") == (7,)
    assert parse_seeds("1,2,5") == (1, 2, 5)
    assert parse_seeds("1..4") == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        parse_seeds("5..1")


def test_parse_shapes():
    assert parse_shapes("(1,1)x(1,1)") == (TensorShape(1, 1), TensorShape(1, 1))
    assert parse_shapes("(2,1) x (1,2)") == (TensorShape(2, 1), TensorShape(1, 2))
    with pytest.raises(ValueError):
        parse_shapes("2,1")


def test_enumerate_binary(capsys):
    code, out, _ = run(capsys, ["enumerate", "(1,1)x(1,1)"])
    assert code == 0
    assert "count: 7" in out
    assert "'(1,1)': 4" in out and "'(0,0)': 2" in out and "'(2,2)': 1" in out


def test_enumerate_ternary_family(capsys):
    code, out, _ = run(
        capsys,
        ["enumerate", "(2,1)x(2,1)x(1,2)", "--no-self", "--unordered", "--out", "(2,1)"],
    )
    assert code == 0
    assert "count: 7" in out


def test_enumerate_single(capsys):
    code, out, _ = run(capsys, ["enumerate", "(1,1)"])
    assert code == 0
    assert "count: 2" in out


def test_enumerate_bad_shape(capsys):
    code, _, err = run(capsys, ["enumerate", "11x11"])
    assert code == 2
    assert "error" in err


def test_verify_jacobi_passes(capsys):
    code, out, _ = run(capsys, ["verify", "jacobi", "--dim", "2", "--seeds", "1..5"])
    assert code == 0
    assert "PASS" in out and "OK" in out


def test_verify_jacobi_broken_params_fails(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "jacobi", "--dim", "2", "--seeds", "1..3", "--gamma", "1"],
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_empty_selection_usage_error(capsys):
    # jacobi has no symbolic check, so nothing would be verified
    code, out, err = run(capsys, ["verify", "jacobi", "--mode", "symbolic", "--json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["phi4", "--alpha", "1", "--beta", "1"], 2),
        (["identity6", "--alpha", "1", "--beta", "1", "--gamma", "1", "--delta", "1"], 2),
        (["all", "--mode", "symbolic", "--gamma", "1"], 2),
        # with the jacobi row the coefficients are read, and the symmetric product fails it
        (["all", "--alpha", "1", "--beta", "1"], 1),
    ],
)
def test_verify_product_coefficients_need_the_jacobi_row(capsys, argv, code):
    # only the jacobi row reads --alpha..--delta; any other row would ignore them and pass
    got, out, err = run(capsys, ["verify", *argv, "--seeds", "1", "--json"])
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith("error:") and "--alpha..--delta" in err
    else:
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert not checks["jacobi/numeric"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["phi4", "--weights=1,2,-3"], 2),
        (["appendix2", "--weights=1,2,-3"], 2),
        (["identity18", "--mode", "symbolic", "--weights", "random-constrained"], 2),
        (["all", "--mode", "symbolic", "--weights=1,2,-3"], 2),
        # with identity18/numeric the weights are read, and (1, 2, -3) fails it
        (["all", "--weights=1,2,-3"], 1),
    ],
)
def test_verify_weights_need_a_numeric_ternary_row(capsys, argv, code):
    # only cyclic16/numeric and identity18/numeric read --weights; any other row would ignore them and pass
    got, out, err = run(capsys, ["verify", *argv, "--seeds", "1", "--json"])
    assert got == code
    if code == 2:
        assert out == ""
        assert err.startswith("error:") and "--weights" in err
    else:
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert not checks["identity18/numeric"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["phi4"], 2),
        (["appendix2"], 2),
        (["identity18", "--mode", "symbolic"], 2),
        (["all", "--mode", "symbolic", "--convention", "auto-search"], 2),
        # cyclic16/numeric reads the convention, and pppx keeps the cyclic identity
        (["cyclic16"], 0),
    ],
)
def test_verify_convention_needs_a_numeric_ternary_row(tmp_path, capsys, monkeypatch, argv, code):
    # only cyclic16/numeric and identity18/numeric read --convention; any other row would ignore it and pass
    calls = []
    monkeypatch.setattr(tidlab.graded, "convention_search", lambda **kwargs: calls.append(kwargs))
    pppx = ChainConvention(low_r2l=CROSSED)  # rejected by convention-search
    if "--convention" not in argv:
        path = tmp_path / "convention.json"
        path.write_text(json.dumps({"schema": "tidlab/1", "pairings": pppx.to_json()}))
        argv = [*argv, "--convention", str(path)]
    got, out, err = run(capsys, ["verify", *argv, "--seeds", "1", "--json"])
    assert got == code
    assert calls == []  # an unread auto-search never starts
    if code == 2:
        assert out == ""
        assert err.startswith("error:") and "--convention" in err
    else:
        assert json.loads(out)["config"]["convention"] == pppx.to_json()


def test_verify_cyclic16_unbalanced_weights_fail(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify", "cyclic16", "--dim", "2", "--seeds", "1..2",
            "--mode", "numeric", "--weights", "1,1,1",
        ],
    )
    assert code == 1


def test_verify_identity18_symbolic(capsys):
    code, out, _ = run(capsys, ["verify", "identity18", "--mode", "symbolic"])
    assert code == 0
    assert "appendix2/exact" in out


def test_verify_appendix1(capsys):
    code, out, _ = run(capsys, ["verify", "appendix1", "--dim", "2", "--seeds", "1..3"])
    assert code == 0
    assert "appendix1/numeric" in out and "appendix1/symbolic" in out


def test_verify_json_deterministic(capsys):
    argv = ["verify", "phi4", "--dim", "2", "--seeds", "1..2", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "tidlab/1"
    assert payload["all_pass"] is True
    assert [c["name"] for c in payload["checks"]] == sorted(
        c["name"] for c in payload["checks"]
    )
    assert "elapsed" not in json.dumps(payload)


def test_convention_search_descriptor_and_reuse(tmp_path, capsys):
    path = tmp_path / "convention.json"
    argv = [
        "convention-search", "--dim", "2", "--seeds", "1", "--out", str(path), "--json",
    ]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    descriptor = json.loads(path.read_text())
    assert descriptor["schema"] == "tidlab/1"
    assert descriptor["pairings"] == {
        "high_l2r": "parallel",
        "high_r2l": "parallel",
        "low_l2r": "parallel",
        "low_r2l": "parallel",
    }
    assert len(descriptor["trials"]) == 16
    failing = [t for t in descriptor["trials"] if not t["pass"]]
    assert failing and all(t["identity18_residual"] > 1e-6 for t in failing)

    # idempotence: a rerun reproduces the descriptor byte for byte
    code, out2, _ = run(capsys, argv)
    assert out2 == out1

    # the descriptor can drive a verification run
    code, out, _ = run(
        capsys,
        [
            "verify", "cyclic16", "--dim", "2", "--seeds", "1..3",
            "--mode", "numeric", "--convention", str(path),
        ],
    )
    assert code == 0


def test_convention_search_out_file_holds_the_json_stdout(tmp_path, capsys):
    path = tmp_path / "convention.json"
    code, out, _ = run(capsys, ["convention-search", "--dim", "2", "--seeds", "1", "--out", str(path), "--json"])
    assert code == 0
    assert path.read_bytes() == out.encode("utf-8")


def test_convention_search_text_output(capsys):
    code, out, _ = run(capsys, ["convention-search", "--dim", "2", "--seeds", "1"])
    assert code == 0
    *trials, last = out.splitlines()
    assert len(trials) == 16
    assert all(line.split()[0] in ("PASS", "FAIL") for line in trials)
    survivors = ["pppp", "pxpx", "pxxp", "xppx", "xpxp", "xxxx"]
    assert [line.split()[1] for line in trials if line.startswith("PASS")] == survivors
    assert last == f"survivors: {survivors}"


def test_convention_auto_search(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify", "cyclic16", "--dim", "2", "--seeds", "1..2",
            "--mode", "numeric", "--convention", "auto-search",
        ],
    )
    assert code == 0


def test_convention_auto_search_uses_run_grid(capsys, monkeypatch):
    calls = []
    real_search = tidlab.graded.convention_search

    def spy(**kwargs):
        calls.append(kwargs)
        return real_search(**kwargs)

    # load_convention imports the search from graded when it runs
    monkeypatch.setattr(tidlab.graded, "convention_search", spy)
    code, _, err = run(capsys, ["verify", "jacobi", "--seeds=-1", "--convention", "auto-search"])
    assert code == 2 and err.startswith("error:")
    assert calls == []  # an invalid run is rejected before any search
    code, _, _ = run(
        capsys,
        [
            "verify", "cyclic16", "--dim", "2", "--seeds", "3..4", "--tol", "1e-9",
            "--mode", "numeric", "--convention", "auto-search",
        ],
    )
    assert code == 0
    assert calls == [{"dim": 2, "seeds": (3, 4), "tolerance": 1e-9}]


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("TIDLAB_SEED", "77")
    code, out, _ = run(capsys, ["verify", "jacobi", "--dim", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["seeds"] == [77]


def test_verify_all_smoke(capsys):
    code, out, _ = run(
        capsys, ["verify", "all", "--dim", "2", "--seeds", "1..2"]
    )
    assert code == 0
    names = [line.split()[1] for line in out.splitlines() if line.startswith("PASS")]
    assert names == sorted(names)
    assert "identity18/numeric" in names and "appendix2/exact" in names


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_nan_residual_fails_closed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(tidlab.matrixops, "relative_residual", lambda residual, operands: math.nan)
    code, out, _ = run(capsys, ["verify", "jacobi", "--dim", "2", "--seeds", "1..2", "--json"])
    assert code == 1
    (check,) = json.loads(out, parse_constant=_no_constant)["checks"]
    assert check["pass"] is False
    assert check["residual"] is None and check["digest"] == "non-finite residual"

    path = tmp_path / "convention.json"
    code, out, err = run(
        capsys, ["convention-search", "--dim", "2", "--seeds", "1", "--out", str(path), "--json"]
    )
    assert code == 1 and "no surviving convention" in err
    for text in (out, path.read_text()):
        descriptor = json.loads(text, parse_constant=_no_constant)
        assert descriptor["pairings"] is None and descriptor["survivors"] == []
        assert not any(t["pass"] for t in descriptor["trials"])


def test_verify_null_descriptor_usage_error(tmp_path, capsys):
    path = tmp_path / "convention.json"
    path.write_text(json.dumps({"schema": "tidlab/1", "pairings": None}))
    code, _, err = run(capsys, ["verify", "cyclic16", "--convention", str(path)])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "flag, value",
    [("--dim", "0"), ("--tol", "-1"), ("--tol", "inf"), ("--tol", "nan"), ("--seeds", "-1")],
)
def test_convention_search_bad_argument_usage_error(capsys, flag, value):
    for command in (["convention-search"], ["verify", "jacobi", "--json"]):
        code, out, err = run(capsys, [*command, "--seeds", "1", flag, value])
        assert code == 2, command
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["convention-search", "--dim", "1"],
        ["verify", "cyclic16", "--dim", "1", "--convention", "auto-search"],
        ["verify", "identity18", "--mode", "numeric", "--weights=1,2,-3", "--dim", "1"],
        ["verify", "jacobi", "--dim", "1"],
    ],
    ids=["convention-search", "auto-search", "identity18-numeric", "jacobi"],
)
def test_convention_search_at_dim_1_usage_error(capsys, argv):
    # at dim 1 every convention computes the same tensor, so all 16 would survive;
    # and every (1,1) tensor is a number, so a commutator vanishes and a numeric pass shows nothing
    code, out, err = run(capsys, [*argv, "--seeds", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "dim >= 2" in err


@pytest.mark.parametrize(
    "argv, unit_argv, code, first",
    [
        # the symmetric product fails Jacobi at every scale
        (["jacobi", "--alpha", "1e-6", "--beta", "1e-6"], ["jacobi", "--alpha", "1", "--beta", "1"], 1, 1e-6),
        (["jacobi", "--alpha", "1e308", "--beta", "1e308"], ["jacobi", "--alpha", "1", "--beta", "1"], 1, 1e308),
        # an exact commutator passes at every scale
        (["jacobi", "--alpha", "1e4", "--beta=-1e4"], ["jacobi"], 0, 1e4),
        # unbalanced weights fail identity18 at every scale
        (["identity18", "--mode", "numeric", "--weights=1e-6,2e-6,3e-6"],
         ["identity18", "--mode", "numeric", "--weights=1,2,3"], 1, 1e-6),
    ],
    ids=["jacobi-tiny", "jacobi-huge", "commutator-large", "identity18-tiny"],
)
def test_verdict_does_not_depend_on_coefficient_scale(capsys, argv, unit_argv, code, first):
    """Every identity is homogeneous in its coefficients, so only their ratios decide."""
    reports = []
    for args in (argv, unit_argv):
        got, out, _ = run(capsys, ["verify", *args, "--json"])
        assert got == code
        reports.append(json.loads(out))
    (scaled,), (unit,) = ([c for c in r["checks"] if c["name"].endswith("/numeric")] for r in reports)
    assert scaled["residual"] == pytest.approx(unit["residual"], rel=1e-9)
    # the report keeps the coefficients as given
    raw = scaled["params"]["alpha"] if argv[0] == "jacobi" else reports[0]["config"]["explicit_weights"][0]
    assert raw == [first, 0.0]


_NUMERIC = ["jacobi/numeric", "identity6/numeric", "phi4/numeric", "cyclic16/numeric",
            "identity18/numeric", "appendix1/numeric"]
_SYMBOLIC = ["identity6/symbolic", "phi4/symbolic", "cyclic16/symbolic", "appendix1/symbolic",
             "appendix2/exact"]
# captured from the per-suite selection before the check table existed
_SELECTED = {
    ("jacobi", "numeric"): ["jacobi/numeric"],
    ("jacobi", "symbolic"): [],
    ("jacobi", "both"): ["jacobi/numeric"],
    **{
        (s, m): names
        for s in ("identity6", "phi4", "cyclic16", "appendix1")
        for m, names in (
            ("numeric", [f"{s}/numeric"]),
            ("symbolic", [f"{s}/symbolic"]),
            ("both", [f"{s}/numeric", f"{s}/symbolic"]),
        )
    },
    ("identity18", "numeric"): ["identity18/numeric"],
    ("identity18", "symbolic"): ["appendix2/exact"],
    ("identity18", "both"): ["appendix2/exact", "identity18/numeric"],
    ("appendix2", "numeric"): ["appendix2/exact"],
    ("appendix2", "symbolic"): ["appendix2/exact"],
    ("appendix2", "both"): ["appendix2/exact"],
    ("all", "numeric"): sorted(_NUMERIC),
    ("all", "symbolic"): sorted(_SYMBOLIC),
    ("all", "both"): sorted(_NUMERIC + _SYMBOLIC),
}


@pytest.mark.parametrize("suite, mode", sorted(_SELECTED))
def test_check_table_selection(suite, mode):
    assert sorted(c.name for c in CHECKS if c.selected(suite, mode)) == _SELECTED[suite, mode]


# each run setting a row can read, moved off its default
_MOVED = {
    "params": Phi2Params(1, 1, 0, 0),
    "weights": "random-constrained",
    "convention": ChainConvention(high_l2r=CROSSED),
}


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.name)
def test_reads_names_every_setting_the_row_reads(check):
    """A setting the row does not list leaves its report alone; a listed one moves its residual."""
    assert set(check.reads) <= {"dim", *_MOVED}
    cfg = RunConfig(dim=2, seeds=(1, 2))
    outcome = lambda r: (r.passed, r.residual, r.digest, r.params)
    base = check.run(cfg)
    for setting, value in _MOVED.items():
        moved = check.run(replace(cfg, **{setting: value}))
        if setting in check.reads:
            assert moved.residual != base.residual, setting
        else:
            assert outcome(moved) == outcome(base), setting


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "jacobi", "--seeds", ""],
        ["verify", "jacobi", "--seeds", "", "--json"],
        ["enumerate", "(1,1)", "--out", ""],
        ["convention-search", "--seeds", "1", "--out", ""],
    ],
)
def test_explicitly_empty_value_usage_error(capsys, monkeypatch, argv):
    # the TIDLAB_SEED fallback applies only when --seeds is absent
    monkeypatch.setenv("TIDLAB_SEED", "3")
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_run_config_rejects_empty_seeds():
    with pytest.raises(ValueError, match="seeds must be non-empty"):
        RunConfig(seeds=())


def test_run_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        RunConfig(mode="bogus")


def test_run_config_weights(capsys):
    with pytest.raises(ValueError, match="unknown weights mode"):
        RunConfig(weights="bogus")
    code, out, _ = run(
        capsys,
        ["verify", "cyclic16", "--dim", "2", "--seeds", "1", "--mode", "numeric",
         "--weights", "1j,2,-2-1j", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["weights"] == "explicit"
    assert payload["config"]["explicit_weights"] == [[0.0, 1.0], [2.0, 0.0], [-2.0, -1.0]]
    assert payload["checks"][0]["params"]["weights"] == "explicit"


def test_convention_search_trials_equal_verify_rows(tmp_path, capsys):
    """The search evaluates exactly the operands the cyclic16 and identity18 rows verify."""
    trials, _ = convention_search(dim=2, seeds=(1, 2))
    assert len(trials) == 16
    for trial in trials:
        path = tmp_path / f"{trial.convention.label()}.json"
        path.write_text(json.dumps({"pairings": trial.convention.to_json()}))
        for suite, residual in (("identity18", trial.identity18_max), ("cyclic16", trial.cyclic_max)):
            _, out, _ = run(
                capsys,
                ["verify", suite, "--mode", "numeric", "--dim", "2", "--seeds", "1,2",
                 "--convention", str(path), "--json"],
            )
            (check,) = json.loads(out)["checks"]
            assert check["residual"] == residual, (trial.convention.label(), suite)


def test_verify_incomplete_descriptor_usage_error(tmp_path, capsys):
    path = tmp_path / "convention.json"
    path.write_text(json.dumps({"schema": "tidlab/1", "pairings": {"high_l2r": "parallel"}}))
    code, out, err = run(capsys, ["verify", "cyclic16", "--convention", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(path) in err and "high_r2l" in err


def test_verify_descriptor_unknown_pairing_usage_error(tmp_path, capsys):
    pairings = {"high_l2r": "parallel", "high_r2l": "parallel", "low_l2r": "parallel",
                "low_r2l": "parallel", "middle": "crossed"}
    path = tmp_path / "convention.json"
    path.write_text(json.dumps({"schema": "tidlab/1", "pairings": pairings}))
    code, out, err = run(capsys, ["verify", "cyclic16", "--convention", str(path)])
    assert code == 2
    assert out == ""
    assert str(path) in err and "unknown middle" in err


def test_enumerate_out_takes_one_shape(capsys):
    code, out, err = run(capsys, ["enumerate", "(1,1)x(1,1)", "--out", "(1,1)x(1,1)"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--out takes one shape" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--alpha", "inf"), ("--delta", "nan"), ("--weights", "nan,1,1"), ("--weights", "1,inf,-1"),
     ("--alpha", "1.5e308+1.5e308j"), ("--weights", "1,1,-1.5e308-1.5e308j")],
)
def test_verify_non_finite_coefficient_usage_error(capsys, flag, value):
    suite = "cyclic16" if flag == "--weights" else "jacobi"
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, ["verify", suite, "--seeds", "1", flag, value, *extra])
        assert code == 2, extra
        assert out == ""
        assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["jacobi", "--alpha", "0", "--beta", "0", "--dim", "3"], "product coefficients"),
        (["identity18", "--mode", "numeric", "--weights=0,0,0", "--dim", "2"], "weights"),
        (["cyclic16", "--mode", "numeric", "--weights=0,0,0", "--dim", "2"], "weights"),
        (["cyclic16", "--weights=0,-0,0j"], "weights"),
    ],
)
def test_verify_all_zero_coefficients_usage_error(capsys, argv, what):
    # a zero product or bracket satisfies every identity, so it cannot pass a check
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, ["verify", *argv, "--seeds", "1", *extra])
        assert code == 2, extra
        assert out == ""
        assert err.startswith("error:") and f"{what} must not all be zero" in err


@pytest.mark.parametrize(
    "argv, chunk",
    [
        (["enumerate", "(1,1,1)"], "(1,1,1)"),
        (["enumerate", "(a,1)"], "(a,1)"),
        (["enumerate", "(1,1)", "--out", "(1,x)"], "(1,x)"),
    ],
)
def test_enumerate_malformed_shape_names_chunk(capsys, argv, chunk):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and repr(chunk) in err and "'(p,q)'" in err


def test_verify_descriptor_not_json_names_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    code, out, err = run(capsys, ["verify", "identity18", "--convention", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize(
    "argv, env, source, form",
    [
        (["--seeds", "1..x"], None, "--seeds", "'1..100'"),
        (["--seeds", "1,,2"], None, "--seeds", "'1..100'"),
        ([], "abc", "TIDLAB_SEED", "'1..100'"),
        (["--alpha", "abc"], None, "--alpha", "complex literal"),
        (["--weights", "a,b,c"], None, "--weights", "complex literal"),
        (["--seeds", "3..1"], None, "--seeds", "'1..100'"),
        ([], "3..1", "TIDLAB_SEED", "'1..100'"),
    ],
)
def test_malformed_number_names_its_source(capsys, monkeypatch, argv, env, source, form):
    monkeypatch.delenv("TIDLAB_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("TIDLAB_SEED", env)
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, ["verify", "cyclic16", *argv, *json_flag])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {source} takes ") and form in err


_SEEDS = tuple(range(1, 41))
_CROSSED = ChainConvention(high_r2l=CROSSED, low_l2r=CROSSED)
# each setting a row can read: (settings, id suffix) variants run for every row that reads it
_READ_VARIANTS = {
    "weights": [({"dim": dim, "weights": "random-constrained"}, f"d{dim}-random") for dim in (2, 3)],
    "convention": [({"dim": 3, "convention": _CROSSED}, f"d3-{_CROSSED.label()}")],
    "params": [({"dim": 3, "params": Phi2Params(0.5, -0.5, 1j, -2j)}, "d3-params")],
}
_BATCH_CASES = [
    *(pytest.param(c.name, {"dim": dim}, id=f"{c.name}-d{dim}")
      for c in CHECKS if c.kind == "numeric" for dim in (2, 3)),
    *(pytest.param(c.name, settings, id=f"{c.name}-{suffix}")
      for c in CHECKS if c.kind == "numeric" for setting in c.reads
      for settings, suffix in _READ_VARIANTS.get(setting, ())),
]


@pytest.mark.parametrize("name, settings", _BATCH_CASES)
def test_batched_residual_equals_single_seed_runs(name, settings):
    """A row's residual over many seeds is bit-equal to the worst of its one-seed runs."""
    (check,) = [c for c in CHECKS if c.name == name]
    cfg = RunConfig(seeds=_SEEDS, **settings)
    assert len(_SEEDS) > _BATCH  # the run spans several batches
    singles = [check.run(replace(cfg, seeds=(seed,))).residual for seed in _SEEDS]
    assert check.run(cfg).residual == max(singles)


class _Level(enum.IntEnum):
    LOW = 1


_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e300, np.float64(0.1), _Level.LOW]),
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\x00\n\t\x1f\x7f", "é✓😀"]),
)
_json_keys = st.text(max_size=4) | st.sampled_from(['"k"', "\n", "ключ", ""])
_json_trees = st.recursive(
    _json_leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_json_keys, kids, max_size=4),
    max_leaves=16,
)


@settings(max_examples=120, deadline=None)
@given(_json_trees)
@example([True, 1, 1.0, None])
@example({"": [], "a": {}, "b": (), "c": [[], {}, ("x", -0.0, 1e300, 10**40)]})
@example({"v": [np.float64(2.5), _Level.LOW, -(2**70)]})
def test_json_text_is_indent_2_json(value):
    """The report emitter writes exactly the bytes of json.dumps(indent=2)."""
    assert _json_text(value) == json.dumps(value, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize(
    "value, error",
    [
        ({"residual": math.nan}, ValueError),
        ([1.0, math.inf], ValueError),
        ({"r": [-math.inf]}, ValueError),
        ({"r": np.float64("nan")}, ValueError),
        ({1: "one"}, TypeError),
        ({"a": {(1, 2): 0}}, TypeError),
        ({"a": object()}, TypeError),
        ([{1, 2}], TypeError),
    ],
)
def test_json_text_fails_closed(value, error):
    with pytest.raises(error):
        _json_text(value)


def _sharing(t):
    """Trees holding the one tuple object `t` at two depths, in a list and in a dict; and lists
    whose items are tuples already written at their indent, all of them or all but one."""
    u = (t, "u")
    return [
        [t, [t]],
        {"a": t, "b": {"c": t}},
        {"a": [t, {"b": (t, t)}], "c": t},
        (t, [[t]], {"d": t}),
        [[t, u], [t, u]],
        [[t, u], [t, (1,)]],
        [[t], [t, [1]]],
        [[t], [[t]]],
        [t, t],
        [[t, t], [t, t]],
    ]


@settings(max_examples=60, deadline=None)
@given(_json_trees.map(lambda v: (v, [v], "x")))
@example((1, "upper", 0))
@example(((0, "upper", 1), (2, "lower", 0)))
def test_json_text_writes_a_shared_tuple_like_json(t):
    for value in _sharing(t):
        assert _json_text(value) == json.dumps(value, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64("nan")])
def test_json_text_rejects_a_shared_non_finite_tuple_every_time(bad):
    t = (1, (bad, 2))
    for value in (*_sharing(t), t, [t], {"x": 0, "y": [t]}):
        with pytest.raises(ValueError):
            _json_text(value)


# sha256 (first 16 hex digits) of `tidlab enumerate ARGS --json` stdout
_CUBE = "(2,2)x(2,2)x(2,2)"
ENUMERATE_DIGESTS = {
    (_CUBE, "--no-self"): "73e54c0340aff333",
    (_CUBE, "--no-self", "--unordered"): "4c77713dcbdd9787",
    (_CUBE, "--quotient-slots"): "f7d5c67e69a240a2",
    (_CUBE, "--quotient-operands", "--connected"): "e7d91e8aadad30c6",
    ("(2,1)x(2,1)x(1,2)", "--no-self", "--unordered", "--out", "(2,1)"): "c43c3ec18992a20e",
    ("(1,2)x(1,2)x(2,1)", "--no-self", "--unordered", "--out", "(1,2)"): "cae6e0f7c3267b66",
}


@pytest.mark.parametrize("argv, digest", ENUMERATE_DIGESTS.items(), ids=[" ".join(a) for a in ENUMERATE_DIGESTS])
def test_enumerate_json_digest(capsys, argv, digest):
    code, out, _ = run(capsys, ["enumerate", *argv, "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == digest


# sha256 (first 16 hex digits) of `tidlab enumerate ARGS` text stdout
ENUMERATE_TEXT_DIGESTS = {
    (_CUBE, "--no-self"): "c49eb5af0a9fe0b9",
    ("(2,1)x(2,1)x(1,2)", "--no-self", "--unordered", "--out", "(2,1)"): "4a2cf996340db13f",
    ("(1,1)x(1,1)",): "5a79ab865bafd571",
}


@pytest.mark.parametrize(
    "argv, digest", ENUMERATE_TEXT_DIGESTS.items(), ids=[" ".join(a) for a in ENUMERATE_TEXT_DIGESTS]
)
def test_enumerate_text_digest(capsys, argv, digest):
    code, out, _ = run(capsys, ["enumerate", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == digest


def test_float_reports_are_indent_2_json(tmp_path, capsys):
    """Reports with floats differ across hosts in their digits, not in their layout."""
    path = tmp_path / "convention.json"
    texts = []
    for argv in (
        ["verify", "all", "--dim", "2", "--seeds", "1..2", "--json"],
        ["verify", "all", "--mode", "symbolic", "--json"],
        ["convention-search", "--dim", "2", "--seeds", "1", "--out", str(path), "--json"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        texts.append(out)
    texts.append(path.read_text(encoding="utf-8"))
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2, allow_nan=False) + "\n"
