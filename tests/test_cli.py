import json
import math
from dataclasses import replace

import pytest

import tidlab.cli
import tidlab.matrixops
from tidlab.cli import CHECKS, RunConfig, main, parse_seeds, parse_shapes
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
    real_search = tidlab.cli.convention_search

    def spy(**kwargs):
        calls.append(kwargs)
        return real_search(**kwargs)

    monkeypatch.setattr(tidlab.cli, "convention_search", spy)
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
    [["convention-search", "--dim", "1"], ["verify", "cyclic16", "--dim", "1", "--convention", "auto-search"]],
    ids=["convention-search", "auto-search"],
)
def test_convention_search_at_dim_1_usage_error(capsys, argv):
    # at dim 1 every convention computes the same tensor, so all 16 would survive
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
_BATCH_CASES = [
    *(pytest.param(c.name, {"dim": dim}, id=f"{c.name}-d{dim}")
      for c in CHECKS if c.kind == "numeric" for dim in (2, 3)),
    *(pytest.param(name, {"dim": dim, "weights": "random-constrained"}, id=f"{name}-d{dim}-random")
      for name in ("cyclic16/numeric", "identity18/numeric") for dim in (2, 3)),
    *(pytest.param(name, {"dim": 3, "convention": _CROSSED}, id=f"{name}-d3-{_CROSSED.label()}")
      for name in ("cyclic16/numeric", "identity18/numeric")),
    pytest.param("jacobi/numeric", {"dim": 3, "params": Phi2Params(0.5, -0.5, 1j, -2j)}, id="jacobi-d3-params"),
]


@pytest.mark.parametrize("name, settings", _BATCH_CASES)
def test_batched_residual_equals_single_seed_runs(name, settings):
    """A row's residual over many seeds is bit-equal to the worst of its one-seed runs."""
    (check,) = [c for c in CHECKS if c.name == name]
    cfg = RunConfig(seeds=_SEEDS, **settings)
    assert len(_SEEDS) > _BATCH  # the run spans several batches
    singles = [check.run(replace(cfg, seeds=(seed,))).residual for seed in _SEEDS]
    assert check.run(cfg).residual == max(singles)
