import json
import math

import pytest

import tidlab.cli
import tidlab.matrixops
from tidlab.cli import CHECKS, main, parse_seeds, parse_shapes
from tidlab.tensors import TensorShape


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
