"""Command-line behavior, exit codes, and report layout."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from contactmech import SpecError, load_document, read_trajectory_csv, sample_states
from contactmech import cli
from contactmech import expr as ex
from contactmech.cli import main
from contactmech.expr import literal, variable
from contactmech.specdoc import write_document

SHIPPED_SPEC = "specs/gravity_friction.yaml"
DATA = Path(__file__).parent / "data"
# integers past the float range, and past the digits Python converts
_BIG = "9" * 400
_HUGE = "9" * 5000


@pytest.fixture()
def gravity_spec(tmp_path):
    path = tmp_path / "gravity.yaml"
    assert main(["export-model", "gravity_friction", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def bare_spec(tmp_path):
    # No initial_state and no candidates: usable by neither command.
    path = tmp_path / "bare.yaml"
    path.write_text(
        "n: 1\n"
        "coordinates: [q]\n"
        "hamiltonian: p_q^2/(2*m) + gamma*s\n"
        "parameters: {m: 1.0, gamma: 0.5}\n"
    )
    return path


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    assert any(line.startswith("gravity_friction:") for line in out)


def test_export_then_verify_round_trip(tmp_path, capsys):
    for name in ("gravity_friction", "damped_free_particle", "damped_oscillator"):
        spec = tmp_path / f"{name}.yaml"
        report = tmp_path / f"{name}.json"
        assert main(["export-model", name, "--out", str(spec)]) == 0
        assert main(["verify", str(spec), "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["all_expectations_met"] is True
        assert all(entry["matched"] for entry in data["checks"])
    capsys.readouterr()


def test_export_honors_parameter_overrides(tmp_path):
    spec = tmp_path / "light.yaml"
    rc = main(
        ["export-model", "gravity_friction", "--param", "gamma=0.25",
         "--out", str(spec)]
    )
    assert rc == 0
    data = yaml.safe_load(spec.read_text())
    assert data["parameters"]["gamma"] == 0.25


def test_export_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["export-model", "damped_oscillator"]) == 0
    assert (tmp_path / "damped_oscillator.yaml").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["export-model", "no_such_model"],
        ["export-model", "gravity_friction", "--param", "gamma"],
        ["export-model", "gravity_friction", "--param", "gamma=fast"],
        ["export-model", "gravity_friction", "--param", "tau=1.0"],
    ],
)
def test_export_usage_errors(tmp_path, argv, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_writes_an_accurate_trajectory(gravity_spec, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["simulate", str(gravity_spec), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "method: rk4" in text
    assert "decay factor" in text
    assert f"wrote {out}" in text
    traj = read_trajectory_csv(out)
    assert traj.times[-1] == 10.0
    assert traj.column("x")[-1] == pytest.approx(1.986524106001829, abs=1e-8)


def test_simulate_adaptive_method(gravity_spec, tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(
        ["simulate", str(gravity_spec), "--method", "rkf45", "--out", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "method: rkf45" in text
    assert "rejected" in text


def test_simulate_flags_are_method_specific(gravity_spec, tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", str(gravity_spec), "--tol", "1e-9", "--out", out]) == 2
    rc = main(
        ["simulate", str(gravity_spec), "--method", "rkf45", "--dt", "0.1",
         "--out", out]
    )
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra",
    [
        ["--tf", "0.0"],
        ["--t0", "5.0", "--tf", "1.0"],
        ["--dt", "0.0"],
        ["--tf", "inf"],
        ["--t0", "nan"],
        ["--method", "rkf45", "--tol", "0.0"],
        ["--dt", "inf"],
        ["--method", "rkf45", "--tol", "inf"],
    ],
)
def test_simulate_window_errors(gravity_spec, tmp_path, extra, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", str(gravity_spec), "--out", out, *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--samples", "0", "--report", "r.json"],
        ["analyze", "x_translation", "--samples", "-3"],
        ["verify", "--tf", "inf", "--report", "r.json"],
        ["verify", "--tol", "inf", "--report", "r.json"],
        ["verify", "--dt", "inf", "--report", "r.json"],
        ["analyze", "x_translation", "--tol", "inf"],
    ],
)
def test_sampling_and_window_errors_are_usage_errors(
    gravity_spec, tmp_path, monkeypatch, command, capsys
):
    monkeypatch.chdir(tmp_path)
    name, *rest = command
    assert main([name, str(gravity_spec), *rest]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command, code, message",
    [
        (["simulate", "--dt", "1"], 2, "dt=1.0 does not advance t=1e+16"),
        (["simulate", "--method", "rkf45"], 3, "step size underflow at t="),
        (["verify"], 2, "dt=0.01 does not advance t=1e+16"),
    ],
)
def test_a_step_that_cannot_advance_t_is_an_error(
    gravity_spec, tmp_path, monkeypatch, command, code, message, capsys
):
    # floats are 2 apart at 1e16, so neither dt moves t off t0
    monkeypatch.chdir(tmp_path)
    name, *rest = command
    window = ["--t0", "1e16", "--tf", "1.0000000000001e16"]
    assert main([name, str(gravity_spec), *window, *rest]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {message}")


def test_simulate_requires_an_initial_state(bare_spec, tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", str(bare_spec), "--out", out]) == 2
    assert "initial_state" in capsys.readouterr().err


def test_simulate_zero_hamiltonian_is_steady(tmp_path, capsys):
    spec = tmp_path / "still.yaml"
    spec.write_text(
        "n: 1\n"
        "coordinates: [q]\n"
        "hamiltonian: '0'\n"
        "initial_state: {q: 1.0, p_q: 2.0, s: 3.0}\n"
    )
    out = tmp_path / "still.csv"
    assert main(["simulate", str(spec), "--tf", "1.0", "--out", str(out)]) == 0
    assert "n/a (H(t0) = 0)" in capsys.readouterr().out
    traj = read_trajectory_csv(out)
    assert set(traj.column("q")) == {1.0}
    assert set(traj.column("s")) == {3.0}


def test_verify_shipped_spec(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", SHIPPED_SPEC, "--report", str(report)]) == 0
    text = capsys.readouterr().out
    assert "all 8 expectations met" in text
    assert "MISMATCH" not in text
    data = json.loads(report.read_text())
    assert data["all_expectations_met"] is True
    categories = {entry["category"] for entry in data["checks"]}
    assert categories == {"symmetry", "noether", "quantity", "quotient", "map"}


def test_verify_reports_mismatches(tmp_path, capsys):
    doc = yaml.safe_load(Path(SHIPPED_SPEC).read_text())
    for cand in doc["quantities"]:
        if cand["name"] == "momentum_x":
            cand["expect"] = "conserved"
    tampered = tmp_path / "tampered.yaml"
    tampered.write_text(yaml.safe_dump(doc, sort_keys=False))
    report = tmp_path / "report.json"
    assert main(["verify", str(tampered), "--report", str(report)]) == 4
    text = capsys.readouterr().out
    assert "MISMATCH" in text
    data = json.loads(report.read_text())
    assert data["all_expectations_met"] is False
    bad = [entry for entry in data["checks"] if not entry["matched"]]
    assert [entry["name"] for entry in bad] == ["momentum_x"]


def test_verify_reports_quotients_of_verified_pairs_only(tmp_path, capsys):
    # x_position is expected dissipated but observed neither, so neither
    # of its quotients is reported; the report's bytes were written by a
    # verify that checked only the quotients of verified pairs
    doc = yaml.safe_load(Path(SHIPPED_SPEC).read_text())
    for cand in doc["quantities"]:
        if cand["name"] == "x_position":
            cand["expect"] = "dissipated"
    spec = tmp_path / "x_dissipated.yaml"
    spec.write_text(yaml.safe_dump(doc, sort_keys=False))
    report = tmp_path / "report.json"
    assert main(["verify", str(spec), "--report", str(report)]) == 4
    capsys.readouterr()
    checks = json.loads(report.read_text())["checks"]
    quotients = [c["name"] for c in checks if c["category"] == "quotient"]
    assert quotients == ["momentum_x/energy"]
    expected = DATA / "x_position_dissipated.report.json"
    assert report.read_bytes() == expected.read_bytes()


def test_verify_of_the_chain_writes_the_golden_report(tmp_path, capsys):
    # the report of a fresh run, written by an earlier version: building
    # the check trees or the kernels differently must not move a byte
    spec = tmp_path / "chain.yaml"
    write_document(helpers.chain_document(), spec)
    report = tmp_path / "report.json"
    argv = ["verify", str(spec), "--tf", "2", "--dt", "5e-3", "--seed", "3"]
    assert main([*argv, "--report", str(report)]) == 0
    capsys.readouterr()
    assert report.read_bytes() == (DATA / "chain.report.json").read_bytes()


@pytest.mark.parametrize("command", [["verify"], ["analyze", "x_translation"]])
def test_a_negative_seed_is_a_usage_error(gravity_spec, tmp_path, command, capsys):
    name, *rest = command
    report = tmp_path / "r.json"
    argv = [name, str(gravity_spec), *rest, "--seed", "-1"]
    assert main(argv + (["--report", str(report)] if name == "verify" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected non-negative integer\n"
    assert not report.exists()


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_the_report_writer_gives_json_dumps_bytes(path):
    doc = json.loads(path.read_text())
    assert cli._json_text(doc) + "\n" == _dumps(doc) + "\n" == path.read_text()


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
    | st.sampled_from(["µ-ßé", "\u2603\U0001f600", "\"\\\n\t\x00", -0.0, 1e-300, 1e300])
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tree=_JSON_TREES)
def test_the_report_writer_matches_json_dumps_on_any_tree(tree):
    assert cli._json_text(tree) == _dumps(tree)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_the_report_writer_rejects_non_finite_floats(bad):
    for tree in (bad, [1.0, bad], {"a": {"b": (bad,)}}):
        with pytest.raises(ValueError):
            _dumps(tree)
        with pytest.raises(ValueError):
            cli._json_text(tree)


def test_verify_can_reuse_a_trajectory(gravity_spec, tmp_path, capsys):
    csv = tmp_path / "run.csv"
    rc = main(["simulate", str(gravity_spec), "--dt", "1e-2", "--out", str(csv)])
    assert rc == 0
    report = tmp_path / "report.json"
    rc = main(
        ["verify", str(gravity_spec), "--trajectory", str(csv),
         "--report", str(report)]
    )
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["trajectory"]["source"] == str(csv)
    capsys.readouterr()


def test_verify_rejects_a_trajectory_with_non_finite_cells(gravity_spec, tmp_path, capsys):
    csv = tmp_path / "run.csv"
    assert main(["simulate", str(gravity_spec), "--dt", "1e-1", "--out", str(csv)]) == 0
    header, *rows = csv.read_text().splitlines()
    for k, bad in ((2, "nan"), (3, "inf")):
        t, _, rest = rows[k].split(",", 2)
        rows[k] = ",".join((t, bad, rest))
    csv.write_text("\n".join([header, *rows]) + "\n")
    report = tmp_path / "r.json"
    capsys.readouterr()
    rc = main(
        ["verify", str(gravity_spec), "--trajectory", str(csv), "--report", str(report)]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"error: {csv}: line 4: non-finite cell"
    assert not report.exists()


def test_verify_rejects_a_foreign_trajectory(gravity_spec, tmp_path, capsys):
    other = tmp_path / "fp.yaml"
    assert main(["export-model", "damped_free_particle", "--out", str(other)]) == 0
    csv = tmp_path / "fp.csv"
    assert main(["simulate", str(other), "--dt", "1e-2", "--out", str(csv)]) == 0
    report = str(tmp_path / "report.json")
    capsys.readouterr()
    rc = main(
        ["verify", str(gravity_spec), "--trajectory", str(csv), "--report", report]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert "('q', 'p_q', 's')" in line
    assert "('x', 'y', 'p_x', 'p_y', 's')" in line


def test_verify_requires_candidates(bare_spec, tmp_path, capsys):
    rc = main(
        ["verify", str(bare_spec), "--report", str(tmp_path / "r.json")]
    )
    assert rc == 2
    assert "nothing to verify" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("coordinates: [q\n", "line"),                              # yaml error
        ("n: 1\ncoordinates: [q]\nhamiltonian: 'p_q +'\n", "hamiltonian"),
        ("n: 1\nhamiltonian: p_q\n", "coordinates"),                # missing field
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            "quantities: [{name: z, expression: zeta, expect: neither}]\n",
            "quantities[0] (z): unknown identifier 'zeta'",
        ),
        ("n: 1\ncoordinates: [q]\x07\n", "unacceptable character"),  # reader error
        ("- n: 1\n", "document root must be a mapping"),
        ("n: true\ncoordinates: [q]\nhamiltonian: p_q\n", "n: expected a positive integer"),
        ("n: 0\ncoordinates: []\nhamiltonian: s\n", "n: expected a positive integer"),
        ("n: 1\ncoordinates: q\nhamiltonian: p_q\n", "coordinates: must be a list of names"),
        ("n: 2\ncoordinates: [q]\nhamiltonian: p_q\n", "n: declared n=2 but coordinates lists 1"),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\nparameters: [1]\n",
            "parameters: must be a mapping",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\nparameters: {1: 2}\n",
            "parameters: name must be a non-empty string",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\nparameters: {g: fast}\n",
            "parameters.g: expected a number, got 'fast'",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\nparameters: {g: .inf}\n",
            "parameters.g: value must be finite",
        ),
        ("n: 1\ncoordinates: [q]\nhamiltonian: 3\n", "hamiltonian: must be expression source"),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\ninitial_state: [0, 1, 0]\n",
            "initial_state: must be a mapping",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\ninitial_state: {q: 0}\n",
            "initial_state: missing entries for ['p_q', 's']",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            "initial_state: {q: 0, p_q: 1, s: 0, w: 2}\n",
            "initial_state: unknown variables ['w']",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            "quantities: [{expression: q, expect: neither}]\n",
            "quantities[0]: name must be a non-empty string",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            "quantities: [{name: z, expression: [q], expect: neither}]\n",
            "quantities[0] (z): expression: expected expression source text",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            "symmetries: [{name: y, components: [q], expect: contact}]\n",
            "symmetries[0] (y): components must be a mapping",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            "maps: [{name: f, components: {w: q}, expect: contact}]\n",
            "maps[0] (f): map 'f' has components for unknown chart names: ['w'] "
            "(chart is q, p_q, s)",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            "symmetries: [{name: y, components: {1: q, w: q}, expect: contact}]\n",
            "symmetries[0] (y): field 'y' has components for unknown chart names: "
            "['w', 1] (chart is q, p_q, s)",
        ),
        pytest.param(
            f"n: {_BIG}\ncoordinates: [q]\nhamiltonian: p_q\n",
            "n: integer is outside the float range",
            id="400-digit-n",
        ),
        pytest.param(
            f"n: -{_BIG}\ncoordinates: [q]\nhamiltonian: p_q\n",
            "n: integer is outside the float range",
            id="400-digit-negative-n",
        ),
        pytest.param(
            f"n: 1\ncoordinates: [q]\nhamiltonian: p_q\nparameters: {{g: {_BIG}}}\n",
            "parameters.g: integer is outside the float range",
            id="400-digit-parameter",
        ),
        pytest.param(
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            f"initial_state: {{q: {_BIG}, p_q: 1, s: 0}}\n",
            "initial_state.q: integer is outside the float range",
            id="400-digit-initial-state",
        ),
        pytest.param(
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            f"symmetries: [{{name: y, components: {{q: {_BIG}}}, expect: contact}}]\n",
            "symmetries[0] (y): components.q: integer is outside the float range",
            id="400-digit-component",
        ),
        pytest.param(
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            f"quantities: [{{name: z, expression: {_BIG}, expect: neither}}]\n",
            "quantities[0] (z): expression: integer is outside the float range",
            id="400-digit-expression",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            "quantities: [{name: z, expression: 1.0e+400, expect: neither}]\n",
            "quantities[0] (z): expression: value must be finite, got inf",
        ),
        pytest.param(
            f"n: 1\ncoordinates: [q]\nhamiltonian: p_q\nparameters: {{g: {_HUGE}}}\n",
            "Exceeds the limit (4300 digits) for integer string conversion",
            id="5000-digit-parameter",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            "quantities: [{name: z, expression: q, expect: constant}]\n",
            "quantities[0] (z): expect must be one of conserved, dissipated, neither",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\n"
            "quantities: [{name: z, expression: q, expect: neither},"
            " {name: z, expression: p_q, expect: neither}]\n",
            "quantities: candidate names must be unique",
        ),
        (
            "n: 1\ncoordinates: [q]\nhamiltonian: p_q\nsymmetries: [q]\n",
            "symmetries: must be a list of mappings",
        ),
        ("n: 1\ncoordinates: ['1x']\nhamiltonian: s\n", "coordinates: invalid name '1x'"),
        pytest.param(
            "n: 1\ncoordinates: [q]\nhamiltonian: " + "(" * 5000 + "p_q" + ")" * 5000 + "\n",
            "hamiltonian: expression nests too deeply (position 100)",
            id="5000-parentheses",
        ),
        (
            "n: 1\ncoordinates: [q]\nparameters: {sin: 1.0}\nhamiltonian: s\n",
            "parameters: name 'sin' shadows a built-in function",
        ),
        (
            "n: 1\ncoordinates: [s]\nhamiltonian: p_s\n",
            "coordinates: 's' is reserved for the action variable",
        ),
        (
            "n: 1\ncoordinates: [q]\nparameters: {q: 1.0}\nhamiltonian: s\n",
            "parameters: parameters shadow chart names: ['q']",
        ),
        *[
            pytest.param(
                f"n: 1\ncoordinates: [q]\nparameters: {value}\nhamiltonian: p_q\n",
                "parameters: must be a mapping of name to number",
                id=f"parameters-{value}",
            )
            for value in ("[]", "0", "false", "''")
        ],
    ],
)
def test_verify_spec_errors(tmp_path, capsys, content, fragment):
    spec = tmp_path / "broken.yaml"
    spec.write_text(content)
    assert main(["verify", str(spec), "--report", str(tmp_path / "r.json")]) == 2
    assert fragment in capsys.readouterr().err


def test_verify_missing_file(tmp_path, capsys):
    rc = main(
        ["verify", str(tmp_path / "absent.yaml"),
         "--report", str(tmp_path / "r.json")]
    )
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "content, fragment",
    [
        (None, "No such file"),
        ("t,x,y,p_x,p_y,s,H\n0,0,0,1,0,oops,0\n", "line 2: non-numeric cell"),
        ("t,x,y,p_x,p_y,s,H\n", "no data rows"),
    ],
    ids=["missing", "non-numeric", "header-only"],
)
def test_verify_reports_an_unreadable_trajectory_as_a_usage_error(
    gravity_spec, tmp_path, capsys, content, fragment
):
    csv = tmp_path / "run.csv"
    if content is not None:
        csv.write_text(content)
    rc = main(
        ["verify", str(gravity_spec), "--trajectory", str(csv),
         "--report", str(tmp_path / "r.json")]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert "run.csv" in line and fragment in line
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", SHIPPED_SPEC, "--tf", "0.1", "--out", "{out}"],
        ["verify", SHIPPED_SPEC, "--tf", "0.1", "--report", "{out}"],
        ["export-model", "gravity_friction", "--out", "{out}"],
    ],
    ids=["simulate", "verify", "export-model"],
)
def test_an_output_file_that_cannot_be_written_is_a_usage_error(
    tmp_path, capsys, command
):
    out = tmp_path / "missing" / "out.txt"
    assert main([arg.format(out=out) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and str(out) in line
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", SHIPPED_SPEC, "--out", "{out}"],
        ["simulate", SHIPPED_SPEC, "--method", "rkf45", "--out", "{out}"],
        ["verify", SHIPPED_SPEC, "--report", "{out}"],
    ],
    ids=["simulate", "simulate-rkf45", "verify"],
)
def test_a_missing_output_directory_fails_before_integrating(
    tmp_path, capsys, monkeypatch, command
):
    def unreachable(*args, **kwargs):
        raise AssertionError("integrated before checking the output")

    monkeypatch.setattr(cli, "integrate_fixed", unreachable)
    monkeypatch.setattr(cli, "integrate_adaptive", unreachable)
    out = tmp_path / "missing" / "out.txt"
    assert main([arg.format(out=out) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"error: cannot write {out}: {out.parent} is not a directory"
    assert not out.parent.exists()


def test_export_model_into_a_missing_directory_fails_as_simulate_does(
    tmp_path, capsys, monkeypatch
):
    def unreachable(*args, **kwargs):
        raise AssertionError("wrote before checking the output")

    monkeypatch.setattr(cli, "write_document", unreachable)
    out = tmp_path / "missing" / "osc.yaml"
    assert main(["export-model", "damped_oscillator", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"error: cannot write {out}: {out.parent} is not a directory"
    assert not out.parent.exists()


def _without_libyaml(monkeypatch):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


def _document_fields(doc) -> tuple:
    return (
        repr(doc.system),
        doc.initial_state,
        doc.symmetries,
        doc.quantities,
        doc.maps,
    )


@pytest.mark.parametrize(
    "name", ["shipped", "gravity_friction", "damped_oscillator", "damped_free_particle"]
)
def test_both_yaml_loaders_give_equal_documents(name, tmp_path, monkeypatch):
    if name == "shipped":
        spec = Path(SHIPPED_SPEC)
    else:
        spec = tmp_path / f"{name}.yaml"
        assert main(["export-model", name, "--out", str(spec)]) == 0
    with_libyaml = load_document(spec)
    _without_libyaml(monkeypatch)
    assert _document_fields(load_document(spec)) == _document_fields(with_libyaml)


def test_libyaml_parses_when_present(monkeypatch):
    fast = getattr(yaml, "CSafeLoader", None)
    if fast is None:
        pytest.skip("PyYAML is built without libyaml")
    made = []

    class Counting(fast):
        def __init__(self, stream):
            made.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Counting)
    load_document(SHIPPED_SPEC)
    assert len(made) == 1


@pytest.mark.parametrize(
    "content",
    [
        "coordinates: [q\n",
        "n: 1\ncoordinates: x: y\n",
        "hamiltonian: 'p_q\n",
        "- a\nb: 1\n",
        "n: 1\n\tcoordinates: [q]\n",
        "n: &a 1\nm: *b\n",
        "n: 1\nn: {\n",
    ],
)
def test_yaml_errors_read_the_same_with_or_without_libyaml(
    content, tmp_path, monkeypatch
):
    spec = tmp_path / "broken.yaml"
    spec.write_text(content)
    with pytest.raises(SpecError) as fast:
        load_document(spec)
    _without_libyaml(monkeypatch)
    with pytest.raises(SpecError) as slow:
        load_document(spec)
    assert str(fast.value) == str(slow.value)
    assert str(fast.value).startswith(f"{spec}: ")


def test_analyze_contact_symmetry(capsys):
    assert main(["analyze", SHIPPED_SPEC, "x_translation"]) == 0
    text = capsys.readouterr().out
    assert "classification: contact symmetry" in text
    assert "generated quantity: p_x" in text
    assert "dissipated" in text
    assert "conserved ratio" in text


def test_analyze_runs_one_column_kernel_on_the_sampled_states(monkeypatch, capsys):
    # H, the contact trees and the bracket are the three groups of one
    # kernel on the sampled states, and the Noether quantity the one
    # group of another on the trajectory: H is read from the kernel that
    # classified the field, not from a kernel of its own
    groups = []
    compile_kernel = ex._compile_kernel

    def recording(result, *args):
        if isinstance(result, list):
            groups.append(len(result))
        return compile_kernel(result, *args)

    monkeypatch.setattr(ex, "_compile_kernel", recording)
    assert main(["analyze", SHIPPED_SPEC, "x_translation"]) == 0
    assert "conserved ratio" in capsys.readouterr().out
    assert groups == [3, 1]


def test_a_fresh_verify_compiles_one_scalar_kernel(
    gravity_spec, tmp_path, monkeypatch, capsys
):
    # the flow's: the checks run column kernels, and the final state's H
    # is evaluated by folding, so no H kernel is compiled for a run that
    # writes no CSV
    sources = []

    def counting(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(ex, "compile", counting, raising=False)
    report = tmp_path / "report.json"
    assert main(["verify", str(gravity_spec), "--report", str(report)]) == 0
    capsys.readouterr()
    assert len(sources) == 1


def test_analyze_non_symmetry(capsys):
    assert main(["analyze", SHIPPED_SPEC, "s_translation"]) == 0
    text = capsys.readouterr().out
    assert "classification: not a symmetry" in text
    assert "no dissipation guarantee" in text


@pytest.mark.parametrize("extra", [["--dt", "0"], ["--tf", "-1"]])
def test_analyze_rejects_a_bad_window_before_any_output(extra, capsys):
    assert main(["analyze", SHIPPED_SPEC, "x_translation", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


OSCILLATOR_SPEC = """\
n: 2
coordinates: [x, y]
parameters: {k: 1.0, gamma: 0.5}
hamiltonian: (p_x^2 + p_y^2)/2 + k*(x^2 + y^2)/2 + gamma*s
initial_state: {x: 1.0, y: 0.5, p_x: -0.5, p_y: 1.0, s: 0.0}
symmetries:
- name: rotation
  components: {x: -y, y: x, p_x: -p_y, p_y: p_x}
  expect: contact
- name: dilation
  components: {x: x, y: y}
  expect: neither
maps:
- name: rotation_map
  components:
    x: 0.6*x - 0.8*y
    y: 0.8*x + 0.6*y
    p_x: 0.6*p_x - 0.8*p_y
    p_y: 0.8*p_x + 0.6*p_y
  expect: contact
"""


def test_verify_candidates_with_non_constant_components(tmp_path, capsys):
    # every shipped candidate is constant, which a wrong sign in a
    # derivative term of the bracket or of L_Y eta would still pass
    spec = tmp_path / "oscillator.yaml"
    spec.write_text(OSCILLATOR_SPEC)
    report = tmp_path / "report.json"
    assert main(["verify", str(spec), "--report", str(report)]) == 0
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["all_expectations_met"] is True
    observed = {entry["name"]: entry["observed"] for entry in data["checks"]}
    assert observed == {
        "rotation": "contact",
        "dilation": "neither",
        "noether[rotation]": "dissipated",
        "rotation_map": "contact",
    }


# Y = X_H written out: [X_H, X_H] = 0, but L_{X_H}eta = -gamma*eta, so it
# is a dynamical symmetry and not a contact one; the quantity 0 is both
# conserved and dissipated.
HAMILTONIAN_FIELD_SPEC = """\
n: 2
coordinates: [x, y]
parameters: {m: 1.0, g: 9.8, gamma: 0.5}
hamiltonian: (p_x^2 + p_y^2)/(2*m) + m*g*y + gamma*s
initial_state: {x: 0.0, y: 0.0, p_x: 1.0, p_y: 1.0, s: 0.0}
symmetries:
- name: flow
  components:
    x: p_x/m
    y: p_y/m
    p_x: -gamma*p_x
    p_y: -(m*g + gamma*p_y)
    s: (p_x^2 + p_y^2)/(2*m) - m*g*y - gamma*s
  expect: dynamical
quantities:
- name: zero
  expression: '0'
  expect: conserved
"""


def test_verify_and_analyze_a_dynamical_symmetry(tmp_path, capsys):
    spec = tmp_path / "flow.yaml"
    spec.write_text(HAMILTONIAN_FIELD_SPEC)
    reports = [tmp_path / "first.json", tmp_path / "second.json"]
    for report in reports:
        assert main(["verify", str(spec), "--report", str(report)]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    capsys.readouterr()
    data = json.loads(reports[0].read_text())
    assert data["all_expectations_met"] is True
    observed = {entry["name"]: entry["observed"] for entry in data["checks"]}
    assert observed == {
        "flow": "dynamical",
        "noether[flow]": "dissipated",
        "zero": "both",
    }
    assert main(["analyze", str(spec), "flow"]) == 0
    text = capsys.readouterr().out
    assert "classification: dynamical symmetry, not contact" in text
    assert "no dissipation guarantee" not in text


# L_Y H = 5e-9 cos(1000 q) passes at tol 1e-8, while [Y, X_H] carries
# 5e-6 sin(1000 q) from the second derivative of the ripple, so the two
# checks disagree, which exact arithmetic rules out.
INCONSISTENT_SPEC = """\
n: 1
coordinates: [q]
parameters: {gamma: 0.5}
hamiltonian: p_q^2/2 + gamma*s + 5e-12*sin(1000*q)
initial_state: {q: 0.1, p_q: 1.0, s: 0.0}
symmetries:
- name: q_shift
  components: {q: "1"}
  expect: contact
"""


def test_verify_and_analyze_report_an_inconsistent_symmetry(tmp_path, capsys):
    spec = tmp_path / "ripple.yaml"
    spec.write_text(INCONSISTENT_SPEC)
    reports = [tmp_path / "first.json", tmp_path / "second.json"]
    for report in reports:
        assert main(["verify", str(spec), "--report", str(report)]) == 4
    assert reports[0].read_bytes() == reports[1].read_bytes()
    out = capsys.readouterr().out
    assert (
        "symmetry q_shift: observed inconsistent, expected contact [MISMATCH]"
        in out.splitlines()
    )
    (entry,) = json.loads(reports[0].read_text())["checks"]
    assert entry["observed"] == "inconsistent"
    assert entry["contact"]["verdict"] == "pass"
    assert entry["dynamical"]["verdict"] == "fail"

    assert main(["analyze", str(spec), "q_shift"]) == 0
    contact, dynamical = entry["contact"], entry["dynamical"]
    assert (
        f"classification: inconsistent, contact but not dynamical "
        f"(contact residual {contact['max_residual']:.3e}, "
        f"bracket residual {dynamical['max_residual']:.3e}, tol 1e-08)"
    ) in capsys.readouterr().out.splitlines()


def test_verify_and_analyze_share_the_check_option_defaults():
    parser = cli._build_parser()
    verify = vars(parser.parse_args(["verify", "spec.yaml"]))
    analyze = vars(parser.parse_args(["analyze", "spec.yaml", "field"]))
    shared = ("spec", "t0", "tf", "dt", "tol", "seed", "samples")
    assert {k: verify[k] for k in shared} == {k: analyze[k] for k in shared}
    assert {k: verify[k] for k in shared} == {
        "spec": "spec.yaml", "t0": 0.0, "tf": 10.0, "dt": 1e-2, "tol": 1e-8,
        "seed": 42, "samples": 100,
    }


def test_runtime_imports_no_test_only_oracles(tmp_path):
    report = tmp_path / "report.json"
    script = (
        "import sys\n"
        "import contactmech\n"
        "from contactmech.cli import main\n"
        f"assert main(['verify', {SHIPPED_SPEC!r}, '--report', {str(report)!r}]) == 0\n"
        "print(sorted({'sympy', 'scipy', 'mpmath'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert report.exists()


def test_analyze_unknown_field(capsys):
    assert main(["analyze", SHIPPED_SPEC, "warp"]) == 2
    assert "known:" in capsys.readouterr().err


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "contactmech", "list-models"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gravity_friction" in proc.stdout


def test_divergence_exits_3_naming_the_state(tmp_path, capsys):
    spec = tmp_path / "blowup.yaml"
    spec.write_text(
        "n: 1\n"
        "coordinates: [q]\n"
        "hamiltonian: s^2\n"
        "initial_state: {q: 0.0, p_q: 0.0, s: -1.0}\n"
    )
    out = tmp_path / "blowup.csv"
    rc = main(["simulate", str(spec), "--tf", "2", "--dt", "0.01",
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "last good state at t=" in err
    assert ": q=0.0, p_q=0.0, s=" in err


SQRT_SPEC = """\
n: 1
coordinates: [q]
parameters: {gamma: 0.5}
hamiltonian: p_q^2/2 + sqrt(q) + gamma*s
symmetries:
- name: action_shift
  components: {s: "1"}
  expect: neither
"""


def test_analyze_reports_states_where_h_is_undefined(tmp_path, capsys):
    # sqrt(q) fails on the sampled states with q < 0; no initial_state,
    # so the H scan is the first evaluation of H itself
    spec = tmp_path / "sqrt.yaml"
    spec.write_text(SQRT_SPEC)
    assert main(["analyze", str(spec), "action_shift"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    system = load_document(spec).system
    undefined = sum(q < 0.0 for q in sample_states(system, 100, seed=42)[:, 0].tolist())
    assert 0 < undefined < 100
    assert captured.out.splitlines()[-1] == (
        f"H is undefined on {undefined} of 100 sampled states; "
        f"conserved ratio skipped"
    )


def test_successive_calls_behave_as_with_a_fresh_parser(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "gravity.yaml"
    runs = [
        ["list-models"],
        ["export-model", "gravity_friction", "--out", str(spec)],
        ["simulate", str(spec), "--tf"],  # argparse usage error
        ["analyze", SHIPPED_SPEC, "x_translation"],
        ["export-model", "no_such_model"],  # usage error from the command
        ["verify", SHIPPED_SPEC, "--samples", "5", "--report", str(tmp_path / "r.json")],
        ["list-models"],
    ]

    def outcomes():
        results = []
        for argv in runs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results

    parser = cli._build_parser()
    shared = outcomes()
    assert cli._build_parser() is parser
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outcomes() == shared
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 0]


UNDEFINED_SPEC = """\
n: 1
coordinates: [q]
parameters: {gamma: 0.5}
hamiltonian: p_q^2/2 + sqrt(q - 10) + gamma*s
initial_state: {q: 11, p_q: 1, s: 0}
symmetries:
- name: s_shift
  components: {s: "1"}
  expect: neither
quantities:
- name: p_q
  expression: p_q
  expect: neither
"""


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_verify_writes_null_statistics_when_every_sample_fails(tmp_path, capsys):
    # H is undefined at every sampled state (all have q < 10), so both
    # symmetry reports have no samples; the trajectory stays at q > 10
    spec = tmp_path / "undefined.yaml"
    spec.write_text(UNDEFINED_SPEC)
    report = tmp_path / "r.json"
    rc = main(["verify", str(spec), "--tf", "1", "--report", str(report)])
    assert rc in (0, 4)
    capsys.readouterr()
    text = report.read_text()
    symmetry, quantity = json.loads(text, parse_constant=_reject_constant)["checks"]
    for entry in (symmetry["contact"], symmetry["dynamical"]):
        assert (entry["samples"], entry["failed_samples"]) == (0, 100)
        assert entry["max_residual"] is None and entry["mean_residual"] is None
    assert text.count("null") == 4
    assert quantity["report"]["conserved"]["max_residual"] == 1.0


OVERFLOWING_QUOTIENT_SPEC = """\
n: 1
coordinates: [q]
hamiltonian: p_q^2/2
initial_state: {q: 0.5, p_q: 1.0, s: 0}
quantities:
- {name: huge, expression: "1e300", expect: dissipated}
- {name: tiny, expression: "1e-300", expect: dissipated}
"""

OVERFLOWING_RATE_SPEC = """\
n: 1
coordinates: [q]
hamiltonian: p_q^2/2 + 1e200*s
quantities:
- {name: big, expression: "1e200", expect: dissipated}
"""


@pytest.mark.parametrize(
    "content, name",
    [(OVERFLOWING_QUOTIENT_SPEC, "huge/tiny"), (OVERFLOWING_RATE_SPEC, "big")],
    ids=["quotient", "rate"],
)
def test_a_constant_that_overflows_when_built_is_checked(tmp_path, capsys, content, name):
    # 1e300/1e-300, and the rate term dH/ds * F = 1e200*1e200, overflow
    # when their trees are built: each stays an operation, and verify
    # writes a strict-JSON report with the check in it.  The rate spec
    # runs on the other spec's trajectory, on the same chart, since its
    # own flow overflows
    csv = tmp_path / "t.csv"
    quotient = tmp_path / "quotient.yaml"
    quotient.write_text(OVERFLOWING_QUOTIENT_SPEC)
    assert main(["simulate", str(quotient), "--tf", "1", "--out", str(csv)]) == 0
    spec = tmp_path / "spec.yaml"
    spec.write_text(content)
    report = tmp_path / "r.json"
    argv = ["verify", str(spec), "--trajectory", str(csv), "--report", str(report)]
    assert main(argv) in (0, 4)
    capsys.readouterr()
    checks = json.loads(report.read_text(), parse_constant=_reject_constant)["checks"]
    assert name in [entry["name"] for entry in checks]


@pytest.mark.parametrize(
    "entry, check",
    [
        (
            "symmetries: [{name: q_shift, components: {q: 1}, expect: contact}]\n",
            lambda doc: doc.symmetries[0].field.components == (literal(1.0),)
            + (literal(0.0),) * 2,
        ),
        (
            "symmetries: [{name: none, components: null, expect: contact}]\n",
            lambda doc: doc.symmetries[0].field.components == (literal(0.0),) * 3,
        ),
        (
            "maps: [{name: identity, components: null, expect: contact}]\n",
            lambda doc: doc.maps[0].point_map.components
            == tuple(map(variable, doc.system.chart_names)),
        ),
        (
            "quantities: null\nmaps: [{name: identity, expect: contact}]\n",
            lambda doc: doc.quantities == () and len(doc.maps) == 1,
        ),
    ],
    ids=["number-component", "null-components", "null-map-components", "null-quantities"],
)
def test_spec_forms_that_take_a_default(tmp_path, entry, check):
    spec = tmp_path / "forms.yaml"
    spec.write_text("n: 1\ncoordinates: [q]\nhamiltonian: p_q^2/2 + s\n" + entry)
    assert check(load_document(spec))


def test_analyze_skips_the_ratio_where_h_vanishes(tmp_path, capsys):
    spec = tmp_path / "zero.yaml"
    spec.write_text(
        "n: 1\ncoordinates: [q]\nhamiltonian: '0'\n"
        "symmetries: [{name: q_shift, components: {q: '1'}, expect: contact}]\n"
    )
    assert main(["analyze", str(spec), "q_shift"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == (
        "H vanishes on sampled states; conserved ratio skipped"
    )
