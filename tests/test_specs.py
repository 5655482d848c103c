"""The shipped specs tell right geometry from wrong.

Every expectation in `specs/` is derived here in sympy, as an exact
identity at the spec's parameters, with each decimal literal read as
the exact decimal it is written as (0.6 is 3/5).  Then seven one-line
mutants, one per geometric term, are applied by monkeypatching the
tree builder that owns the term: under each of them `verify` must
report at least one expectation of `specs/` as not met.
"""

from __future__ import annotations

import __future__
import inspect
import json
import sys
import textwrap
from pathlib import Path

import pytest
import sympy

from contactmech import ContactSystem, load_document
from contactmech import analysis, calculus
from contactmech.cli import main
from test_oracles import Formulas

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.yaml"))


class ExactFormulas(Formulas):
    """The coordinate formulas with decimal literals read as exact
    decimals, so that a rotation by (3/5, 4/5) is exactly one."""

    def sympy(self, expression):
        names = {str(sym): sym for sym in self.x + self.params}
        return sympy.sympify(
            str(expression).replace("^", "**"),
            locals={**names, "abs": sympy.Abs},
            rational=True,
        )


def _vanishes(exprs, values) -> bool:
    return all(sympy.simplify(sympy.sympify(e).subs(values)) == 0 for e in exprs)


def _derived_labels(doc) -> dict:
    """(category, name) -> the label exact algebra gives each entry."""
    formulas = ExactFormulas(doc.system)
    values = {
        sym: sympy.Rational(str(value))
        for sym, value in zip(formulas.params, doc.system.parameters.values())
    }
    h_field = formulas.hamiltonian_field()
    labels = {}
    for symmetry in doc.symmetries:
        y = formulas.field(symmetry.field)
        contact = _vanishes(formulas.lie_form(y) + [formulas.lie_scalar(y, formulas.H)], values)
        dynamical = _vanishes(formulas.bracket(y, h_field), values)
        label = "contact" if contact else ("dynamical" if dynamical else "neither")
        labels["symmetry", symmetry.name] = label
    for quantity in doc.quantities:
        conserved, dissipated = (
            _vanishes([r], values)
            for r in formulas.dissipation(formulas.sympy(quantity.quantity.expression))
        )
        label = {(True, True): "both", (True, False): "conserved",
                 (False, True): "dissipated", (False, False): "neither"}
        labels["quantity", quantity.name] = label[conserved, dissipated]
    for point_map in doc.maps:
        image = [formulas.sympy(c) for c in point_map.point_map.components]
        contact = _vanishes(formulas.map_deviation(image), values)
        labels["map", point_map.name] = "contact" if contact else "neither"
    return labels


@pytest.mark.parametrize("spec", SPECS, ids=lambda path: path.stem)
def test_sympy_derives_every_expectation_of_the_spec(spec):
    doc = load_document(spec)
    expected = {("symmetry", s.name): s.expect for s in doc.symmetries}
    expected.update({("quantity", q.name): q.expect for q in doc.quantities})
    expected.update({("map", m.name): m.expect for m in doc.maps})
    assert _derived_labels(doc) == expected


#: One term of the geometry each: (owner, function, its code as written,
#: the mutant's).  The first three were caught by the benchmark's specs
#: already; the other four only by specs whose candidates vary on the
#: chart and move the momenta.
MUTANTS = {
    "dissipation_rate_sign": (
        calculus, "_dissipation_trees",
        "ex.add(rate, ex.mul(h_s, f))", "ex.sub(rate, ex.mul(h_s, f))",
    ),
    "hamiltonian_ds_sign": (
        ContactSystem, "__init__", "ex.sub(ds, hamiltonian)", "ex.add(ds, hamiltonian)",
    ),
    "rate_sum_last_term_dropped": (
        calculus, "_rate_trees", "in weights if", "in weights[:-1] if",
    ),
    "bracket_second_term_sign": (calculus, "_bracket_trees", "map(ex.sub,", "map(ex.add,"),
    "lie_eta_pullback_sign": (
        calculus, "_lie_eta_trees", "map(ex.add, _pullback", "map(ex.sub, _pullback",
    ),
    "pullback_last_term_dropped": (
        calculus, "_pullback", "in terms if", "in terms[:-1] if",
    ),
    "eta_momentum_sign": (calculus, "_eta", "ex.neg(p) for p", "p for p"),
}


def _mutate(monkeypatch, owner, name: str, code: str, mutant: str) -> None:
    """Replace `owner.name`, and every import of it by name, with its
    source compiled with `code` replaced by `mutant`."""
    original = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(code) == 1, f"{name} no longer holds {code!r}"
    module = sys.modules[original.__module__]
    namespace = dict(vars(module))
    exec(compile(source.replace(code, mutant), module.__file__, "exec",
                 __future__.annotations.compiler_flag, dont_inherit=True), namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    for importer in (analysis, calculus):
        if getattr(importer, name, None) is original:
            monkeypatch.setattr(importer, name, namespace[name])


def _mismatches(tmp_path, capsys) -> set:
    """(spec, entry) of every expectation `verify` reports as not met."""
    missed = set()
    for spec in SPECS:
        report = tmp_path / f"{spec.stem}.json"
        assert main(["verify", str(spec), "--report", str(report)]) in (0, 4)
        capsys.readouterr()
        checks = json.loads(report.read_text())["checks"]
        missed.update((spec.stem, c["name"]) for c in checks if not c["matched"])
    return missed


def test_every_shipped_expectation_is_met(tmp_path, capsys):
    assert _mismatches(tmp_path, capsys) == set()


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_geometry_mutant_flips_a_shipped_expectation(
    mutant, tmp_path, capsys, monkeypatch
):
    _mutate(monkeypatch, *MUTANTS[mutant])
    assert _mismatches(tmp_path, capsys)
