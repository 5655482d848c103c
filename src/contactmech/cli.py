"""Operator entry point.

Subcommands: simulate (trajectory CSV), verify (expectation-checked
report), analyze (one symmetry candidate in depth), list-models, and
export-model (write a built-in model as a spec document).

Exit codes: 0 success, 2 spec/usage error or a file that cannot be read
or written, 3 integration failure, 4 verification expectation mismatch
(the report is still written).  Argument checks are the library's own;
see `_checked`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .analysis import (
    DEFAULT_TOLERANCE,
    _run_checks,
    check_quantity,
    conserved_from_symmetry,
    noether_quantity,
    quotient_quantity,
    sample_states,
)
from .integrate import (
    IntegrationError,
    _check_trajectory_chart,
    _require_positive,
    _state_text,
    integrate_adaptive,
    integrate_fixed,
    read_trajectory_csv,
    write_trajectory_csv,
)
from .models import ModelError, list_models
from .specdoc import (
    SpecDocument,
    SpecError,
    document_for_model,
    load_document,
    write_document,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTEGRATION = 3
EXIT_MISMATCH = 4


class _UsageError(Exception):
    pass


def _checked(call, *args, **kwargs):
    """Run a library call that raises ValueError on a bad argument,
    reporting it as a usage error."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _integrate(doc: SpecDocument, args, integrate, step: float):
    """The trajectory from the document's initial state over the window of
    `args`, by `integrate` (integrate_fixed or integrate_adaptive) with
    `step`, its dt or tol."""
    if doc.initial_state is None:
        raise _UsageError(
            f"{args.spec}: spec declares no initial_state; one is required "
            f"to integrate"
        )
    return _checked(
        integrate, doc.system, doc.initial_state, args.t0, args.tf, step
    )


def _require_directory(path) -> None:
    """Fail before any work when ``path`` cannot be written because its
    directory does not exist."""
    directory = Path(path).parent
    if not directory.is_dir():
        raise _UsageError(f"cannot write {path}: {directory} is not a directory")


def cmd_simulate(args) -> int:
    doc = load_document(args.spec)
    _require_directory(args.out)
    if args.method == "rk4":
        if args.tol is not None:
            raise _UsageError("--tol applies only to --method rkf45")
        dt = 1e-3 if args.dt is None else args.dt
        traj = _integrate(doc, args, integrate_fixed, dt)
    else:
        if args.dt is not None:
            raise _UsageError("--dt applies only to --method rk4")
        tol = 1e-9 if args.tol is None else args.tol
        traj = _integrate(doc, args, integrate_adaptive, tol)

    write_trajectory_csv(doc.system, traj, args.out)

    system = doc.system
    last = traj.point(-1)
    h0 = system.hamiltonian_value(traj.point(0))
    hf = system.hamiltonian_value(last)
    print(f"method: {traj.method}")
    print(f"steps: {traj.accepted} accepted, {traj.rejected} rejected")
    print(f"final state (t={traj._times[-1]!r}): {_state_text(traj.names, last)}")
    decay = repr(hf / h0) if h0 != 0.0 else "n/a (H(t0) = 0)"
    print(f"H(t0)={h0!r}  H(tf)={hf!r}  decay factor: {decay}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _observed_symmetry(contact, dynamical) -> str:
    """The label of a field's two reports; "inconsistent", a contact pass
    with a dynamical failure, which exact arithmetic rules out, matches
    no expectation."""
    if contact.passed:
        return "contact" if dynamical.passed else "inconsistent"
    return "dynamical" if dynamical.passed else "neither"


#: how `analyze` states each label of `_observed_symmetry`
_CLASSIFICATIONS = {
    "contact": "contact symmetry",
    "dynamical": "dynamical symmetry, not contact",
    "neither": "not a symmetry",
    "inconsistent": "inconsistent, contact but not dynamical",
}


def _quantity_matches(expect: str, classification: str) -> bool:
    if classification == "both":
        return expect in ("conserved", "dissipated")
    return classification == expect


def _json_text(value, indent: str = "\n") -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)` writes it, for str keys: the same bytes without the
    pure-Python encoder that an indent selects."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"float {value!r} is not JSON compliant")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    if isinstance(value, dict):
        items = [f"{_quote(k)}: {_json_text(value[k], inner)}" for k in sorted(value)]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def cmd_verify(args) -> int:
    doc = load_document(args.spec)
    if doc.candidate_count == 0:
        raise _UsageError(
            f"{args.spec}: spec declares no symmetry, quantity, or map "
            f"candidates; nothing to verify"
        )
    _require_directory(args.report)
    _checked(_require_positive, "tol", args.tol)
    system = doc.system
    states = _checked(sample_states, system, count=args.samples, seed=args.seed)

    if args.trajectory is not None:
        traj = _checked(read_trajectory_csv, args.trajectory)
        _checked(_check_trajectory_chart, system, traj)
        traj_meta = {"source": str(args.trajectory), "samples": len(traj)}
    else:
        traj = _integrate(doc, args, integrate_fixed, args.dt)
        traj_meta = {
            "source": "fresh-run",
            "method": traj.method,
            "t0": float(args.t0),
            "tf": float(args.tf),
            "dt": float(args.dt),
            "samples": len(traj),
        }

    checks, lines = [], []  # the lines print once the report is written

    def add(category, name, expected, observed, matched, **extra):
        entry = {
            "category": category,
            "name": name,
            "expected": expected,
            "observed": observed,
            "matched": bool(matched),
        }
        entry.update(extra)
        checks.append(entry)
        status = "ok" if matched else "MISMATCH"
        lines.append(
            f"{category} {name}: observed {observed}, expected {expected} [{status}]"
        )

    def add_quantity(category, quantity, report, expected, **extra) -> bool:
        matched = _quantity_matches(expected, report.classification)
        add(
            category,
            quantity.name,
            expected,
            report.classification,
            matched,
            expression=str(quantity.expression),
            report=report.as_dict(),
            **extra,
        )
        return matched

    # one column kernel per set of states: every check on the samples,
    # then every quantity along the trajectory with the quotients of each
    # pair expected dissipated, of which those whose two members matched
    # are reported
    symmetry_reports, _, map_reports, _ = _run_checks(
        system,
        states,
        args.tol,
        fields=[cand.field for cand in doc.symmetries],
        maps=[cand.point_map for cand in doc.maps],
    )
    dynamical_passers = []
    for cand, (contact, dynamical) in zip(doc.symmetries, symmetry_reports):
        observed = _observed_symmetry(contact, dynamical)
        add(
            "symmetry",
            cand.name,
            cand.expect,
            observed,
            observed == cand.expect,
            contact=contact.as_dict(),
            dynamical=dynamical.as_dict(),
        )
        if dynamical.passed:
            dynamical_passers.append(cand)

    noether = [noether_quantity(system, cand.field) for cand in dynamical_passers]
    declared = [cand.quantity for cand in doc.quantities]
    dissipated = [cand for cand in doc.quantities if cand.expect == "dissipated"]
    pairs = list(itertools.combinations(dissipated, 2))
    quotients = [quotient_quantity(a.quantity, b.quantity) for a, b in pairs]
    _, reports, _, _ = _run_checks(
        system, traj.states, args.tol, quantities=noether + declared + quotients
    )
    for cand, quantity, report in zip(dynamical_passers, noether, reports):
        add_quantity(
            "noether", quantity, report, "dissipated", source_symmetry=cand.name
        )

    verified = []
    for cand, report in zip(doc.quantities, reports[len(noether) :]):
        if add_quantity("quantity", cand.quantity, report, cand.expect):
            verified.append(cand)

    quotient_reports = reports[len(noether) + len(declared) :]
    for (a, b), quotient, report in zip(pairs, quotients, quotient_reports):
        if a in verified and b in verified:
            add_quantity("quotient", quotient, report, "conserved")

    for cand, report in zip(doc.maps, map_reports):
        observed = "contact" if report.passed else "neither"
        add(
            "map",
            cand.name,
            cand.expect,
            observed,
            observed == cand.expect,
            report=report.as_dict(),
        )

    mismatches = sum(not entry["matched"] for entry in checks)
    report_doc = {
        "seed": int(args.seed),
        "tolerance": float(args.tol),
        "sample_count": int(args.samples),
        "trajectory": traj_meta,
        "system": {
            "coordinates": list(system.coordinates),
            "parameters": dict(system.parameters),
            "hamiltonian": str(system.hamiltonian),
        },
        "checks": checks,
        "all_expectations_met": mismatches == 0,
    }
    Path(args.report).write_text(
        _json_text(report_doc) + "\n"
    )

    print(*lines, f"wrote {args.report}", sep="\n")
    if mismatches == 0:
        print(f"all {len(checks)} expectations met")
        return EXIT_OK
    print(f"{mismatches} of {len(checks)} expectations MISMATCHED")
    return EXIT_MISMATCH


def cmd_analyze(args) -> int:
    doc = load_document(args.spec)
    by_name = {cand.name: cand for cand in doc.symmetries}
    if args.field not in by_name:
        known = ", ".join(sorted(by_name)) or "none declared"
        raise _UsageError(
            f"{args.spec}: no symmetry candidate named {args.field!r} "
            f"(known: {known})"
        )
    cand = by_name[args.field]
    system = doc.system
    _checked(_require_positive, "tol", args.tol)
    states = _checked(sample_states, system, count=args.samples, seed=args.seed)
    # integrate first, so that a bad window or dt stops before any output
    traj = None
    if doc.initial_state is not None:
        traj = _integrate(doc, args, integrate_fixed, args.dt)

    ((contact, dynamical),), _, _, ((h,), undefined) = _run_checks(
        system, states, args.tol, fields=(cand.field,)
    )
    observed = _observed_symmetry(contact, dynamical)
    if observed == "contact":
        residuals = f"max residual {contact.max_residual:.3e}"
    else:
        residuals = (
            f"contact residual {contact.max_residual:.3e}, "
            f"bracket residual {dynamical.max_residual:.3e}"
        )
    print(f"field: {cand.name}")
    print(
        f"classification: {_CLASSIFICATIONS[observed]} "
        f"({residuals}, tol {args.tol:g})"
    )

    quantity = noether_quantity(system, cand.field)
    print(f"generated quantity: {quantity.expression}")
    if not dynamical.passed:
        print("note: not a dynamical symmetry, so no dissipation guarantee")

    if traj is None:
        print("no initial_state declared; trajectory check skipped")
    else:
        report = check_quantity(system, quantity, traj.states, args.tol)
        print(
            f"along trajectory [{args.t0:g}, {args.tf:g}] at dt={args.dt:g}: "
            f"{report.classification} "
            f"(dissipation residual {report.dissipated.max_residual:.3e})"
        )

    if undefined.any():
        print(
            f"H is undefined on {undefined.sum()} of {len(states)} sampled "
            "states; conserved ratio skipped"
        )
    elif min(map(abs, h.tolist())) > 1e-3:
        ratio = conserved_from_symmetry(system, cand.field)
        print(f"conserved ratio (valid while H != 0): {ratio.expression}")
    else:
        print("H vanishes on sampled states; conserved ratio skipped")
    return EXIT_OK


def cmd_list_models(args) -> int:
    for info in list_models():
        schema = ", ".join(f"{k}={v!r}" for k, v in info.defaults.items())
        print(f"{info.name}: {info.description}; parameters: {schema}")
    return EXIT_OK


def cmd_export_model(args) -> int:
    overrides = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise _UsageError(f"--param expects KEY=VALUE, got {item!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise _UsageError(f"--param {key}: {value!r} is not a number") from None
    out = args.out if args.out is not None else f"{args.name}.yaml"
    _require_directory(out)
    write_document(document_for_model(args.name, overrides), out)
    print(f"wrote {out}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves
    it as it was."""
    parser = argparse.ArgumentParser(
        prog="contactmech",
        description=(
            "Simulate contact Hamiltonian systems and verify their "
            "symmetries and conserved/dissipated quantities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every command that integrates a spec takes these; verify and analyze
    # add the options of a fresh RK4 run and of the sampled checks
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("spec", help="spec document (YAML)")
    window.add_argument("--t0", type=float, default=0.0)
    window.add_argument("--tf", type=float, default=10.0)
    checks = argparse.ArgumentParser(add_help=False, parents=[window])
    checks.add_argument("--dt", type=float, default=1e-2)
    checks.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    checks.add_argument("--seed", type=int, default=42)
    checks.add_argument("--samples", type=int, default=100)

    sim = sub.add_parser(
        "simulate", parents=[window], help="integrate a spec and write a CSV"
    )
    sim.add_argument("--dt", type=float, default=None, help="rk4 step (default 1e-3)")
    sim.add_argument(
        "--tol", type=float, default=None, help="rkf45 tolerance (default 1e-9)"
    )
    sim.add_argument("--method", choices=("rk4", "rkf45"), default="rk4")
    sim.add_argument("--out", default="trajectory.csv")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser(
        "verify", parents=[checks], help="check every declared expectation"
    )
    ver.add_argument("--trajectory", default=None, help="reuse a simulate CSV")
    ver.add_argument("--report", default="report.json")
    ver.set_defaults(func=cmd_verify)

    ana = sub.add_parser(
        "analyze", parents=[checks], help="inspect one symmetry candidate"
    )
    ana.add_argument("field", help="symmetry candidate name")
    ana.set_defaults(func=cmd_analyze)

    lst = sub.add_parser("list-models", help="show built-in models")
    lst.set_defaults(func=cmd_list_models)

    exp = sub.add_parser("export-model", help="write a built-in model as a spec")
    exp.add_argument("name", help="model name (see list-models)")
    exp.add_argument("--out", default=None, help="output path (default NAME.yaml)")
    exp.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="override a model parameter (repeatable)",
    )
    exp.set_defaults(func=cmd_export_model)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, SpecError, ModelError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION if isinstance(exc, IntegrationError) else EXIT_USAGE
