"""Command-line front end.

Subcommands: ``bound`` (closed-form tail bound), ``verify`` (exact
certificate-and-chain check of a JSON model spec), ``simulate`` (Monte Carlo
estimate of the round product), ``detect`` (randomized search for a
moment-violating subset), and ``sweep`` (tabulate bound quantities over a
grid of t or lambda).

Reports are JSON (default) or CSV, embed ``schema_version`` plus the fully
resolved configuration, and are byte-identical for a fixed seed.
``--workers`` is accepted for compatibility and validated; blocks run in
order on one thread.  Exit codes: 0 success, 2 invalid input (also a
problem ``detect`` cannot search yet: a_i != 0, b != 1 or more than one c),
3 detection found nothing, 4 budget exceeded; 1 is reserved for a chain
failure that ``ChainReport.explained`` does not explain (by a violated
certificate or a walk short of n), an internal inconsistency.

``run``, the process entry, runs ``main`` with the cyclic collector off (a run
leaves a fixed few hundred cyclic objects, mostly argparse's, at any sample
count), freezes the heap so the collection at exit skips it, and calls
``sys.exit``.  ``main`` and the library never touch ``gc``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .entropy_core import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_MAX_PROPOSALS,
    DEFAULT_MIN_ROUNDS,
    LAMBDA_CAP,
    BoundParams,
    at_most,
    chernoff_bound,
    check_positive_int,
    g_objective,
    normalize,
    optimize_lambda,
    proof_case,
)
from .errors import BudgetError, SupportTooLargeError, ValidationError

if TYPE_CHECKING:
    from .dist_models import JointModel

SCHEMA_VERSION = "1"
DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID = 2
EXIT_NOT_FOUND = 3
EXIT_BUDGET = 4


def _parse_vector(text: str, n: int, name: str) -> tuple[float, ...]:
    """Comma-separated floats; a single value broadcasts to length n."""
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"--{name} must be a number or comma list, got {text!r}") from exc
    if len(values) == 1:
        return values * n
    if len(values) != n:
        raise ValidationError(f"--{name} needs 1 or {n} values, got {len(values)}")
    return values


def _read_spec(path: str) -> str | bytes:
    """The spec's text: a file as its bytes, which the decoder decodes
    itself.  Read as text, a file is first read into one bytes buffer that
    is freed before the decode; glibc then serves the table's growing
    buffers from the heap, where each move leaves a hole: a 262,144-atom
    `verify` peaked at 124 MB with the file read as text, at 106 MB from
    its bytes (and at 106 MB from stdin, read as text in chunks)."""
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read spec {path}: {exc}") from exc


def _load_model(args) -> JointModel:
    from .dist_models import _model_from_json

    path = args.spec
    try:  # the text is passed as its only reference, so the decoder may drop it
        model = _model_from_json(_read_spec(path), atom_cap=getattr(args, "atom_cap", None))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"spec {path} is not valid JSON: {exc}") from exc
    if getattr(args, "n", None) is not None and args.n != model.n:
        raise ValidationError(f"--n {args.n} does not match spec n={model.n}")
    return model


def _build_params(args, n: int, t: float | None = None) -> BoundParams:
    a = _parse_vector(args.a, n, "a")
    c = _parse_vector(args.c, n, "c")
    return BoundParams(n=n, a=a, b=args.b, c=c, t=args.t if t is None else t)


def _resolve_lambda(args, params: BoundParams) -> float:
    if args.lam is not None:
        return args.lam
    norm = normalize(params)
    if proof_case(norm) == "interior":
        return optimize_lambda(norm).lam
    return 0.5


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        out = []
        for key in obj:
            out.extend(_flatten(obj[key], f"{prefix}{key}."))
        return out
    return [(prefix[:-1], obj)]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    import csv  # only a CSV report needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = report.get("result", {}).get("rows")
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        header = list(rows[0])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row.get(k)) for k in header])
    else:
        writer.writerow(["key", "value"])
        for key, value in _flatten(report):
            writer.writerow([key, _csv_cell(value)])
    return buf.getvalue()


def cmd_bound(args) -> tuple[dict, int]:
    params = _build_params(args, args.n)
    norm = normalize(params)
    case = proof_case(norm)
    result = {
        "bound": chernoff_bound(params),
        "case": case,
        "ctilde": norm.ctilde,
        "ttilde": norm.ttilde,
        "threshold": params.threshold,
        "lambda_star": None,
        "g_value": None,
    }
    if case == "interior":
        choice = optimize_lambda(norm)
        result["lambda_star"] = choice.lam
        result["g_value"] = choice.g_value
    config = {"n": params.n, "a": list(params.a), "b": params.b,
              "c": list(params.c), "t": params.t}
    return _report("bound", config, result), EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    model = _load_model(args)
    # mc_engine loads after dist_models: compiled from source ahead of it, it
    # raised the peak RSS of `verify` on a 16,384 x 12 table by 1.1 MB
    from .mc_engine import verify_chain
    params = _build_params(args, model.n)
    lam = _resolve_lambda(args, params)
    report = verify_chain(model, params, lam, max_subset_size=args.max_subset_size)
    tail = report.tail_probability
    bound = chernoff_bound(params)
    result = {
        "lambda": report.lam,
        "links": [
            {"name": l.name, "lhs": l.lhs, "rhs": l.rhs, "passed": l.passed}
            for l in report.links
        ],
        "all_passed": report.all_passed,
        "failed_links": list(report.failed_links),
        "explained": report.explained,
        "hypothesis_ok": report.hypothesis_ok,
        "certificates_total": len(report.certificates),
        "certificates_failing": [
            {"subset": list(c.subset), "exact_moment": c.exact_moment,
             "bound_product": c.bound_product}
            for c in report.failing[:32]
        ],
        "tail_probability": tail,
        "expected_product": report.expected_product,
        "expected_product_on_tail": report.expected_product_on_tail,
        "bound": bound,
        "tail_le_bound": at_most(tail, bound, params.n),
    }
    config = {
        "spec": args.spec, "kind": model.kind, "n": model.n,
        "a": list(params.a), "b": params.b, "c": list(params.c), "t": params.t,
        "lambda": lam, "max_subset_size": args.max_subset_size,
        "atom_cap": model.atom_cap,
    }
    return _report("verify", config, result), EXIT_OK if report.explained else EXIT_INTERNAL


def cmd_simulate(args) -> tuple[dict, int]:
    from .mc_engine import estimate_product, exact_product_expectation

    model = _load_model(args)
    params = _build_params(args, model.n)
    lam = _resolve_lambda(args, params)
    estimate = estimate_product(
        model, params, lam, args.samples,
        conditional=args.conditional, seed=args.seed,
        block_size=args.block_size, workers=args.workers,
        max_proposals=args.max_proposals,
    )
    exact = None
    abs_z = None
    if not args.conditional:
        try:
            exact = exact_product_expectation(model, lam, params)
        except SupportTooLargeError:  # some fold step exceeds atom_cap
            pass
        else:
            if estimate.std_error > 0.0:
                abs_z = abs(estimate.mean - exact) / estimate.std_error
    result = {
        "mean": estimate.mean,
        "std_error": estimate.std_error,
        "n_samples": estimate.n_samples,
        "conditional_on_tail": estimate.conditional_on_tail,
        "exact": exact,
        "abs_z": abs_z,
    }
    config = {
        "spec": args.spec, "kind": model.kind, "n": model.n,
        "a": list(params.a), "b": params.b, "c": list(params.c), "t": params.t,
        "lambda": lam, "samples": args.samples, "conditional": args.conditional,
        "seed": args.seed, "block_size": args.block_size,
        "max_proposals": args.max_proposals,
    }
    return _report("simulate", config, result), EXIT_OK


def cmd_detect(args) -> tuple[dict, int]:
    from .witness import _check_detectable, default_budgets, find_dependent_set

    model = _load_model(args)
    params = _build_params(args, model.n)
    _check_detectable(params, args.alpha)
    wp = default_budgets(model.n, params.c[0], params.t, args.alpha)
    overrides = {
        name: value
        for name, value in (("lam", args.lam), ("m_search", args.m_search),
                            ("m_confirm", args.m_confirm), ("margin_threshold", args.margin))
        if value is not None
    }
    if overrides:
        wp = replace(wp, **overrides)
    report = find_dependent_set(
        model, wp, seed=args.seed, workers=args.workers,
        block_size=args.block_size, min_rounds_per_subset=args.min_rounds,
    )
    result = {
        "verdict": report.verdict,
        "subset": list(report.subset),
        "empirical_moment": report.empirical_moment,
        "threshold": report.threshold,
        "confirm_std_error": report.confirm_std_error,
        "samples_used": report.samples_used,
        "candidates": report.candidates,
        "note": report.note,
    }
    config = {
        "spec": args.spec, "kind": model.kind, "n": model.n,
        "c": wp.c, "t": wp.t, "alpha": wp.alpha, "lambda": wp.lam,
        "m_search": wp.m_search, "m_confirm": wp.m_confirm,
        "margin_threshold": wp.margin_threshold,
        "min_rounds_per_subset": args.min_rounds,
        "seed": args.seed, "block_size": args.block_size,
    }
    code = EXIT_OK if report.verdict == "found" else EXIT_NOT_FOUND
    return _report("detect", config, result), code


def cmd_sweep(args) -> tuple[dict, int]:
    check_positive_int("--points", args.points)
    model = _load_model(args) if args.spec else None
    if args.over == "t":
        rows, grid = _sweep_t(args, model)
    else:
        rows, grid = _sweep_lambda(args)
    config = {
        "over": args.over, "points": args.points, "n": args.n,
        "a": args.a, "b": args.b, "c": args.c,
        "spec": args.spec, "kind": model.kind if model else None,
    }
    config.update(grid)
    return _report("sweep", config, {"rows": rows}), EXIT_OK


def _sweep_t(args, model: JointModel | None) -> tuple[list[dict], dict]:
    import numpy as np

    from .dist_models import exact_tail

    base = _build_params(args, args.n, t=0.0)
    t_max = args.t_max if args.t_max is not None else base.t_max
    t_min = args.t_min
    if not 0.0 <= t_min <= t_max:
        raise ValidationError(f"need 0 <= t_min <= t_max, got [{t_min}, {t_max}]")
    rows = []
    for t in np.linspace(t_min, t_max, args.points):
        params = replace(base, t=float(t))
        norm = normalize(params)
        case = proof_case(norm)
        row = {
            "t": float(t),
            "case": case,
            "bound": chernoff_bound(params),
            "lambda_star": None,
            "g_value": None,
            "exact_tail": None,
            "tail_le_bound": None,
        }
        if case == "interior":
            choice = optimize_lambda(norm)
            row["lambda_star"] = choice.lam
            row["g_value"] = choice.g_value
        if model is not None and model.enumerable:
            tail = exact_tail(model, params.threshold)
            row["exact_tail"] = tail
            row["tail_le_bound"] = at_most(tail, row["bound"], params.n)
        rows.append(row)
    return rows, {"t_min": t_min, "t_max": t_max}


def _sweep_lambda(args) -> tuple[list[dict], dict]:
    import numpy as np

    if args.t is None:
        raise ValidationError("sweep --over lambda needs --t")
    params = _build_params(args, args.n)
    norm = normalize(params)
    if proof_case(norm) != "interior":
        raise ValidationError(
            "sweep --over lambda needs interior parameters (0 < ctilde < 1, "
            "ttilde < 1 - ctilde)"
        )
    if not 0.0 < args.lambda_max < 1.0:
        raise ValidationError(f"--lambda-max must lie in (0, 1), got {args.lambda_max}")
    rows = []
    for lam in np.linspace(0.0, args.lambda_max, args.points):
        g = g_objective(float(lam), norm)
        rows.append({"lambda": float(lam), "g_value": g, "g_power_n": g**params.n})
    return rows, {"lambda_max": args.lambda_max, "t": args.t}


def _report(command: str, config: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
    }


def _add_common(sub, seed: bool = False, exact: bool = False) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write the report to this file")
    if exact:
        sub.add_argument("--atom-cap", dest="atom_cap", type=int, default=None,
                         help="largest step of the exact fold, in partial sums x factor "
                         "rows; exit code 4 when a step needs more")
    if seed:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sub.add_argument("--workers", type=int, default=1,
                         help="accepted for compatibility; blocks run in order on one thread")
        sub.add_argument("--block-size", dest="block_size", type=int,
                         default=DEFAULT_BLOCK_SIZE)


def _add_bound_flags(sub, need_n: bool, need_t: bool = True) -> None:
    sub.add_argument("--n", type=int, default=None, required=need_n)
    sub.add_argument("--a", default="0", help="a_i, single value or comma list")
    sub.add_argument("--b", type=float, default=1.0)
    sub.add_argument("--c", required=True, help="c_i, single value or comma list")
    sub.add_argument("--t", type=float, required=need_t)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chbound",
        description="Tail bounds for dependent bounded variables: evaluate, "
        "verify exactly, simulate, and detect violating subsets.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bound", help="evaluate the closed-form tail bound")
    _add_bound_flags(p, need_n=True)
    _add_common(p)
    p.set_defaults(handler=cmd_bound)

    p = subs.add_parser("verify", help="exact chain verification for a model spec")
    p.add_argument("--spec", required=True, help="path to a JSON model spec")
    _add_bound_flags(p, need_n=False)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--max-subset-size", dest="max_subset_size", type=int, default=None)
    _add_common(p, exact=True)
    p.set_defaults(handler=cmd_verify)

    p = subs.add_parser("simulate", help="Monte Carlo estimate of the round product")
    p.add_argument("--spec", required=True)
    _add_bound_flags(p, need_n=False)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--conditional", action="store_true",
                   help="condition on the tail event via rejection")
    p.add_argument("--max-proposals", dest="max_proposals", type=int,
                   default=DEFAULT_MAX_PROPOSALS)
    _add_common(p, seed=True, exact=True)
    p.set_defaults(handler=cmd_simulate)

    p = subs.add_parser("detect", help="search for a moment-violating subset")
    p.add_argument("--spec", required=True)
    _add_bound_flags(p, need_n=False)
    p.add_argument("--alpha", type=float, required=True,
                   help="tail probability P(mean >= c + t) claimed for the model, in "
                   "(0, 1); default_budgets sets every unset budget from it")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--m-search", dest="m_search", type=int, default=None,
                   help="search rounds, each scoring one set of the candidate pool "
                   "(unset: default_budgets)")
    p.add_argument("--m-confirm", dest="m_confirm", type=int, default=None,
                   help="fresh rows that re-estimate the best candidate (unset: "
                   "default_budgets)")
    p.add_argument("--margin", type=float, default=None,
                   help="excess over c^|S| the confirmed mean must clear (unset: "
                   "default_budgets)")
    p.add_argument("--min-rounds", dest="min_rounds", type=int,
                   default=DEFAULT_MIN_ROUNDS,
                   help="search rounds each candidate gets at least; the pool holds at "
                   "most m-search / min-rounds sets (default %(default)s)")
    _add_common(p, seed=True)
    p.set_defaults(handler=cmd_detect)

    p = subs.add_parser("sweep", help="tabulate bound quantities over a grid")
    p.add_argument("--over", choices=("t", "lambda"), default="t")
    _add_bound_flags(p, need_n=True, need_t=False)
    p.add_argument("--t-min", dest="t_min", type=float, default=0.0)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--lambda-max", dest="lambda_max", type=float,
                   default=LAMBDA_CAP)
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--spec", default=None,
                   help="optional model spec for exact tails along the sweep")
    _add_common(p, exact=True)
    p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.handler(args)
    except (ValidationError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, BudgetError) else EXIT_INVALID
    text = _render(report, args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


def run() -> None:
    """Process entry: ``main`` with the cyclic collector off, then exit."""
    gc.disable()
    code = main()
    gc.freeze()  # the collection at interpreter exit skips the frozen heap
    sys.exit(code)


if __name__ == "__main__":
    run()
