"""Command-line interface with JSON input and output.

Exit codes: 0 success or verification pass, 1 counterexample or
inadmissible input function, 2 invalid input (an unwritable --out
included), 3 enumeration budget exceeded.  Output is deterministic for
fixed arguments, inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import groebner, monomials, verify
from .distraction import DistractionMatrix, distract_ideal, polarize, require_distraction
from .errors import (
    BudgetExceededError,
    InvalidInputError,
    NoLexIdealError,
    NotAdmissibleError,
)
from .groebner import DEFAULT_CHAR, Ideal, check_characteristic
from .homology import koszul_betti, local_coh_monomial
from .macaulay import lex_ideal_for_hf
from .monomials import MonomialIdeal
from .shakin import ShakinIdeal, lex_embed

SCHEMA_VERSION = 1


def _emit(data, args) -> None:
    data = {"v": SCHEMA_VERSION, **data}
    if getattr(args, "pretty", False):
        text = _render_pretty(data)
    else:
        text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_pretty(data) -> str:
    lines = []

    def scalar(v):
        # null, true and false in their JSON spelling; the rest as str gives it
        return json.dumps(v) if v is None or isinstance(v, bool) else v

    def walk(obj, indent=""):
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{indent}{k}:")
                    walk(v, indent + "  ")
                else:
                    lines.append(f"{indent}{k}: {scalar(v)}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{indent}-")
                    walk(v, indent + "  ")
                else:
                    lines.append(f"{indent}- {scalar(v)}")

    walk(data)
    return "\n".join(lines) + "\n"


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read JSON from {path}: {exc}") from exc


def _load_any_ideal(path, char):
    data = monomials.json_object(_load_json(path), path)
    if "gens" in data:
        return MonomialIdeal.from_json(data)
    if "polys" in data:
        return Ideal.from_json(data, p=char)
    raise InvalidInputError(f"{path}: expected 'gens' or 'polys'")


def _load_base(path):
    """A Shakin ideal, or a raw monomial ideal as the escape hatch."""
    if path is None:
        raise InvalidInputError("--shakin FILE is required for this command")
    data = monomials.json_object(_load_json(path), path)
    if "pieces" in data or "powers" in data:
        return ShakinIdeal.from_json(data)
    if "gens" in data:
        return MonomialIdeal.from_json(data)
    raise InvalidInputError(f"{path}: expected 'pieces'/'powers' or 'gens'")


def _load_distraction(path, char):
    if path is None:
        raise InvalidInputError("--distraction FILE is required for this command")
    return DistractionMatrix.from_json(_load_json(path), p=char)


def _parse_hf(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = _load_json(text)
    if isinstance(data, dict):
        data = data.get("values")
    if not isinstance(data, list):
        raise InvalidInputError("Hilbert function must be a JSON array of integers")
    return monomials.json_ints(data, "Hilbert function values")


def _parse_window(text):
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise InvalidInputError(f"bad window {text!r}, expected jmin:jmax") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _char(args) -> int:
    return DEFAULT_CHAR if args.char is None else args.char


def _cmd_hilbert(args) -> int:
    ideal = _load_any_ideal(args.ideal, args.char)
    if isinstance(ideal, MonomialIdeal):
        values = monomials.hilbert_function(ideal, args.dmax)
    else:
        values = groebner.hilbert_function(ideal, args.dmax)
    _emit({"n": ideal.n, "dmax": args.dmax, "values": list(values)}, args)
    return 0


def _cmd_lexify(args) -> int:
    values = _parse_hf(args.hf)
    ideal = lex_ideal_for_hf(args.n, values)
    _emit({"ideal": ideal.to_json(), "values": list(values)}, args)
    return 0


def _cmd_embed(args) -> int:
    shakin = _load_base(args.shakin)
    values = _parse_hf(args.hf)
    dmax = args.dmax if args.dmax is not None else len(values) - 1
    embedded = lex_embed(shakin, values, dmax)
    _emit({"ideal": embedded.to_json(), "dmax": dmax, "values": list(values)}, args)
    return 0


def _cmd_distract(args) -> int:
    ideal = MonomialIdeal.from_json(_load_json(args.ideal))
    d = require_distraction(_load_distraction(args.distraction, args.char))
    out = distract_ideal(d, ideal)
    _emit(out.to_json(), args)
    return 0


def _cmd_polarize(args) -> int:
    ideal = MonomialIdeal.from_json(_load_json(args.ideal))
    d = None
    if args.distraction:
        d = require_distraction(_load_distraction(args.distraction, args.char))
    result = polarize(ideal, d)
    _emit({
        "extended_n": result.extended_n,
        "block_sizes": list(result.block_sizes),
        "polarized": result.polarized.to_json(),
        "specialization_x": [[i, idx] for i, idx in result.specialization_x],
        "specialization_l": (
            None if result.specialization_l is None
            else [[list(c), idx] for c, idx in result.specialization_l]
        ),
    }, args)
    return 0


def _cmd_betti(args) -> int:
    ideal = _load_any_ideal(args.ideal, args.char)
    p = ideal.p if hasattr(ideal, "p") else _char(args)
    table = koszul_betti(ideal, args.dmax, p)
    _emit(table.to_json(), args)
    return 0


def _cmd_localcoh(args) -> int:
    ideal = MonomialIdeal.from_json(_load_json(args.ideal))
    window = _parse_window(args.window) if args.window else None
    irange = None
    if args.irange:
        lo, hi = _parse_window(args.irange)
        irange = range(lo, hi + 1)
    table = local_coh_monomial(ideal, i_range=irange, window=window, p=_char(args))
    _emit(table.to_json(), args)
    return 0


# the one list of verify kinds, in --help order (the parser's choices are its
# keys); each entry loads its inputs, base first, and returns the report
_VERIFY_KINDS = {
    "macaulay-lex": lambda args: verify.verify_macaulay_lex(
        _load_base(args.shakin), args.dmax, budget=args.budget),
    "betti-extremal": lambda args: verify.verify_betti_extremal(
        _load_base(args.shakin), args.dmax, budget=args.budget, p=_char(args)),
    "coh-extremal": lambda args: verify.verify_coh_extremal(
        _load_base(args.shakin), args.dmax,
        window=_parse_window(args.window) if args.window else None,
        budget=args.budget, p=_char(args)),
    "distraction-hf": lambda args: verify.verify_distraction_hf(
        _load_base(args.shakin), _load_distraction(args.distraction, args.char),
        args.dmax, samples=args.samples, seed=args.seed),
    "epsilon-d-extremal": lambda args: verify.verify_epsilon_d_extremal(
        _load_base(args.shakin), _load_distraction(args.distraction, args.char),
        args.dmax, samples=args.samples, seed=args.seed),
    "betti-invariance": lambda args: verify.verify_betti_distraction_invariance(
        args.n, samples=args.samples, dmax=args.dmax, seed=args.seed,
        p=_char(args)),
    "codistra-h0": lambda args: verify.verify_codistra_h0(
        args.n, samples=args.samples, dmax=args.dmax, seed=args.seed,
        p=_char(args)),
}


def _cmd_verify(args) -> int:
    report = _VERIFY_KINDS[args.kind](args)
    _emit(report.to_json(), args)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub, *flags):
    if "char" in flags:
        sub.add_argument("--char", type=int, default=None,
                         help=f"prime field characteristic (default: the input "
                              f"file's, else {DEFAULT_CHAR})")
    if "dmax" in flags:
        sub.add_argument("--dmax", type=int, required=True,
                         help="truncation degree")
    if "out" in flags:
        sub.add_argument("--out", help="write JSON here instead of stdout")
        sub.add_argument("--pretty", action="store_true",
                         help="human-readable rendering")


# built on the first main() and shared by every later call in the process:
# parse_args keeps no state between calls, so a call costs parse and dispatch
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexdist",
        description="Exact computations with lex-embeddings and distractions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("hilbert", help="Hilbert function of a quotient")
    s.add_argument("--ideal", required=True)
    _add_common(s, "char", "dmax", "out")
    s.set_defaults(func=_cmd_hilbert)

    s = subs.add_parser("lexify", help="lex ideal realizing a Hilbert function")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--hf", required=True, help="JSON array or hilbert output")
    _add_common(s, "out")
    s.set_defaults(func=_cmd_lexify)

    s = subs.add_parser("embed", help="lex-embedding over a Shakin ideal")
    s.add_argument("--shakin", required=True)
    s.add_argument("--hf", required=True, help="JSON array or hilbert output")
    s.add_argument("--dmax", type=int)
    _add_common(s, "out")
    s.set_defaults(func=_cmd_embed)

    s = subs.add_parser("distract", help="apply a distraction to a monomial ideal")
    s.add_argument("--ideal", required=True)
    s.add_argument("--distraction", required=True)
    _add_common(s, "char", "out")
    s.set_defaults(func=_cmd_distract)

    s = subs.add_parser("polarize", help="squarefree polarization")
    s.add_argument("--ideal", required=True)
    s.add_argument("--distraction", help="optional: fills the l_ij specialization")
    _add_common(s, "char", "out")
    s.set_defaults(func=_cmd_polarize)

    s = subs.add_parser("betti", help="graded Betti table via Koszul homology")
    s.add_argument("--ideal", required=True)
    _add_common(s, "char", "dmax", "out")
    s.set_defaults(func=_cmd_betti)

    s = subs.add_parser("localcoh", help="local cohomology Hilbert functions")
    s.add_argument("--ideal", required=True)
    s.add_argument("--window", help="jmin:jmax")
    s.add_argument("--irange", help="imin:imax")
    _add_common(s, "char", "out")
    s.set_defaults(func=_cmd_localcoh)

    s = subs.add_parser("verify", help="run a verification report")
    s.add_argument("kind", choices=list(_VERIFY_KINDS))
    s.add_argument("--shakin", help="Shakin (or monomial) ideal JSON file")
    s.add_argument("--distraction", help="distraction JSON file")
    s.add_argument("--n", type=int, default=3)
    s.add_argument("--samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    s.add_argument("--budget", type=int, default=verify.DEFAULT_BUDGET)
    s.add_argument("--window", help="jmin:jmax")
    _add_common(s, "char", "dmax", "out")
    s.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except OSError as exc:
        # inputs are read through _load_json, so this is _emit failing to
        # write --out; the error goes to stdout instead of that path again
        if not getattr(args, "out", None):
            raise
        path, args.out = args.out, None
        _emit({"error": "invalid-input", "message": f"cannot write {path}: {exc.strerror}"},
              args)
        return 2


def _run(args) -> int:
    """args.func's exit code, or the code of the error it raised, whose
    payload is emitted."""
    try:
        if getattr(args, "dmax", None) is not None and args.dmax < 0:
            raise InvalidInputError("dmax must be nonnegative")
        # also on commands that work over no field and would ignore it
        if getattr(args, "char", None) is not None:
            check_characteristic(args.char)
        return args.func(args)
    except NotAdmissibleError as exc:
        _emit({"error": "not-admissible", "degree": exc.degree,
               "message": str(exc)}, args)
        return 1
    except NoLexIdealError as exc:
        _emit({"error": "no-such-ideal", "degree": exc.degree,
               "message": str(exc)}, args)
        return 1
    except BudgetExceededError as exc:
        _emit({"error": "budget-exceeded", "budget": exc.budget,
               "count_estimate": exc.count_estimate}, args)
        return 3
    except InvalidInputError as exc:
        _emit({"error": "invalid-input", "message": str(exc)}, args)
        return 2


if __name__ == "__main__":
    sys.exit(main())
