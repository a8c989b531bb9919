"""Command-line front end.

Subcommands mirror the library modules: ``spectral``, ``frames``,
``support``, ``axioms``, plus ``suite`` for the acceptance battery.  Inputs
are file paths or inline JSON; all reports are deterministic for a fixed
seed.  Exit codes: 0 success, 1 input error, 2 resource bound exceeded.
"""

import argparse
import json
import sys

from .errors import InputError, ResourceLimitError
from .poset import FinitePoset
from .spectral import SpectralSpace
from .frames import ASSEMBLY_MAX, FiniteFrame, assembly, frame_of, sigma
from .homalg import ChainComplex, ModularIntegers
from .support import (
    SupportDescriptor,
    big_support,
    detect_vanishing,
    foxby_support,
    main1_property_suite,
    prime_label,
    small_support,
    weakly_associated,
)
from .axioms import SupportDatum, canonical_datum, check_complements, construct_eta, eta_is_unique, is_supportive
from .battery import DEFAULT_SAMPLES, DEFAULT_SEED, SAMPLES_MAX, run_battery

DEFAULT_MAX_POSET = 6


def _load(arg):
    """File path or inline JSON."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError("cannot read %s: %s" % (arg, exc.strerror))
        except UnicodeDecodeError as exc:
            raise InputError("cannot read %s: not UTF-8 text (byte %d: %s)" % (arg, exc.start, exc.reason))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON at line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg))
    except RecursionError:
        raise InputError("malformed JSON: nested too deeply to parse")
    except ValueError as exc:
        # an integer past the conversion digit limit; the text after ";"
        # only tells how to raise the limit in Python
        raise InputError("malformed JSON: %s" % str(exc).split(";")[0])


def _check_size(obj, bound, name, what):
    """Refuse poset JSON listing more than bound elements, before the costly
    closure of the relation in FinitePoset.from_pairs."""
    elements = obj.get("elements") if isinstance(obj, dict) else None
    if isinstance(elements, list) and len(elements) > bound:
        raise ResourceLimitError("%s exceeds the size bound" % what, name, bound)


def _space(obj, bound):
    _check_size(obj, bound, "max-poset", "poset")
    return SpectralSpace.from_json(obj)


def _emit(obj, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
        return
    # generic TSV: one key per line, lists comma-joined, tables row-per-line
    # under a header of their column names
    if isinstance(obj, list):
        if obj and isinstance(obj[0], dict):
            sys.stdout.write("\t".join(sorted(obj[0])) + "\n")
        for row in obj:
            cells = [row[k] for k in sorted(row)] if isinstance(row, dict) else [row]
            sys.stdout.write("\t".join(map(_cell, cells)) + "\n")
        return
    for key in sorted(obj):
        sys.stdout.write("%s\t%s\n" % (key, _cell(obj[key])))


def _cell(value):
    if isinstance(value, (list, tuple)):
        return ",".join(_cell(v) for v in value)
    if isinstance(value, dict):
        return ";".join("%s=%s" % (k, _cell(value[k])) for k in sorted(value))
    return json.dumps(value) if isinstance(value, str) else str(value)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_spectral(args):
    space = _space(_load(args.input), args.max_poset)
    op = args.op
    if op == "thomason":
        return [sorted(s) for s in space.thomason_sets()]
    if op == "dual":
        return space.hochster_dual().order.to_json()
    if op == "skula":
        return [sorted(s) for s in space.skula_opens()]
    if op == "zset":
        return {p: sorted(space.z_set(p)) for p in space.points}
    if op == "cbrank":
        return {"rank": space.cb_rank()}
    # the parser's choices leave only "scattered"
    return {
        "scattered": space.is_scattered(),
        "weakly_scattered": space.is_weakly_scattered(),
        "t_half": space.is_t_half(),
    }


def _frame_input(obj, args):
    _check_size(obj, args.max_frame, "max-frame", "frame")
    return FiniteFrame(FinitePoset.from_json(obj))


def _cmd_frames(args):
    """``of``, ``sigma``, and ``assembly`` read a poset and act on its frame
    of open sets; ``primes``, ``boolean``, and ``essential`` read a frame
    order directly."""
    op = args.op
    obj = _load(args.input)
    if op == "of":
        frame, _labels = frame_of(_space(obj, args.max_poset))
        return frame.order.to_json()
    if op == "sigma":
        _psi, is_iso, asm = sigma(_space(obj, args.max_poset), max_size=args.max_frame)
        return {"is_isomorphism": is_iso, "nuclei": len(asm.nuclei)}
    if op == "assembly":
        frame, _labels = frame_of(_space(obj, args.max_poset))
        asm = assembly(frame, max_size=args.max_frame)
        return {
            "count": len(asm.nuclei),
            "nuclei": [
                {"label": label, "table": [[x, nu(x)] for x in sorted(frame.elements)]}
                for label, nu in sorted(asm.nuclei.items())
            ],
        }
    frame = _frame_input(obj, args)
    if op == "primes":
        return {"primes": sorted(frame.primes())}
    if op == "boolean":
        return {"boolean": frame.is_boolean()}
    # the parser's choices leave only "essential"
    return [
        {
            "element": x,
            "min_primes": sorted(frame.min_primes(x)),
            "essential": sorted(frame.essential_primes(x)),
        }
        for x in sorted(frame.elements)
    ]


def _descriptor_report(desc):
    return {
        "primes": sorted((prime_label(p) for p in desc.explicit), key=str),
        "generic": desc.generic,
        "cofinite": desc.cofinite,
        "exceptions": sorted((prime_label(p) for p in desc.exceptions), key=str),
    }


def _cmd_support(args):
    cx = ChainComplex.from_json(_load(args.input))
    op = args.op
    if op == "small":
        return _descriptor_report(small_support(cx))
    if op == "big":
        return _descriptor_report(big_support(cx))
    if op == "foxby":
        return _descriptor_report(foxby_support(cx))
    if op == "vanish":
        return {"vanishes": detect_vanishing(cx)}
    if op == "ass":
        union = set()
        for i in cx.degrees():
            h = cx.cohomology(i)
            if not h.is_zero:
                union |= weakly_associated(h)
        desc = SupportDescriptor(generic=0 in union, explicit=frozenset(union - {0}))
        return _descriptor_report(desc)
    # the parser's choices leave only "suite"
    if not isinstance(cx.ring, ModularIntegers):
        raise InputError("the property suite runs over Z/n complexes")
    v = {min(cx.ring.prime_divisors())}
    results = main1_property_suite(cx, v, other=cx, scalar=2)
    return {
        "v": sorted(prime_label(p) for p in v),
        "properties": results,
        "all_passed": all(results.values()),
    }


def _cmd_axioms(args):
    op = args.op
    obj = _load(args.input)
    if op == "canonical":
        space = _space(obj, args.max_poset)
        return canonical_datum(space).to_json()
    if isinstance(obj, dict):
        _check_size(obj.get("space"), args.max_poset, "max-poset", "poset")
        _check_size(obj.get("bousfield"), args.max_frame, "max-frame", "frame")
    datum = SupportDatum.from_json(obj)
    if op == "check":
        ok, bad = check_complements(datum)
        return {"complemented": ok, "witnesses": sorted(map(str, bad))}
    if op == "eta":
        result = construct_eta(datum, samples=args.samples, seed=args.seed)
        unique = eta_is_unique(datum, result)
        return {
            "exists": result.hom is not None,
            "unique": unique,
            "map": [[x, result.hom(x)] for x in sorted(result.frame.elements)],
        }
    # the parser's choices leave only "supportive"
    ok, reason = is_supportive(datum, samples=args.samples, seed=args.seed)
    return {"supportive": ok, "reason": reason}


def _cmd_suite(args):
    # the battery fixes its own size bounds (battery.POSET_BOUND and
    # ZSET_POSET_BOUND points, each frame at most 2**points), so an explicit
    # --max-poset or --max-frame is refused rather than silently ignored
    for option, value in (("--max-poset", args.max_poset), ("--max-frame", args.max_frame)):
        if value is not None:
            raise InputError("suite does not take %s: the battery fixes its own bounds" % option)
    rows = run_battery(seed=args.seed, samples=args.samples)
    if args.format == "tsv":
        lines = ["id\tname\tpassed\tdetail"]
        lines.extend(
            "%d\t%s\t%s\t%s" % (r["id"], r["name"], "pass" if r["passed"] else "FAIL", r["detail"])
            for r in rows
        )
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(
            json.dumps({"rows": rows, "all_passed": all(r["passed"] for r in rows)}, sort_keys=True)
            + "\n"
        )
    return 0 if all(r["passed"] for r in rows) else 1


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tts",
        description="Support theory on finite spectral spaces, frames, and complexes.",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="random seed for sampled checks (default %d)" % DEFAULT_SEED,
    )
    parser.add_argument(
        "--max-poset", type=int, default=None,
        help="largest accepted poset (default %d; refused by suite)" % DEFAULT_MAX_POSET,
    )
    parser.add_argument(
        "--max-frame", type=int, default=None,
        help="largest frame for assembly operations (default %d; refused by suite)" % ASSEMBLY_MAX,
    )
    parser.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES,
        help="sample count for randomized checks, 1 to %d (default %d)" % (SAMPLES_MAX, DEFAULT_SAMPLES),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", help="topology of a finite spectral space")
    p.add_argument("op", choices=("thomason", "dual", "skula", "zset", "cbrank", "scattered"))
    p.add_argument("input", help="poset JSON ({\"elements\": [...], \"leq\": [[a,b], ...]})")

    p = sub.add_parser("frames", help="finite frames, nuclei, and the assembly")
    p.add_argument("op", choices=("of", "primes", "assembly", "sigma", "boolean", "essential"))
    p.add_argument("input", help="poset or frame JSON")

    p = sub.add_parser("support", help="support of a complex of modules")
    p.add_argument("op", choices=("small", "big", "foxby", "ass", "vanish", "suite"))
    p.add_argument("input", help="complex JSON")

    p = sub.add_parser("axioms", help="abstract support data and eta factorization")
    p.add_argument("op", choices=("check", "eta", "supportive", "canonical"))
    p.add_argument("input", help="datum JSON (poset JSON for 'canonical')")

    sub.add_parser("suite", help="run the acceptance battery and print a pass/fail table")
    return parser


_HANDLERS = {
    "spectral": _cmd_spectral,
    "frames": _cmd_frames,
    "support": _cmd_support,
    "axioms": _cmd_axioms,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.samples < 1:
            raise InputError("--samples must be at least 1")
        if args.samples > SAMPLES_MAX:
            raise ResourceLimitError("sample count exceeds the bound", "samples", SAMPLES_MAX)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.max_poset is None:
            args.max_poset = DEFAULT_MAX_POSET
        if args.max_frame is None:
            args.max_frame = ASSEMBLY_MAX
        report = _HANDLERS[args.command](args)
    except ResourceLimitError as exc:
        sys.stdout.write(
            json.dumps(
                {"error": str(exc), "bound": exc.bound_name, "value": exc.bound_value},
                sort_keys=True,
            )
            + "\n"
        )
        return 2
    except InputError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return 1
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
