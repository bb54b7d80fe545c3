"""Command-line surface: verdicts, tower generation, probabilities, benchmarks.

Exit codes: 0 = irreducible outcome / successful query, 1 = reducible
outcome or rejected tower step, 2 = usage or precondition error, a work
bound exceeded, or memory exhausted.

JSON reports are byte-identical across runs for fixed inputs and seeds:
they carry deterministic work counts (coefficient multiplications), never
wall-clock times. Human-readable output adds timings. All numbers inside
JSON are decimal strings, since group orders outgrow fixed-width integers.

Work and wall time are taken in one place, ``_metered``; ``test --oracle``
and every ``bench`` step race the criterion against Rabin through
``_race``. Each command builds its ``--json`` report and its human lines
once, and prints one or the other through ``_emit``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .criterion import (DEFAULT_CANDIDATE_BOUND, FourthPowerTest, ResidueTest, Shortcut, Verdict,
                        ZeroRootEvidence, _compose_within, _next_step, _test_json, decide_b_xd,
                        grow_tower)
from .errors import (CapelliError, NoViableStepError, PolyParseError, ReducibleInputError,
                     TowerStepRejectedError)
from .ff import Poly, PrimeField, count_mults
from .oracle import DEFAULT_ENUMERATION_BOUND, DEFAULT_WORK_BOUND, enumerate_irreducibles, rabin_test
from .polytext import parse_coeff_array, parse_poly, render_poly
from .prob import Convention, exact_probability, exhaustive_census, monte_carlo_estimate, union_lower_bound

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------


def _rational(v: Fraction) -> str:
    # Decimal writes numerator and denominator past the interpreter's int/str digit limit
    n, d = Decimal(v.numerator), Decimal(v.denominator)
    return f"{n}" if d == 1 else f"{n}/{d}"


def _fraction_json(v: Fraction) -> dict:
    return {"rational": _rational(v), "decimal": f"{float(v):.6f}"}


def _evidence_json(ev) -> Optional[dict]:
    if ev is None:
        return None
    if isinstance(ev, ResidueTest):
        return {"kind": "prime-residue", **_test_json(ev), "is_power": ev.is_power}
    if isinstance(ev, FourthPowerTest):
        return {"kind": "fourth-power", **_test_json(ev), "is_power": ev.is_power}
    if isinstance(ev, Shortcut):
        return {"kind": "shortcut", "dprime": None if ev.dprime is None else str(ev.dprime)}
    if isinstance(ev, ZeroRootEvidence):
        return {"kind": "zero-root", "dprime": str(ev.dprime)}
    raise TypeError(f"unknown evidence {ev!r}")  # pragma: no cover


def _verdict_json(v: Verdict) -> dict:
    return {
        "verdict": "irreducible" if v.irreducible else "reducible",
        "reason": v.reason.value,
        "evidence": _evidence_json(v.evidence),
        "tests": [_evidence_json(t) for t in v.tests],
    }


def _emit(args, report: dict, lines: list[str], file=None) -> None:
    """Print the --json report, or else the human lines (to stdout unless
    ``file`` is given)."""
    if args.json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        for line in lines:
            print(line, file=file)


def _metered(fn, *args, **kwargs):
    """fn(*args, **kwargs), the multiplications it metered, and its wall time in ms."""
    t0 = time.perf_counter()
    with count_mults() as work:
        result = fn(*args, **kwargs)
    return result, work(), (time.perf_counter() - t0) * 1000


def _race(b: Poly, d: int, work_bound: Optional[int], trusted: bool):
    """The criterion on b(x^d), then Rabin on the composition built within
    work_bound, each metered: (verdict, mults, ms), (oracle verdict, mults,
    ms), and b(x^d)."""
    criterion = _metered(decide_b_xd, b, d, trusted, work_bound=work_bound)
    composed = _compose_within(b, d, work_bound)
    # capelli.cli.rabin_test, looked up at each call: tests patch it
    return criterion, _metered(rabin_test, composed, work_bound=work_bound), composed


def _parse_input_poly(args, field: PrimeField) -> Poly:
    if args.coeffs is not None:
        return parse_coeff_array(args.coeffs, field)
    if args.poly is not None:
        return parse_poly(args.poly, field)
    raise PolyParseError("no polynomial given (use --poly or --coeffs)")


def _schedule(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_test(args) -> int:
    b = _parse_input_poly(args, PrimeField(args.p))
    if args.oracle:
        (verdict, mults, ms), oracle, _ = _race(b, args.d, args.work_bound, trusted=False)
    else:
        verdict, mults, ms = _metered(decide_b_xd, b, args.d, work_bound=args.work_bound)
        oracle = None
    report = {
        "p": str(args.p),
        "input": render_poly(b),
        "d": str(args.d),
        **_verdict_json(verdict),
        "work": {"criterion_mults": str(mults)},
    }
    lines = [
        f"{report['verdict']}: b(x^{args.d}) for b = {report['input']} over GF({args.p})",
        f"reason: {verdict.reason.value}",
        f"criterion work: {mults} mults, {ms:.2f} ms",
    ]
    agrees = True
    if oracle is not None:
        oracle_verdict, oracle_mults, oracle_ms = oracle
        agrees = oracle_verdict.irreducible == verdict.irreducible
        report["oracle"] = {
            "verdict": "irreducible" if oracle_verdict.irreducible else "reducible",
            "agrees": agrees,
            "oracle_mults": str(oracle_mults),
        }
        lines.append(
            f"oracle: {'agrees' if agrees else 'DISAGREES'} ({report['oracle']['verdict']}), "
            f"{oracle_mults} mults, {oracle_ms:.2f} ms"
        )
    _emit(args, report, lines)
    if not agrees:
        print("error: criterion and oracle disagree", file=sys.stderr)
        return 2
    return 0 if verdict.irreducible else 1


def _auto_start(field: PrimeField, candidate_bound: int) -> Poly:
    """First degree-2 monic irreducible (by index) admitting a certified step."""
    p = field.p
    for cand in enumerate_irreducibles(field, 2, bound=p * p):
        try:
            _next_step(cand, candidate_bound)
        except NoViableStepError:
            continue
        return cand
    raise NoViableStepError(
        f"no degree-2 start over GF({p}) admits a certified step", degree=2
    )


def cmd_generate(args) -> int:
    if (args.schedule is None) == (args.target_degree is None):
        raise CapelliError("give exactly one of --schedule or --target-degree")
    field = PrimeField(args.p)
    if args.start is not None:
        start = parse_poly(args.start, field)
    else:
        start = _auto_start(field, args.candidate_bound)
    schedule = None if args.schedule is None else _schedule(args.schedule)
    cert, mults, ms = _metered(grow_tower, start, schedule, target_degree=args.target_degree,
                               candidate_bound=args.candidate_bound, paranoid=args.paranoid,
                               work_bound=args.work_bound)
    final = cert.final_polynomial()

    cert_dict = cert.to_json_dict()
    if args.cert_out is not None:
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            json.dump(cert_dict, fh, indent=2)
            fh.write("\n")

    report = {
        "p": str(args.p),
        "input": render_poly(start),
        "schedule": args.schedule,
        "target_degree": None if args.target_degree is None else str(args.target_degree),
        "final": {
            "poly": render_poly(final),
            "degree": str(final.degree),
            "terms": str(final.term_count()),
        },
        "work": {"criterion_mults": str(mults)},
        "certificate": cert_dict,
    }
    lines = [
        f"final: {report['final']['poly']}",
        f"degree {final.degree}, {report['final']['terms']} terms, "
        f"{len(cert.steps)} steps, {ms:.1f} ms",
        "steps: " + ", ".join(f"d={s.d}" for s in cert.steps),
    ]
    if args.cert_out is not None:
        lines.append(f"certificate written to {args.cert_out}")
    _emit(args, report, lines)
    return 0


def cmd_prob(args) -> int:
    modes = [m for m in ("exact", "bound", "census") if getattr(args, m)]
    if args.sample is not None:
        modes.append("sample")
    if len(modes) != 1:
        raise CapelliError("choose exactly one of --exact, --bound, --census, --sample N")
    mode = modes[0]
    if args.include_zero and mode in ("bound", "sample"):
        # the bound is convention-free and sampling draws from the units
        raise CapelliError(f"--include-zero does not combine with --{mode}")
    convention = Convention.INCLUDE_ZERO if args.include_zero else Convention.UNITS_ONLY
    if mode != "bound" and (args.p is None or args.k is None):
        raise CapelliError(f"--{mode} requires -p and -k")

    report = {
        "p": None if args.p is None else str(args.p),
        "k": None if args.k is None else str(args.k),
        "d": str(args.d),
        "mode": mode,
        "convention": convention.value,
    }
    if mode == "exact":
        value = exact_probability(args.p, args.k, args.d, convention)
        report["value"] = _fraction_json(value)
        line = f"exact probability: {_rational(value)} = {float(value):.6f} ({convention.value})"
    elif mode == "bound":
        value = union_lower_bound(args.d)
        report["value"] = _fraction_json(value)
        line = f"union lower bound: {_rational(value)} = {float(value):.6f}"
    elif mode == "census":
        census = exhaustive_census(args.p, args.k, args.d, convention, seed=args.seed,
                                   bound=args.census_bound, work_bound=args.work_bound)
        report["census"] = {
            "irreducible_count": str(census.irreducible_count),
            "total": str(census.total),
            "fraction": _fraction_json(census.fraction),
        }
        line = (
            f"census: {census.irreducible_count}/{census.total} irreducible "
            f"= {report['census']['fraction']['decimal']} (q={census.q}, {convention.value})"
        )
    else:
        mc = monte_carlo_estimate(args.p, args.k, args.d, args.sample, args.seed,
                                  work_bound=args.work_bound)
        report["sample"] = {
            "trials": str(mc.trials),
            "successes": str(mc.successes),
            "estimate": _fraction_json(mc.estimate),
            "stderr": f"{mc.stderr:.6f}",
            "seed": str(args.seed),
            "modulus": None if mc.modulus is None else render_poly(mc.modulus),
        }
        line = (
            f"estimate: {float(mc.estimate):.4f} +/- {mc.stderr:.4f} "
            f"(successes {mc.successes}/{mc.trials}, seed {args.seed})"
        )
    _emit(args, report, [line])
    return 0


def cmd_bench(args) -> int:
    b = parse_poly(args.start, PrimeField(args.p))
    if not rabin_test(b, work_bound=args.work_bound).irreducible:
        raise ReducibleInputError(f"start polynomial is reducible over GF({args.p})")
    schedule = _schedule(args.schedule)
    if not schedule:
        raise CapelliError("empty schedule")

    steps = []
    lines = [
        f"{'step':>4} {'d':>3} {'degree':>7} {'verdict':>12} {'criterion':>12} "
        f"{'oracle':>12} {'speedup':>9} {'crit ms':>9} {'orc ms':>9}"
    ]
    for i, d in enumerate(schedule):
        race = _race(b, d, args.work_bound, trusted=True)
        (verdict, criterion_mults, criterion_ms), (oracle, oracle_mults, oracle_ms), composed = race
        if d == 1:
            speedup = "1.000"
        elif criterion_mults == 0:
            speedup = "inf"  # the criterion did no multiplications at all
        else:
            speedup = f"{oracle_mults / criterion_mults:.3f}"
        row = {
            "step": str(i),
            "d": str(d),
            "degree": str(composed.degree),
            "verdict": "irreducible" if verdict.irreducible else "reducible",
            "criterion_mults": str(criterion_mults),
            "oracle_mults": str(oracle_mults),
            "speedup": speedup,
        }
        steps.append(row)
        lines.append(
            f"{row['step']:>4} {row['d']:>3} {row['degree']:>7} {row['verdict']:>12} "
            f"{row['criterion_mults']:>12} {row['oracle_mults']:>12} {row['speedup']:>9} "
            f"{criterion_ms:>9.2f} {oracle_ms:>9.2f}"
        )
        disagrees = oracle.irreducible != verdict.irreducible
        rejected = not verdict.irreducible
        if disagrees or rejected:
            break
        b = composed
    if rejected:
        lines.append("stopped: step rejected")

    report = {
        "p": str(args.p),
        "input": args.start,
        "schedule": args.schedule,
        "complete": not (rejected or disagrees),
        "steps": steps,
    }
    _emit(args, report, lines)
    if disagrees:
        print(f"error: criterion and oracle disagree at step {i}", file=sys.stderr)
        return 2
    return 1 if rejected else 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capelli",
        description="Irreducibility of b(x^d) by power-residue tests, sparse "
        "irreducible towers, and exact irreducibility probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def work_bound(text: str) -> Optional[int]:
        return int(text) or None  # 0 = unlimited

    def add_common(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--work-bound", type=work_bound, default=DEFAULT_WORK_BOUND,
                       help="oracle work budget in multiplications; 0 = unlimited")

    t = sub.add_parser("test", help="decide whether b(x^d) is irreducible")
    t.add_argument("-p", type=int, required=True, help="field characteristic (prime)")
    t.add_argument("--poly", help='b in text form, e.g. "x^2+x+1"')
    t.add_argument("--coeffs", help="b as a JSON array of little-endian coefficients")
    t.add_argument("-d", type=int, required=True, help="composition power")
    t.add_argument("--oracle", action="store_true", help="also run the Rabin oracle on b(x^d)")
    add_common(t)
    t.set_defaults(func=cmd_test)

    g = sub.add_parser("generate", help="grow a certified sparse irreducible tower")
    g.add_argument("-p", type=int, required=True)
    g.add_argument("--target-degree", type=int, help="grow until the degree reaches this")
    g.add_argument("--schedule", help="comma-separated step sizes, e.g. 3,3")
    g.add_argument("--start", help="starting polynomial (default: first viable degree-2)")
    g.add_argument("--paranoid", action="store_true", help="re-run the oracle at every step")
    g.add_argument("--cert-out", help="write the tower certificate to this JSON file")
    g.add_argument("--candidate-bound", type=int, default=DEFAULT_CANDIDATE_BOUND,
                   help="largest prime step size the auto policy will try")
    add_common(g)
    g.set_defaults(func=cmd_generate)

    pr = sub.add_parser("prob", help="probability that x^d - alpha is irreducible")
    pr.add_argument("-p", type=int)
    pr.add_argument("-k", type=int)
    pr.add_argument("-d", type=int, required=True)
    pr.add_argument("--exact", action="store_true", help="closed-form exact probability")
    pr.add_argument("--bound", action="store_true", help="union lower bound (needs only -d)")
    pr.add_argument("--census", action="store_true", help="exhaustive count over the field")
    pr.add_argument("--sample", type=int, metavar="N", help="Monte Carlo with N trials")
    pr.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    pr.add_argument("--include-zero", action="store_true", help="draw alpha from the whole field")
    pr.add_argument("--census-bound", type=int, default=DEFAULT_ENUMERATION_BOUND,
                    help="largest field order the census will enumerate")
    add_common(pr)
    pr.set_defaults(func=cmd_prob)

    b = sub.add_parser("bench", help="criterion vs oracle work along a tower")
    b.add_argument("-p", type=int, required=True)
    b.add_argument("--start", required=True)
    b.add_argument("--schedule", required=True)
    add_common(b)
    b.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TowerStepRejectedError as exc:
        report = {"error": "step-rejected", "step": str(exc.step_index), "d": str(exc.d)}
        if exc.verdict is not None:
            report.update(_verdict_json(exc.verdict))
        _emit(args, report, [f"error: {exc}"], file=sys.stderr)
        return 1
    except NoViableStepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReducibleInputError as exc:
        print(f"error: reducible input polynomial: {exc}", file=sys.stderr)
        return 2
    except (CapelliError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def run() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
