"""The benchmark's workloads: inputs, timed phases and output checks.

A workload runs in rounds. Each round imports capelli afresh (so its
caches start cold, as in a new process), builds its inputs, runs its three
timed phases, and then checks every output against ``checks``. All rounds
of a run repeat the same operations, so work counts repeat exactly.

The program is always reached through the module objects of the current
import (``mods.criterion.grow_tower`` and so on), so the tracer's wrappers,
installed on those modules, see every call the benchmark makes.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from typing import ClassVar
from types import SimpleNamespace

import checks
from tracing import Tracer, install, layer_metrics

MODULES = ("ff", "criterion", "oracle", "prob", "intops", "polytext", "errors")

# The phases every workload times, in order; each workload names its own.
PHASE_METRICS = ("generate_or_census_s", "replay_or_sample_s", "confirm_or_sweep_s")

# Largest d of the census grid and of the criterion/oracle sweep.
D_MAX = 12


def fresh_import():
    """Import capelli from scratch and return its modules."""
    for name in [n for n in sys.modules if n == "capelli" or n.startswith("capelli.")]:
        del sys.modules[name]
    importlib.import_module("capelli")
    return SimpleNamespace(**{m: sys.modules["capelli." + m] for m in MODULES})


class Round:
    """Operation bookkeeping and phase timing for one round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.times = {}  # phase -> seconds

    def op(self, label, fn, *args, **kwargs):
        """Run one program operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any escape is a failed operation, not a crash
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def skip(self, count):
        """Operations of the round that could not start after a failure."""
        self.attempted += count
        self.failed += count

    def timed(self, name, fn):
        start = time.perf_counter()
        if self.tracer is None:
            result = fn()
        else:
            with self.tracer.span(name):
                result = fn()
        self.times[name] = time.perf_counter() - start
        return result


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TowerSpec:
    """Grow, round-trip, replay and confirm one sparse irreducible tower.

    ``schedule`` fixes the step sizes; without it the tower grows by the
    program's own candidate search until ``final_degree``. Either way the
    final polynomial must have degree ``final_degree``, and the tower's
    member of degree ``confirm_degree`` is confirmed with the Rabin oracle.
    """

    p: int
    base: tuple
    final_degree: int
    confirm_degree: int
    schedule: tuple = ()
    phases: ClassVar[tuple] = ("generate", "replay", "confirm")

    def setup(self, mods, seed):
        return mods.ff.Poly(mods.ff.PrimeField(self.p), self.base)

    def run(self, mods, b0, rnd):
        criterion, oracle, polytext = mods.criterion, mods.oracle, mods.polytext

        def generate():
            if self.schedule:
                return criterion.grow_tower(b0, self.schedule)
            return criterion.grow_tower(b0, target_degree=self.final_degree)

        cert = rnd.timed("generate", lambda: rnd.op("grow_tower", generate))
        if cert is None:
            rnd.skip(3)
            return None

        def round_trip():
            # what `capelli generate --cert-out` writes and a later replay reads
            doc = json.loads(json.dumps(cert.to_json_dict()))
            back = criterion.TowerCertificate.from_json_dict(doc)
            final = back.final_polynomial()
            parsed = polytext.parse_poly(polytext.render_poly(final), b0.field)
            return back, final, parsed

        trip = rnd.timed("cli.cert_json", lambda: rnd.op("certificate round trip", round_trip))
        if trip is None:
            rnd.skip(2)
            return None
        back, final, parsed = trip
        replayed = rnd.timed("replay", lambda: rnd.op("replay_certificate",
                                                      self.replay, mods, back))

        def confirm():
            member = b0
            for step in cert.steps:
                if member.degree >= self.confirm_degree:
                    break
                member = mods.ff.compose_power(member, step.d)
            return member.degree, oracle.rabin_test(member, work_bound=None).irreducible

        confirmed = rnd.timed("confirm", lambda: rnd.op("rabin_test", confirm))
        return cert, back, final, parsed, replayed, confirmed

    @staticmethod
    def replay(mods, cert):
        """True, or the error with which replay rejected the certificate."""
        try:
            return mods.criterion.replay_certificate(cert)
        except mods.errors.CertificateReplayError as exc:
            return exc

    def check(self, outputs, b0):
        cert, back, final, parsed, replayed, confirmed = outputs
        checks.require(back == cert, "certificate changed in its JSON round trip")
        checks.require(parsed == final, "final polynomial changed in its text round trip")
        checks.require(final.degree == cert.final_degree == self.final_degree,
                       f"final degree {final.degree} (certificate: {cert.final_degree}), "
                       f"expected {self.final_degree}")
        checks.require(replayed is True or replayed is None,
                       f"replay rejected the certificate: {replayed}")
        # p = 2: f(x^t) with t = deg/deg f; otherwise the binomial x^deg + c
        m = len(self.base) - 1
        if self.p == 2:
            mask = sum(1 << i for i, c in enumerate(self.base) if c)
            checks.check_tower_p2(mask, final.degree // m, final.coeffs)
            checks.check_p2_residues(mask, cert.steps)
        else:
            checks.check_binomial_tower(self.p, self.base[0], final.degree, final.coeffs)
            checks.check_binomial_residues(self.p, self.base[0], cert.steps)
        if confirmed is not None:
            degree, irreducible = confirmed
            checks.require(degree == self.confirm_degree,
                           f"confirmed a member of degree {degree}, "
                           f"expected {self.confirm_degree}")
            if self.p == 2:
                certified = checks.p2_member_irreducible(mask, degree // m)
            else:
                certified = checks.is_binomial_irreducible(self.p, -self.base[0], degree)
            checks.check_member(f"the degree-{degree} member", irreducible, certified)

    def work(self, b0):
        return {}


# ---------------------------------------------------------------------------
# small fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallFieldsSpec:
    """Many tiny decisions: a census grid, Monte Carlo, and an oracle sweep.

    census: every (p, k, d) with p^k <= census_cap and 2 <= d <= D_MAX.
    sample: ``monte_carlo_estimate`` on each (p, k, d, trials) in ``samples``,
      seeded from the run's seed.
    sweep: every monic irreducible b over F_p with p in ``sweep_primes``,
      deg b <= 3 and p^deg b <= sweep_cap, against every 2 <= d <= D_MAX:
      the criterion, the Rabin test on b(x^d), and trial division when
      p^(deg/2) <= trial_cap for the composition's degree.
    """

    census_cap: int
    samples: tuple
    sweep_primes: tuple
    sweep_cap: int
    trial_cap: int
    phases: ClassVar[tuple] = ("census", "sample", "sweep")

    def census_grid(self):
        grid = []
        for p in range(2, self.census_cap + 1):
            if checks.prime_factors(p) != [p]:
                continue
            k = 1
            while p**k <= self.census_cap:
                grid.extend((p, k, d) for d in range(2, D_MAX + 1))
                k += 1
        return grid

    def setup(self, mods, seed):
        ff, oracle = mods.ff, mods.oracle
        irreducibles = {}
        for p in self.sweep_primes:
            field = ff.PrimeField(p)
            m = 1
            while m <= 3 and p**m <= self.sweep_cap:
                irreducibles[(p, m)] = list(oracle.enumerate_irreducibles(field, m))
                m += 1
        pairs = [(b, d) for found in irreducibles.values() for b in found
                 for d in range(2, D_MAX + 1)]
        rng = random.Random(seed)
        sample_seeds = [rng.randrange(2**32) for _ in self.samples]
        return SimpleNamespace(irreducibles=irreducibles, pairs=pairs,
                               grid=self.census_grid(), sample_seeds=sample_seeds)

    def run(self, mods, inputs, rnd):
        ff, criterion, oracle, prob = mods.ff, mods.criterion, mods.oracle, mods.prob

        def census():
            return [rnd.op(f"census {cell}", prob.exhaustive_census, *cell,
                           oracle_fraction=0.0) for cell in inputs.grid]

        def sample():
            return [rnd.op(f"sample {spec}", prob.monte_carlo_estimate, *spec, seed=s)
                    for spec, s in zip(self.samples, inputs.sample_seeds)]

        def sweep():
            def one(b, d):
                fast = criterion.decide_b_xd(b, d, trusted=True).irreducible
                composed = ff.compose_power(b, d)
                rabin = oracle.rabin_test(composed).irreducible
                trial = None
                if b.field.p ** (composed.degree // 2) <= self.trial_cap:
                    trial = oracle.trial_division_test(composed).irreducible
                return fast, rabin, trial

            return [rnd.op(f"sweep {b.coeffs} d={d}", one, b, d) for b, d in inputs.pairs]

        return (rnd.timed("census", census), rnd.timed("sample", sample),
                rnd.timed("sweep", sweep))

    def check(self, outputs, inputs):
        census, samples, sweep = outputs
        for (p, m), found in inputs.irreducibles.items():
            checks.check_enumeration(p, m, len(found))
        for (p, k, d), result in zip(inputs.grid, census):
            if result is not None:
                checks.check_census(p**k, d, result.irreducible_count)
        for (p, k, d, trials), result in zip(self.samples, samples):
            if result is not None:
                checks.require(result.trials == trials, f"Monte Carlo q={p**k} d={d}: "
                               f"{result.trials} trials, {trials} requested")
                checks.check_monte_carlo(p**k, d, result.successes, result.trials)
        for (b, d), verdicts in zip(inputs.pairs, sweep):
            if verdicts is not None:
                checks.check_agreement(f"b={b.coeffs} over F_{b.field.p}, d={d}", *verdicts)

    def work(self, inputs):
        """Units of work per phase, for the throughput lines on stderr."""
        return {"census": sum(p**k - 1 for p, k, _ in inputs.grid),
                "sample": sum(s[3] for s in self.samples),
                "sweep": len(inputs.pairs)}


WORD_P = 2**61 - 1

WORKLOADS = {
    # p = 2, x^2+x+1 -> degree 4374 by seven d = 3 steps; large-m numpy kernels
    "tower-p2": TowerSpec(p=2, base=(1, 1, 1), final_degree=4374, confirm_degree=1458,
                          schedule=(3,) * 7),
    # p = 2^61-1 overflows int64 products, so every kernel runs in pure Python
    "tower-wordp": TowerSpec(p=WORD_P, base=(2, 0, 1), final_degree=7442,
                             confirm_degree=122),
    "small-fields": SmallFieldsSpec(
        census_cap=512,
        samples=((3, 6, 4, 6000), (WORD_P, 1, 6, 30000)),
        sweep_primes=(2, 3, 5, 7, 11, 13),
        sweep_cap=343,
        trial_cap=4096,
    ),
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


@dataclass
class RoundResult:
    setup_s: list
    wall_s: float
    times: dict
    attempted: int
    failed: int
    errors: list
    check_error: str = ""
    layers: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)


SETUPS_PER_ROUND = 5


def run_round(spec, seed, *, traced=False, trace_path=None, round_id=0):
    """Set up (several times, keeping the last), run and check one round."""
    setup_s = []
    tracer = None
    for i in range(SETUPS_PER_ROUND):
        start = time.perf_counter()
        mods = fresh_import()
        if traced and i == SETUPS_PER_ROUND - 1:
            tracer = Tracer(mods.ff.count_mults)
            install(tracer, mods)
            with mods.ff.count_mults() as setup_work:
                with tracer.span("setup"):
                    inputs = spec.setup(mods, seed)
        else:
            inputs = spec.setup(mods, seed)
        setup_s.append(time.perf_counter() - start)

    rnd = Round(tracer)
    start = time.perf_counter()
    if tracer is None:
        outputs = spec.run(mods, inputs, rnd)
    else:
        with mods.ff.count_mults() as round_work:
            outputs = spec.run(mods, inputs, rnd)
    wall = time.perf_counter() - start

    result = RoundResult(setup_s, wall, rnd.times, rnd.attempted, rnd.failed, rnd.errors,
                         work=spec.work(inputs))
    try:
        if outputs is not None:
            spec.check(outputs, inputs)
    except Exception as exc:  # a malformed output may break a check in any way
        result.check_error = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        dpf = mods.intops.distinct_prime_factors.cache_info()
        result.layers = layer_metrics(tracer, dpf, setup_work() + round_work())
        if trace_path is not None:
            tracer.write(trace_path, round_id)
    return result
