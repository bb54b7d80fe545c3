"""Per-layer tracing from outside the program.

The tracer replaces public functions of capelli's modules with timing
wrappers, at the module name each caller looks up: ``grow_tower`` calls
``decide_b_xd`` through the globals of ``capelli.criterion``, and
``exhaustive_census`` calls ``decide_xd_minus_alpha`` through those of
``capelli.prob``, so both names are wrapped. Methods are wrapped on their
class. Nothing inside the program changes.

Every wrapped call pushes a frame; its self time is its duration minus
that of the wrapped calls it made. Calls at phase and layer boundaries are
kept as spans (name, start, end, parent). Hot leaf calls, such as
``ExtensionField.mul`` that the census makes millions of times, are only
aggregated, per parent span, so the traced run stays small in memory.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Frames, kept spans and per-name totals of one traced setup and round."""

    def __init__(self, count_mults):
        self._count_mults = count_mults
        self._frames = []  # one [child_s] list per open wrapped call
        self._open = []  # spans kept, innermost last
        self.spans = []
        self.totals = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self.grow_depth = 0

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _enter(self, name, keep):
        frame = [0.0]
        self._frames.append(frame)
        span = None
        if keep:
            parent = self._open[-1]["id"] if self._open else None
            span = {"id": len(self.spans), "parent": parent, "name": name, "hot": {}}
            self.spans.append(span)
            self._open.append(span)
        return frame, span, time.perf_counter()

    def _exit(self, name, frame, span, start):
        end = time.perf_counter()
        dur = end - start
        self._frames.pop()
        own = dur - frame[0]
        if self._frames:
            self._frames[-1][0] += dur
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += dur
        total[2] += own
        if span is not None:
            self._open.pop()
            span.update(start=start, end=end, self_s=own)
        elif self._open:
            hot = self._open[-1]["hot"].setdefault(name, [0, 0.0, 0.0])
            hot[0] += 1
            hot[1] += dur
            hot[2] += own
        return dur

    @contextmanager
    def span(self, name):
        """A kept span around a block of the benchmark's own code."""
        frame, span, start = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(name, frame, span, start)

    def wrap(self, name, fn, *, keep=False, after=None, meter=False):
        """fn with each call timed as ``name``.

        ``after(result, seconds)`` sees each call's result; with ``meter``
        the call's multiplications are added to the ``<name>.mults`` count.
        """
        tracer = self

        def traced(*args, **kwargs):
            frame, span, start = tracer._enter(name, keep)
            try:
                if meter:
                    with tracer._count_mults() as work:
                        result = fn(*args, **kwargs)
                    tracer.add(name + ".mults", work())
                else:
                    result = fn(*args, **kwargs)
            finally:
                dur = tracer._exit(name, frame, span, start)
            if after is not None:
                after(result, dur)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """A generator function with each resumption timed as ``name``."""
        tracer = self

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frame, span, start = tracer._enter(name, False)
                try:
                    item = next(items, StopIteration)
                finally:
                    tracer._exit(name, frame, span, start)
                if item is StopIteration:
                    return
                yield item

        return traced

    def write(self, path, round_id):
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(span, round=round_id)) + "\n")


def install(tracer, mods):
    """Wrap capelli's public functions in mods (a fresh import) for tracing."""
    ff, criterion, oracle, prob, intops = (
        mods.ff, mods.criterion, mods.oracle, mods.prob, mods.intops)

    def patch(name, owners, attr, **options):
        wrapped = tracer.wrap(name, getattr(owners[0], attr), **options)
        for owner in owners:
            setattr(owner, attr, wrapped)

    def count_tests(verdict, _):
        tracer.add("criterion.residue_tests", len(verdict.tests))

    def count_candidate(verdict, seconds):
        if tracer.grow_depth:
            tracer.add("criterion.step_candidates", 1)
            if not verdict.irreducible:
                tracer.add("criterion.rejected_s", seconds)

    grow = tracer.wrap("criterion.grow", criterion.grow_tower, keep=True,
                       after=lambda cert, _: tracer.add("criterion.steps_accepted",
                                                        len(cert.steps)))

    def grow_tower(*args, **kwargs):
        tracer.grow_depth += 1
        try:
            return grow(*args, **kwargs)
        finally:
            tracer.grow_depth -= 1

    criterion.grow_tower = grow_tower

    patch("ff.ext_mul", [ff.ExtensionField], "mul")
    patch("ff.ext_pow", [ff.ExtensionField], "pow")
    patch("ff.prime_pow", [ff.PrimeField], "pow")
    patch("ff.ext_field_build", [ff.ExtensionField], "__init__")
    patch("ff.compose_power", [ff, criterion], "compose_power")
    patch("criterion.decide", [criterion], "decide_b_xd", after=count_candidate)
    patch("criterion.decide", [criterion, prob], "decide_xd_minus_alpha",
          after=count_tests)
    patch("criterion.replay", [criterion], "replay_certificate", keep=True)
    patch("oracle.rabin", [oracle, criterion, prob], "rabin_test", keep=True,
          meter=True)
    patch("oracle.trial_division", [oracle], "trial_division_test", keep=True)
    patch("prob.census", [prob], "exhaustive_census", keep=True)
    patch("prob.sample", [prob], "monte_carlo_estimate", keep=True)
    patch("intops.is_prime", [intops, ff, criterion, prob], "is_prime")
    enumerate_irreducibles = tracer.wrap_generator(
        "oracle.enumerate", oracle.enumerate_irreducibles)
    oracle.enumerate_irreducibles = enumerate_irreducibles
    prob.enumerate_irreducibles = enumerate_irreducibles


# Unit of each per-layer figure; run.py adds the two trace.* figures.
LAYER_UNITS = {
    "ff.mults": "count",
    "ff.ext_mul.calls": "count",
    "ff.ext_mul.self_s": "s",
    "ff.ext_pow.calls": "count",
    "ff.ext_pow.self_s": "s",
    "ff.prime_pow.calls": "count",
    "ff.ext_field_build.s": "s",
    "ff.compose_power.s": "s",
    "criterion.decide.calls": "count",
    "criterion.decide.self_s": "s",
    "criterion.residue_tests": "count",
    "criterion.step_candidates": "count",
    "criterion.step_accept_ratio": "ratio",
    "criterion.rejected_s": "s",
    "criterion.replay.self_s": "s",
    "oracle.rabin.calls": "count",
    "oracle.rabin.s": "s",
    "oracle.rabin.mults": "count",
    "oracle.trial_division.calls": "count",
    "oracle.trial_division.s": "s",
    "oracle.enumerate.s": "s",
    "prob.census.self_s": "s",
    "prob.sample.self_s": "s",
    "intops.dpf.calls": "count",
    "intops.dpf.hit_ratio": "ratio",
    "intops.is_prime.calls": "count",
    "cli.cert_json_s": "s",
}


def layer_metrics(tracer, dpf_info, mults):
    """The per-layer figures of one traced setup and round."""
    def total(name, i):
        return tracer.totals.get(name, [0, 0.0, 0.0])[i]

    counts = tracer.counts
    candidates = counts.get("criterion.step_candidates", 0)
    dpf_calls = dpf_info.hits + dpf_info.misses
    return {
        "ff.mults": mults,
        "ff.ext_mul.calls": total("ff.ext_mul", 0),
        "ff.ext_mul.self_s": total("ff.ext_mul", 2),
        "ff.ext_pow.calls": total("ff.ext_pow", 0),
        "ff.ext_pow.self_s": total("ff.ext_pow", 2),
        "ff.prime_pow.calls": total("ff.prime_pow", 0),
        "ff.ext_field_build.s": total("ff.ext_field_build", 1),
        "ff.compose_power.s": total("ff.compose_power", 1),
        "criterion.decide.calls": total("criterion.decide", 0),
        "criterion.decide.self_s": total("criterion.decide", 2),
        "criterion.residue_tests": counts.get("criterion.residue_tests", 0),
        "criterion.step_candidates": candidates,
        "criterion.step_accept_ratio":
            counts.get("criterion.steps_accepted", 0) / candidates if candidates else 0.0,
        "criterion.rejected_s": counts.get("criterion.rejected_s", 0.0),
        "criterion.replay.self_s": total("criterion.replay", 2),
        "oracle.rabin.calls": total("oracle.rabin", 0),
        "oracle.rabin.s": total("oracle.rabin", 1),
        "oracle.rabin.mults": counts.get("oracle.rabin.mults", 0),
        "oracle.trial_division.calls": total("oracle.trial_division", 0),
        "oracle.trial_division.s": total("oracle.trial_division", 1),
        "oracle.enumerate.s": total("oracle.enumerate", 1),
        "prob.census.self_s": total("prob.census", 2),
        "prob.sample.self_s": total("prob.sample", 2),
        "intops.dpf.calls": dpf_calls,
        "intops.dpf.hit_ratio": dpf_info.hits / dpf_calls if dpf_calls else 0.0,
        "intops.is_prime.calls": total("intops.is_prime", 0),
        "cli.cert_json_s": total("cli.cert_json", 1),
    }
