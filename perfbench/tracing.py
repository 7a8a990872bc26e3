"""Spans and counters recorded around the simulator's layer boundaries.

Everything here works by temporarily rebinding module attributes, so the
package under test is not modified: the simulator calls the names it
imported (`local_train`, `estimate_truth`, `stream`, ...) through its own
module namespace, and the aggregators look each other up through theirs.

Spans live in memory as (id, parent, name, start, end) tuples and are
written out once the run ends. A round span runs from one call of
`select_round_roster` to the next; the last one ends with the harness span
around `run_experiment`.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import fedtruth.aggregators
import fedtruth.simulator
import fedtruth.truth
import fedtruth.vectors

import calibration

ROUND = "simulator.round"
ROSTER = "select_round_roster"

DATA_SETUP = ("synth_blobs", "partition_label_skew", "backdoor_eval_set")
DATA_POISON = ("apply_trigger", "dba_shards", "edge_case_augment")
# names the simulator imports, grouped by the layer they belong to
SIMULATOR_NAMES = {
    "training": ("local_train", "extract_update", "evaluate", "predict"),
    "truth": ("estimate_truth", "estimate_truth_layered"),
    "attacks": ("boost_update", "gaussian_noise", "constrain_and_scale",
                "pgd_project"),
    "data": DATA_SETUP + DATA_POISON,
    "rng": ("stream",),
    "simulator": (ROSTER, "apply_global_update"),
}
AGGREGATOR_NAMES = ("fedavg", "krum_select", "coordinate_median",
                    "trimmed_mean", "fltrust", "fltrust_trust_scores",
                    "flame", "flame_survivors")


@contextlib.contextmanager
def patched(module, name: str, make: Callable) -> Iterator[None]:
    """Rebind `module.name` to `make(original)` for the duration.

    A name the module no longer has is left alone, so its metrics read 0.
    """
    original = getattr(module, name, None)
    if original is None:
        yield
        return
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def stamp_rounds(stamps: List[Tuple[float, float]],
                 bursts: Optional[List[float]] = None):
    """Roster wrapper that timestamps every round boundary.

    Each call appends (arrived, left): `arrived` ends the previous round
    (or the setup), `left` starts the next one. With `bursts`, the
    calibration kernel runs in between and its time goes to `bursts`, so
    it falls inside no round.
    """
    def make(fn):
        def wrapper(*args, **kwargs):
            arrived = left = time.perf_counter()
            if bursts is not None:
                bursts.append(calibration.burst())
                left = time.perf_counter()
            stamps.append((arrived, left))
            return fn(*args, **kwargs)
        return wrapper
    return patched(fedtruth.simulator, ROSTER, make)


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self):
        self.spans: List[list] = []  # [id, parent, name, start, end]
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.iterations_max = 0

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([span_id, parent, name, time.perf_counter(), None])
        self.stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        """End `span_id` and any span still open inside it (the last
        round of a run, or spans cut short by an exception)."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][4] = now
            if top == span_id:
                break

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self.open(name)
        try:
            yield
        finally:
            self.close(span_id)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn: Callable,
               after: Optional[Callable] = None) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def _count_sgd_steps(self, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        def after(_result, args, kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            cfg = bound["cfg"]
            self.counts["sgd_steps"] += cfg.local_epochs * math.ceil(
                len(bound["ds"]) / cfg.batch_size)
        return after

    def _record_estimates(self, estimates) -> None:
        for est in estimates:
            self.counts["estimates"] += 1
            self.counts["iterations"] += est.iterations
            self.counts["at_cap"] += not est.converged
            self.iterations_max = max(self.iterations_max, est.iterations)

    def _make(self, layer: str, name: str) -> Callable:
        span_name = f"{layer}.{name}"

        def make(fn):
            if name == ROSTER:
                timed = self._timed(span_name, fn)

                def roster(*args, **kwargs):
                    if self.stack and self.spans[self.stack[-1]][2] == ROUND:
                        self.close(self.stack[-1])
                    self.open(ROUND)
                    return timed(*args, **kwargs)
                return roster
            after = None
            if name == "local_train":
                after = self._count_sgd_steps(fn)
            elif name == "estimate_truth":
                def after(est, _args, _kwargs):
                    self._record_estimates([est])
            elif name == "estimate_truth_layered":
                def after(result, _args, _kwargs):
                    self._record_estimates(result[1])
            return self._timed(span_name, fn, after)
        return make

    def _count_only(self, key: str, weight: Callable) -> Callable:
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key] += weight(args)
                return fn(*args, **kwargs)
            return wrapper
        return make

    @contextlib.contextmanager
    def installed(self, stamps: List[Tuple[float, float]]) -> Iterator[None]:
        """Wrap every traced boundary; roster calls also append to stamps
        (without calibration bursts, which would land inside spans)."""
        with contextlib.ExitStack() as stack:
            for layer, names in SIMULATOR_NAMES.items():
                for name in names:
                    stack.enter_context(patched(
                        fedtruth.simulator, name, self._make(layer, name)))
            for name in AGGREGATOR_NAMES:
                stack.enter_context(patched(
                    fedtruth.aggregators, name,
                    self._make("aggregators", name)))
            stack.enter_context(patched(
                fedtruth.vectors, "as_vector",
                self._count_only("as_vector", lambda args: 1)))
            stack.enter_context(patched(
                fedtruth.truth, "distances_to",
                self._count_only("distance_evals",
                                 lambda args: len(args[2]))))
            stack.enter_context(stamp_rounds(stamps))
            yield

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, passes: int,
                      aggregate_s: float) -> Dict[str, float]:
        """Per-layer totals per workload pass (ratios are not divided)."""
        dur: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        children: Dict[int, List[list]] = defaultdict(list)
        for span in self.spans:
            dur[span[2]] += span[4] - span[3]
            calls[span[2]] += 1
            if span[1] is not None:
                children[span[1]].append(span)
        round_self = sum(self_time(s, children[s[0]])
                         for s in self.spans if s[2] == ROUND)
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        truth_s = dur["truth.estimate_truth"] \
            + dur["truth.estimate_truth_layered"]
        per_pass = {
            "training.local_train_calls": calls["training.local_train"],
            "training.local_train_s": dur["training.local_train"],
            "training.sgd_steps": c["sgd_steps"],
            "training.extract_update_s": dur["training.extract_update"],
            "training.eval_s": dur["training.evaluate"]
            + dur["training.predict"],
            "truth.estimate_calls": calls["truth.estimate_truth"],
            "truth.estimate_s": dur["truth.estimate_truth"],
            "truth.layered_s": dur["truth.estimate_truth_layered"],
            "truth.iterations": c["iterations"],
            "truth.distance_evals": c["distance_evals"],
            **{f"aggregators.{name}_s": dur[f"aggregators.{name}"]
               for name in AGGREGATOR_NAMES},
            "aggregators.flame_survivors_calls":
                calls["aggregators.flame_survivors"],
            "aggregators.fltrust_trust_scores_calls":
                calls["aggregators.fltrust_trust_scores"],
            "rng.stream_calls": calls["rng.stream"],
            "rng.stream_s": dur["rng.stream"],
            "data.setup_s": sum(dur[f"data.{n}"] for n in DATA_SETUP),
            "data.poison_calls": sum(calls[f"data.{n}"] for n in DATA_POISON),
            "data.poison_s": sum(dur[f"data.{n}"] for n in DATA_POISON),
            "attacks.calls": sum(calls[f"attacks.{n}"]
                                 for n in SIMULATOR_NAMES["attacks"]),
            "attacks.s": sum(dur[f"attacks.{n}"]
                             for n in SIMULATOR_NAMES["attacks"]),
            "vectors.as_vector_calls": c["as_vector"],
            "simulator.aggregate_s": aggregate_s,
            "simulator.roster_s": dur[f"simulator.{ROSTER}"],
            "simulator.apply_global_update_s":
                dur["simulator.apply_global_update"],
            "simulator.self_s": round_self,
            "cli.write_s": dur["harness.write"],
        }
        metrics = {k: v / passes for k, v in per_pass.items()}
        metrics.update({
            "training.us_per_sgd_step":
                1e6 * ratio(dur["training.local_train"], c["sgd_steps"]),
            "truth.iterations_max": self.iterations_max,
            "truth.at_cap_frac": ratio(c["at_cap"], c["estimates"]),
            "truth.us_per_iteration": 1e6 * ratio(truth_s, c["iterations"]),
        })
        return metrics


def self_time(span: list, children: List[list]) -> float:
    """Duration minus the part of it that child spans cover."""
    start, end = span[3], span[4]
    covered, reach = 0.0, start
    for child in sorted(children, key=lambda s: s[3]):
        lo, hi = max(child[3], reach), min(child[4], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered
