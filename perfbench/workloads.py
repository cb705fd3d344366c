"""The benchmark's four workloads, driven through depgraphs' public API.

Each workload has three steps:

- `inputs(seed)` makes plain-data inputs from the workload seed alone;
- `setup(dg, inputs)` builds every model the workload uses and makes one
  warm-up call;
- `run_pass(dg, state, index, ctx)` does a fixed amount of work, times it
  part by part and checks every output.

Program calls go through module attributes (`dg.harness.run_experiment`,
`dg.oracle.exact_event_probability`, ...) at call time, so the span
wrappers of `spans.py` see them when a traced pass runs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

DEFAULT_SEED = 1

# trials per Monte Carlo grid point; one pass takes 1.5-2 s on a 2-core x86 host
MC_LARGE_TRIALS = 8
MC_SMALL_TRIALS = 300

# SHA-256 of each config's CSV at DEFAULT_SEED (workers=1 and workers=2 agree)
PINNED_CSV = {
    "mc-large": {
        "er-degree": "113b3ce8801d00372fe9bc16c43c7d0ac93ca3b6e2fc6282f96a90aa5d549f57",
        "star-degree": "c26ec83f71746d3ca449de78311d3f727588a41c7aacc5dd6f4dda8ecdf18589",
        "gadget-not-connected": "e4567564f9a00551ad1fa7dec241bbdc293bdc660533605a1fd2acd3e57d19da",
    },
    "mc-small": {
        "er-connected": "615f052989e1f4d17a1511781b40f63d8b705f88981efa2a5bcfcac3813f662f",
        "star-k4": "4b28b6f7f878cb5084417af7b745681570d4761234343a18bf7dfa5f4af64ce4",
        "edge-block-isolated": "716a570ee9334009c19e6ebda1a2a5655d479ba4c34ee33967a4f1d371dc249d",
        "er-clique": "5b587e85220c1707bf2d98411e417095ae9955e30a865de0908d78887aa0a10b",
    },
}

# exact values of input-free queries, computed once and pinned
STAR7_K3 = Fraction(1065811, 1594323)      # correlated_star(7, 1/3, 2), contains:k3
PHI_K6_IN_8 = 32399670632.018284           # any k6 placement among 8 vertices

AUDIT_TRIALS = 20000        # the CLI's default
JUMBLEDNESS_N = 12
JUMBLEDNESS_C = 1.0         # small enough that most scans report a violation
PHI_VERTICES = 8            # k6 placed on 6 of 8 labelled vertices
PHI_ARGS = (500, 0.2, 3)    # n, p, d

# nominal seconds of reference(), about its time on a 2-vCPU 2.0 GHz Xeon VM
REFERENCE_S = 0.01


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def reference() -> float:
    """Run fixed work that shares no code with depgraphs; return its seconds.

    On a host shared with other tenants, speed drifts by up to 2x within
    minutes.  Interpreter-bound and array-bound code slow down by different
    amounts, so the kernel mixes both: a Python loop and a 4 MiB numpy
    sweep.  Timing it right before each measured part lets the benchmark
    express its timings at the host's nominal speed (see `Pass`).
    """
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(20000):
        acc += (i * 2654435761 & 0xFFFF).bit_count()
        table[i & 1023] = (i, acc)
    a = np.arange(1 << 19, dtype=np.float64)
    for _ in range(3):
        acc += int(np.count_nonzero(np.sqrt(a) < 300.0))
    return time.perf_counter() - t0


class Pass:
    """Timings, outputs and check results of one pass.

    `reference()` runs right before each timed part, outside the part's
    timing.  A part's nominal seconds are its seconds scaled by
    REFERENCE_S / that reference time, i.e. what the part would have taken
    on the host at nominal speed.  `ref_s` is the total reference time in
    the pass, which `run.py` takes out of the pass wall time.
    """

    def __init__(self):
        self.parts: dict[str, list[float]] = {}  # metric -> [work, s, nominal s]
        self.outputs: dict[str, str] = {}        # label -> digest
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}
        self.refs: list[float] = []
        self.ref_s = 0.0
        self.wall = 0.0

    @contextmanager
    def timed(self, metric: str, work: int):
        ref = reference()
        self.refs.append(ref)
        self.ref_s += ref
        t0 = time.perf_counter()
        yield
        dt = time.perf_counter() - t0
        part = self.parts.setdefault(metric, [0, 0.0, 0.0])
        part[0] += work
        part[1] += dt
        part[2] += dt * REFERENCE_S / ref

    def slowdown(self) -> float:
        """How much slower than nominal the host ran during this pass."""
        return statistics.median(self.refs) / REFERENCE_S

    def nominal_wall(self) -> float:
        """The pass wall time at nominal host speed: timed parts scaled by
        their own reference, the rest by the pass's median reference."""
        raw = sum(part[1] for part in self.parts.values())
        nominal = sum(part[2] for part in self.parts.values())
        return nominal + (self.wall - raw) / self.slowdown()

    def op(self, label: str, fn):
        """Run one checked operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as exc:      # any raise is a failed operation
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def output(self, label: str, text: str) -> str:
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.outputs[label] = digest
        return digest

    def rates(self, nominal: bool = True) -> dict[str, float]:
        """Work per second of each part, at nominal host speed by default."""
        col = 2 if nominal else 1
        return {m: part[0] / part[col] for m, part in self.parts.items() if part[col] > 0}


# -- Monte Carlo: mc-large and mc-small ----------------------------------

def _mc_large_configs(seed: int) -> list[tuple[str, dict]]:
    rnd = _rng("mc-large", seed)
    n = 2000
    ln = math.log(n)
    # p for the gadget is half the example threshold (1-eps)(d+1)ln(n/sqrt(d+1))/n
    gadget_p = 0.5 * 0.9 * 16 * math.log(n / 4.0) / n
    return [
        ("er-degree", dict(task="degree-violation", kind="er", ns=(n,),
                           ps=(2 * ln / n,), trials=MC_LARGE_TRIALS,
                           seed=rnd.getrandbits(32))),
        ("star-degree", dict(task="degree-violation", kind="star", ns=(n,),
                             ps=(8 * ln / n,), ds=(7,), trials=MC_LARGE_TRIALS,
                             seed=rnd.getrandbits(32))),
        ("gadget-not-connected", dict(task="probability", kind="gadget", ns=(n,),
                                      ps=(gadget_p,), ds=(15,),
                                      trials=MC_LARGE_TRIALS,
                                      predicate="not-connected",
                                      seed=rnd.getrandbits(32))),
    ]


def _mc_small_configs(seed: int) -> list[tuple[str, dict]]:
    rnd = _rng("mc-small", seed)
    t = MC_SMALL_TRIALS
    return [
        ("er-connected", dict(task="probability", kind="er", ns=(10, 20, 30, 50),
                              ps=(Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)),
                              trials=t, predicate="connected",
                              seed=rnd.getrandbits(32))),
        ("star-k4", dict(task="probability", kind="star", ns=(20, 40),
                         ps=(Fraction(3, 10), Fraction(1, 2)), ds=(1, 3),
                         trials=t, predicate="contains:k4",
                         seed=rnd.getrandbits(32))),
        ("edge-block-isolated", dict(task="probability", kind="edge-block",
                                     ns=(9, 16, 33, 48), a=1, m=3, trials=t,
                                     predicate="isolated-vertex",
                                     seed=rnd.getrandbits(32))),
        ("er-clique", dict(task="clique", kind="er", ns=(40,), ps=(Fraction(1, 2),),
                           trials=t, seed=rnd.getrandbits(32))),
    ]


def mc_inputs(name: str, seed: int) -> dict:
    configs = (_mc_large_configs if name == "mc-large" else _mc_small_configs)(seed)
    return {"name": name, "seed": seed, "configs": configs}


def mc_setup(dg, inputs: dict, workers_par: int) -> dict:
    models = []
    for _, cfg in inputs["configs"]:
        config = dg.ExperimentConfig(**cfg)
        for pt in config.grid_points():
            models.append(dg.build(pt["kind"], pt["n"], p=pt["p"], d=pt["d"],
                                   a=pt["a"], m=pt["m"]))
    dg.sample(models[0], inputs["seed"])
    return {**inputs, "models": models, "workers_par": workers_par}


def mc_pass(dg, state: dict, index: int, ctx: Pass) -> None:
    pinned = PINNED_CSV[state["name"]] if state["seed"] == DEFAULT_SEED else {}
    par = state["workers_par"]
    for label, cfg in state["configs"]:
        csvs = []
        for workers, metric in ((1, "trials_per_s"), (par, "trials_per_s_par")):
            config = dg.ExperimentConfig(workers=workers, **cfg)
            trials = config.trials * len(config.grid_points())

            def run(config=config, metric=metric, trials=trials):
                with ctx.timed(metric, trials):
                    result = dg.harness.run_experiment(config)
                errors = [pt.error for pt in result.points if pt.error is not None]
                csvs.append(result.to_csv())
                return not errors, f"point errors {errors}"
            ctx.op(f"{label} workers={workers}", run)
        if len(csvs) != 2:
            continue
        digest = ctx.output(label, csvs[0])
        ctx.op(f"{label} csv workers=1 vs {par}",
               lambda: (csvs[0] == csvs[1], "CSV bytes differ across worker counts"))
        if label in pinned:
            ctx.op(f"{label} pinned digest",
                   lambda: (digest == pinned[label], f"digest {digest}"))


# -- exact: oracle and theory sums ---------------------------------------

def _bernoulli_outcomes(kind: str, n: int, d: int) -> int:
    """2^(latent coins) for the er and star constructions, from their
    definitions: a star has one coin per outside vertex plus private coins."""
    slots = n * (n - 1) // 2
    if kind == "er" or d == 0:
        return 2 ** slots
    outside = n - d - 1
    return 2 ** (outside + slots - outside * (d + 1))


def _edge_block_outcomes(n: int, a: int, m: int) -> int:
    return math.comb(m, a) ** (n * (n - 1) // 2 // m)


def exact_inputs(seed: int) -> dict:
    rnd = _rng("exact", seed)
    graphs = []
    for p, d in ((0.3, 0), (0.5, 2)):
        edges = [(u, v) for v in range(JUMBLEDNESS_N) for u in range(v)
                 if rnd.random() < p]
        graphs.append((edges, p, d))
    placements = list(itertools.combinations(range(PHI_VERTICES), 6))
    rnd.shuffle(placements)
    return {"seed": seed, "jumbledness": graphs, "phi_placements": placements}


def exact_setup(dg, inputs: dict) -> dict:
    half, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    events = [
        ("er6-connected", dg.erdos_renyi(6, half), "connected",
         _bernoulli_outcomes("er", 6, 0)),
        ("star7-k3", dg.correlated_star(7, third, 2), "contains:k3",
         _bernoulli_outcomes("star", 7, 2)),
    ]
    marginals = [
        ("edge-block-6-1-3", dg.edge_block_exact(6, 1, 3), _edge_block_outcomes(6, 1, 3)),
        ("edge-block-7-2-3", dg.edge_block_exact(7, 2, 3), _edge_block_outcomes(7, 2, 3)),
        ("star6-d2", dg.correlated_star(6, quarter, 2), _bernoulli_outcomes("star", 6, 2)),
        ("er5", dg.erdos_renyi(5, Fraction(2, 5)), _bernoulli_outcomes("er", 5, 0)),
    ]
    jumbledness = [(dg.Graph.from_edges(JUMBLEDNESS_N, edges), p, d)
                   for edges, p, d in inputs["jumbledness"]]
    expected = {"er6-connected": dg.er_connectivity_probability(6, half),
                "star7-k3": STAR7_K3}
    dg.exact_edge_marginals(dg.erdos_renyi(3, half))
    return {**inputs, "events": events, "marginals": marginals,
            "jumbledness_graphs": jumbledness, "expected": expected}


def _clear_program_caches(dg) -> None:
    """Empty every functools cache in the package, so that the phi call is
    cold even for a pattern whose subsets an earlier pattern already met."""
    for mod in vars(dg).values():
        if getattr(mod, "__name__", "").startswith(dg.__name__ + "."):
            for fn in vars(mod).values():
                if callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()


def _check_violation(dg, g, p, d, v) -> tuple[bool, str]:
    if v is None:
        return True, ""
    edges = dg.graphs.count_edges_between(g, v.a_vertices, v.b_vertices)
    size = len(v.a_vertices) * len(v.b_vertices)
    allowance = JUMBLEDNESS_C * math.sqrt(size * g.n * p * (d + 1))
    ok = (edges == v.edges and math.isclose(v.deviation, abs(edges - p * size))
          and math.isclose(v.allowance, allowance) and v.slack > 0)
    return ok, f"inconsistent violation {v}"


def exact_pass(dg, state: dict, index: int, ctx: Pass) -> None:
    size = getattr(dg.oracle, "state_space_size", None)
    for label, model, text, outcomes in state["events"]:
        def event(label=label, model=model, text=text, outcomes=outcomes):
            pred = dg.parse_predicate(text)
            with ctx.timed("outcomes_per_s", outcomes):
                value = dg.oracle.exact_event_probability(model, pred)
            ctx.output(label, repr(value))
            want = state["expected"].get(label)
            if size is not None and size(model) != outcomes:
                return False, f"state space {size(model)} != {outcomes}"
            return value == want, f"{value!r} != {want!r}"
        ctx.op(label, event)
    for label, model, outcomes in state["marginals"]:
        def marginals(label=label, model=model, outcomes=outcomes):
            with ctx.timed("outcomes_per_s", outcomes):
                values = dg.oracle.exact_edge_marginals(model)
            ctx.output(label, repr(values))
            return all(v == model.p for v in values), "a marginal differs from p"
        ctx.op(label, marginals)
    for j, (g, p, d) in enumerate(state["jumbledness_graphs"]):
        def scan(g=g, p=p, d=d):
            with ctx.timed("pairs_per_s", 4 ** g.n):
                v = dg.oracle.exhaustive_jumbledness_check(g, p, d, C=JUMBLEDNESS_C)
            ctx.output(f"jumbledness-{j}", repr(v))
            return _check_violation(dg, g, p, d, v)
        ctx.op(f"jumbledness-{j}", scan)

    placement = state["phi_placements"][index % len(state["phi_placements"])]
    pattern = dg.SubgraphPattern(dg.Graph.from_edges(
        PHI_VERTICES, itertools.combinations(placement, 2)))
    _clear_program_caches(dg)

    def phi():
        with ctx.timed("phi_terms_per_s", 2 ** 15 - 1):
            value = dg.bounds.phi_functional(pattern, *PHI_ARGS)
        ctx.output("phi", repr(value))
        return value == PHI_K6_IN_8, f"phi {value!r} != {PHI_K6_IN_8!r}"
    ctx.op("phi", phi)
    # the filled caches hold ~10^5 objects that would slow the next pass's
    # garbage collections, and so its oracle part
    _clear_program_caches(dg)


# -- replay: latent capture, realize, audit ------------------------------

def replay_inputs(seed: int) -> dict:
    rnd = _rng("replay", seed)
    return {"seed": seed,
            "replay_seeds": [rnd.getrandbits(63) for _ in range(4)],
            "audit_seeds": [rnd.getrandbits(63) for _ in range(2)]}


def replay_setup(dg, inputs: dict) -> dict:
    p = Fraction(1, 20)
    replays = [dg.correlated_star(500, p, 7), dg.connectivity_gadget(500, p, 8),
               dg.edge_block_exact(300, 1, 3), dg.erdos_renyi(500, p)]
    audits = [dg.correlated_star(60, Fraction(1, 4), 3), dg.edge_block_exact(48, 1, 3)]
    dg.sample(replays[0], inputs["replay_seeds"][0])
    return {**inputs, "replays": replays, "audits": audits}


def replay_pass(dg, state: dict, index: int, ctx: Pass) -> None:
    for j, (model, seed) in enumerate(zip(state["replays"], state["replay_seeds"])):
        def round_trip(j=j, model=model, seed=seed):
            with ctx.timed("replays_per_s", 1):
                out = dg.distributions.sample(model, seed, keep_latents=True)
                again = dg.distributions.realize(model, out.latent_state)
            plain = dg.distributions.sample(model, seed).graph
            ctx.output(f"replay-{j}", dg.to_edge_list(out.graph) + repr(out.latent_state))
            if again != out.graph:
                return False, "realize(model, state) differs from the captured graph"
            return plain == out.graph, "captured graph differs from plain sample"
        ctx.op(f"replay-{model.kind}", round_trip)
    flagged = 0
    for j, (model, seed) in enumerate(zip(state["audits"], state["audit_seeds"])):
        def audit(j=j, model=model, seed=seed):
            nonlocal flagged
            with ctx.timed("audit_trials_per_s", AUDIT_TRIALS):
                report = dg.distributions.audit_model(model, AUDIT_TRIALS, seed)
            ctx.output(f"audit-{j}", repr(report))
            flagged += bool(report.flagged)    # an expected ~1% event, not a failure
            return report.trials == AUDIT_TRIALS, "audit ran the wrong trial count"
        ctx.op(f"audit-{model.kind}", audit)
    ctx.counts["audit_flagged"] = flagged
