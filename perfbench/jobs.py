"""The benchmark's workloads: generated inputs, job lists and output checks.

Every workload is a fixed list of ``chbound`` CLI jobs.  The workload seed
generates the model spec files (including the explicit table's atoms) and
every job's ``--seed``; the program sees only those generated inputs.
Why each workload was chosen is the ``why`` of its entry in BENCHMARK.json.

Each job's check recomputes the expected answer independently of the
program: exact tails from ``fractions``/``math.comb`` or from the table
itself, and Monte Carlo references from closed forms.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

TAIL_TOL = 1e-12
SIM_Z = 5.0
TABLE_ATOMS = 16384
TABLE_N = 12
DETECT_FLAGS = ["--c", "0.4", "--t", "0.3", "--alpha", "0.16"]


@dataclass
class Job:
    """One CLI invocation (``--out`` is appended by the runner).

    ``check(report, exit_code)`` returns a failure reason or None.
    ``reference(report)`` is the closed-form mean a simulate job estimates;
    the runner turns it into a time to 1% relative standard error.
    """

    name: str
    group: str
    argv: list[str]
    check: Callable[[dict | None, int], str | None]
    reference: Callable[[dict], float] | None = None


# -- references --------------------------------------------------------


def threshold_count(n: int, c: float, t: float) -> int:
    """Smallest integer sum meeting the tail threshold (c + t) n."""
    return math.ceil((c + t) * n - 1e-9)


def binomial_tail(n: int, p: float, k: int) -> Fraction:
    """Exact P(Bin(n, p) >= k) for the binary float p."""
    p = Fraction(p)
    return sum(
        (math.comb(n, s) * p**s * (1 - p) ** (n - s) for s in range(max(k, 0), n + 1)),
        Fraction(0),
    )


def planted_tail(n: int, p: float, k: int, kk: int) -> Fraction:
    """P(sum >= kk) when a block of k variables copies one Bernoulli(p) coin."""
    return Fraction(p) * binomial_tail(n - k, p, kk - k) + (1 - Fraction(p)) * binomial_tail(
        n - k, p, kk
    )


def mixture_tail(n: int, rho: float, p: float, kk: int) -> Fraction:
    """P(sum >= kk) for the Bernoulli exchangeable mixture."""
    p_f, rho_f = Fraction(p), Fraction(rho)
    shared = p_f * (n >= kk) + (1 - p_f) * (0 >= kk)
    return rho_f * shared + (1 - rho_f) * binomial_tail(n, p, kk)


def planted_product(n: int, p: float, k: int, lam: float) -> float:
    """E[prod_i (lam X_i + 1 - lam)] for the planted model."""
    return (p + (1 - p) * (1 - lam) ** k) * (1 - lam * (1 - p)) ** (n - k)


def conditional_boolean_product(n: int, p: float, kk: int, lam: float) -> float:
    """E[prod_i (lam X_i + 1 - lam) | sum >= kk] for i.i.d. Bernoulli(p)."""
    weights = [math.comb(n, s) * p**s * (1 - p) ** (n - s) for s in range(kk, n + 1)]
    num = sum(w * (1 - lam) ** (n - s) for w, s in zip(weights, range(kk, n + 1)))
    return num / sum(weights)


def bound_reference(n: int, c: float, t: float) -> float:
    """exp(-n D(c + t || c)) for interior parameters."""
    q, r = c, c + t
    return math.exp(-n * (r * math.log(r / q) + (1 - r) * math.log((1 - r) / (1 - q))))


# -- checks ------------------------------------------------------------


def _exit(code: int, allowed=(0,)) -> str | None:
    if code not in allowed:
        return f"exit code {code}"
    return None


def check_bound(n: int, c: float, t: float):
    ref = bound_reference(n, c, t)

    def check(report, code):
        if (err := _exit(code)) or report is None:
            return err or "no report"
        got = report["result"]["bound"]
        if abs(got - ref) > 1e-12 * ref:
            return f"bound {got} != reference {ref}"
        return None

    return check


def check_verify(n: int, max_size: int, tail_ref: float, boolean: bool):
    total = sum(math.comb(n, k) for k in range(max_size + 1))

    def check(report, code):
        if (err := _exit(code)) or report is None:
            return err or "no report"
        r = report["result"]
        if not r["explained"]:
            return "chain failure not explained"
        if boolean and not (r["all_passed"] and r["hypothesis_ok"]):
            return "independent model failed the chain or the hypothesis"
        if not r["all_passed"] and r["failed_links"] != ["certified_moments_vs_process"]:
            return f"failed links {r['failed_links']}"
        if r["certificates_total"] != total:
            return f"certificates_total {r['certificates_total']} != {total}"
        if abs(r["tail_probability"] - tail_ref) > TAIL_TOL:
            return f"tail {r['tail_probability']} != reference {tail_ref}"
        return None

    return check


def check_sweep(n: int, p: float, c: float, points: int):
    def check(report, code):
        if (err := _exit(code)) or report is None:
            return err or "no report"
        rows = report["result"]["rows"]
        if len(rows) != points:
            return f"{len(rows)} rows, expected {points}"
        for row in rows:
            ref = float(binomial_tail(n, p, threshold_count(n, c, row["t"])))
            if row["exact_tail"] is None or abs(row["exact_tail"] - ref) > TAIL_TOL:
                return f"t={row['t']}: tail {row['exact_tail']} != reference {ref}"
            if row["tail_le_bound"] is not True:
                return f"t={row['t']}: tail exceeds the bound"
        return None

    return check


def check_simulate(reference: Callable[[dict], float]):
    def check(report, code):
        if (err := _exit(code)) or report is None:
            return err or "no report"
        r = report["result"]
        ref = reference(report)
        if abs(r["mean"] - ref) > SIM_Z * r["std_error"]:
            return f"mean {r['mean']} vs reference {ref}: more than {SIM_Z} std errors"
        return None

    return check


def check_detect_found(p: float, block: set[int]):
    def check(report, code):
        if (err := _exit(code, (0, 3))) or report is None:
            return err or "no report"
        r = report["result"]
        if r["verdict"] == "not_found":
            return None if code == 3 else "not_found without exit code 3"
        subset = set(r["subset"])
        j = len(subset & block)
        moment = p ** (1 + len(subset) - j) if j else p ** len(subset)
        if not subset or moment <= r["threshold"]:
            return f"subset {sorted(subset)} has moment {moment} <= {r['threshold']}"
        return None if code == 0 else "found without exit code 0"

    return check


def check_detect_null(report, code):
    if (err := _exit(code, (3,))) or report is None:
        return err or "no report"
    if report["result"]["verdict"] != "not_found":
        return "independent null model flagged as dependent"
    return None


# -- workloads ---------------------------------------------------------


def _spec(work: Path, name: str, doc: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def setup_job() -> Job:
    """``chbound bound``: import, argparse and scalar math only."""
    return Job("bound", "setup_s", ["bound", "--n", "20", "--c", "0.5", "--t", "0.2"],
               check_bound(20, 0.5, 0.2))


def _exact(rng: random.Random, work: Path) -> list[Job]:
    """Exact verification only: enumeration and per-subset moment
    certification do nearly all the work, and nothing is sampled."""
    boolean = {"kind": "boolean_iid", "params": {"p": 0.5}}
    b12 = _spec(work, "boolean12", {**boolean, "n": 12})
    b16 = _spec(work, "boolean16", {**boolean, "n": 16})
    b20 = _spec(work, "boolean20", {**boolean, "n": 20})
    planted = _spec(work, "planted12",
                    {"kind": "planted_clique", "n": 12, "params": {"p": 0.5, "k": 4}})
    mixture = _spec(work, "mixture10",
                    {"kind": "exchangeable_mixture", "n": 10, "params": {"rho": 0.2, "p": 0.3}})
    weights = [rng.randint(1, 1000) for _ in range(TABLE_ATOMS)]
    total = sum(weights)
    atoms = [([rng.randint(0, 1) for _ in range(TABLE_N)], w / total) for w in weights]
    table = _spec(work, "table12", {"kind": "explicit_table", "params": {
        "support": [{"x": x, "p": p} for x, p in atoms]}})
    kk = threshold_count(TABLE_N, 0.5, 0.25)
    table_tail = math.fsum(p for x, p in atoms if sum(x) >= kk)

    flags = ["--c", "0.5", "--t", "0.25"]
    return [
        Job("verify_boolean12", "verify_s", ["verify", "--spec", b12, *flags],
            check_verify(12, 12, float(binomial_tail(12, 0.5, 9)), boolean=True)),
        Job("verify_planted12", "verify_s", ["verify", "--spec", planted, *flags],
            check_verify(12, 12, float(planted_tail(12, 0.5, 4, 9)), boolean=False)),
        Job("verify_mixture10", "verify_s",
            ["verify", "--spec", mixture, "--c", "0.3", "--t", "0.25"],
            check_verify(10, 10, float(mixture_tail(10, 0.2, 0.3, threshold_count(10, 0.3, 0.25))),
                         boolean=False)),
        Job("verify_table12", "verify_s", ["verify", "--spec", table, *flags],
            check_verify(TABLE_N, TABLE_N, table_tail, boolean=False)),
        Job("verify_wide16", "verify_wide_s",
            ["verify", "--spec", b16, *flags, "--max-subset-size", "2"],
            check_verify(16, 2, float(binomial_tail(16, 0.5, 12)), boolean=True)),
        Job("sweep_boolean20", "sweep_s",
            ["sweep", "--n", "20", "--c", "0.5", "--points", "50", "--spec", b20,
             "--atom-cap", "2097152"],
            check_sweep(20, 0.5, 0.5, 50)),
    ]


def _mc(rng: random.Random, work: Path) -> list[Job]:
    """The round kernel of estimate_product at 1 and 2 workers and by
    rejection, on models too large to enumerate at the default atom cap."""
    planted = _spec(work, "planted50",
                    {"kind": "planted_clique", "n": 50, "params": {"p": 0.5, "k": 5}})
    b20 = _spec(work, "boolean20", {"kind": "boolean_iid", "n": 20, "params": {"p": 0.5}})
    seed, cond_seed = rng.randrange(2**31), rng.randrange(2**31)
    kk = threshold_count(20, 0.5, 0.15)

    def planted_ref(report):
        return planted_product(50, 0.5, 5, report["config"]["lambda"])

    def cond_ref(report):
        return conditional_boolean_product(20, 0.5, kk, report["config"]["lambda"])

    sim = ["simulate", "--spec", planted, "--c", "0.5", "--t", "0.1",
           "--samples", "2000000", "--seed", str(seed)]
    return [
        Job("simulate_planted50_w1", "simulate_s", [*sim, "--workers", "1"],
            check_simulate(planted_ref), planted_ref),
        Job("simulate_planted50_w2", "simulate_w2_s", [*sim, "--workers", "2"],
            check_simulate(planted_ref)),
        Job("simulate_boolean20_cond", "simulate_cond_s",
            ["simulate", "--spec", b20, "--c", "0.5", "--t", "0.15", "--samples", "200000",
             "--atom-cap", "2097152", "--conditional", "--seed", str(cond_seed)],
            check_simulate(cond_ref), cond_ref),
    ]


def _detect(rng: random.Random, work: Path) -> list[Job]:
    """Witness search, tally and confirm: planted runs that end ``found``,
    and null runs with nearly all index sets distinct that end ``not_found``
    (p = 0.3 lies below c = 0.4, so a ``found`` there is unsound)."""
    planted = _spec(work, "planted10",
                    {"kind": "planted_clique", "n": 10, "params": {"p": 0.7, "k": 10}})
    null = _spec(work, "boolean30", {"kind": "boolean_iid", "n": 30, "params": {"p": 0.3}})
    jobs = []
    for i in range(2):
        jobs.append(Job(f"detect_found_{i}", "detect_found_s",
                        ["detect", "--spec", planted, *DETECT_FLAGS, "--m-search", "200000",
                         "--seed", str(rng.randrange(2**31))],
                        check_detect_found(0.7, set(range(10)))))
    for i in range(2):
        jobs.append(Job(f"detect_null_{i}", "detect_null_s",
                        ["detect", "--spec", null, *DETECT_FLAGS,
                         "--seed", str(rng.randrange(2**31))],
                        check_detect_null))
    return jobs


WORKLOADS = {"exact": _exact, "mc": _mc, "detect": _detect}


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """Write the workload's spec files into ``work`` and return its jobs."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work)
