"""Output checks on experiment summaries. Each returns a list of problems;
an empty list means the check passed."""
from __future__ import annotations

import csv
import math
from dataclasses import astuple

_FLOAT_FIELDS = (
    "truth", "mean_estimate", "bias", "bias_ci_lo", "bias_ci_hi",
    "sd", "sd_ci_lo", "sd_ci_hi",
)


def finite(summary) -> list[str]:
    """Every estimate, SD and interval end is finite."""
    return [
        f"{r.estimator}/{r.level}: {f} = {getattr(r, f)!r}"
        for r in summary.rows
        for f in _FLOAT_FIELDS
        if not math.isfinite(getattr(r, f))
    ]


def completed(summaries) -> list[str]:
    """At least one experiment finished, so there were outputs to check."""
    return [] if summaries else ["no experiment completed"]


def ht_true_unbiased(summaries, z: float = 4.0) -> list[str]:
    """HT_true's bias, pooled over all experiments, is within ``z`` SE of 0.

    HT_true is exactly unbiased, so a larger deviation means a broken
    estimator or exposure path. Per-experiment means and SDs are pooled
    into the mean and SD of all successful trials.
    """
    groups: dict[str, list] = {}
    for s in summaries:
        n = s.n_trials - s.n_failed
        for r in s.rows:
            if r.estimator == "HT_true":
                groups.setdefault(r.level, []).append((n, r.mean_estimate, r.sd, r.truth))
    problems = []
    for level, parts in groups.items():
        total = sum(n for n, *_ in parts)
        if total < 2:
            problems.append(f"HT_true/{level}: fewer than two trials")
            continue
        mean = sum(n * m for n, m, _, _ in parts) / total
        ss = sum((n - 1) * sd * sd + n * (m - mean) ** 2 for n, m, sd, _ in parts if n > 0)
        se = math.sqrt(ss / (total - 1) / total)
        truth = parts[0][3]
        if not abs(mean - truth) <= z * se + 1e-12 * max(1.0, abs(truth)):
            problems.append(
                f"HT_true/{level}: bias {mean - truth:.6g} exceeds {z} SE ({se:.6g}) "
                f"over {total} trials"
            )
    return problems


def emitted_csv(summary, path) -> list[str]:
    """The CSV ``emit_results`` wrote holds exactly the summary's rows."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    want = [
        [r.estimator, r.level, *(repr(getattr(r, f)) for f in _FLOAT_FIELDS),
         str(summary.n_trials), str(summary.n_failed)]
        for r in summary.rows
    ]
    if rows[1:] != want:
        return [f"{path}: rows differ from the summary"]
    return []


def same_results(a, b) -> list[str]:
    """Two summaries of the same configuration and seed agree exactly."""
    problems = []
    if [astuple(r) for r in a.rows] != [astuple(r) for r in b.rows]:
        problems.append("summary rows differ")
    for attr in ("n_trials", "n_failed", "noise_fit_convergence_rate", "mme_rule_counts"):
        if getattr(a, attr) != getattr(b, attr):
            problems.append(f"{attr} differs: {getattr(a, attr)!r} vs {getattr(b, attr)!r}")
    return problems
