"""Command-line interface.

Subcommands: ``generate`` (degree-law graph to edge-list CSV), ``perturb``
(apply edge-flip noise), ``noise-fit`` (rates from three replicates),
``bias-theory`` (closed-form bias predictions), ``experiment`` (full Monte
Carlo run from a JSON config). The NNC_SEED environment variable, when set,
overrides the experiment master seed.
"""
from __future__ import annotations

import argparse
import os
import sys

from .estimators import OutcomeTable
from .graphs import align_on_labels, load_edge_list, write_edge_list
from .harness import (
    ExperimentConfig,
    ExperimentError,
    _PERTURB_STREAM,
    emit_results,
    resolve_graph,
    run_experiment,
)
from .noise import NoiseParams, perturb
from .noise_fit import NoiseFitError, fit_alpha_beta, moment_stats
from .seeding import make_rng
from .theory import naive_estimator_bias


def _parse_outcomes(text: str) -> tuple[float, ...]:
    vals = tuple(float(v) for v in text.split(","))
    if len(vals) != 4:
        raise argparse.ArgumentTypeError("outcomes need four comma-separated values")
    return vals


def _write_lines(lines: list[str], out: str | None) -> None:
    # the lines to the file ``out`` when it is given, else to stdout
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    spec = {"source": "generate", "kind": args.kind, "n_v": args.n_v, "seed": args.seed}
    if args.kind == "ztp":
        spec["mean_degree"] = args.mean_degree
    else:
        spec.update(rate=args.rate, shape=args.shape, lower=args.lower)
        if args.upper is not None:
            spec["upper"] = args.upper
    g = resolve_graph(spec)
    write_edge_list(g, args.out)
    print(
        f"n_v={g.n_v} n_edges={g.n_edges}"
        f" erased_stubs={g.meta.get('erased_stub_count', 0)}"
        f" matching_attempts={g.meta.get('matching_attempts')}"
        f" odd_repair_node={g.meta.get('odd_repair_node')}"
    )
    return 0


def cmd_perturb(args) -> int:
    g = load_edge_list(args.edges)
    noisy = perturb(g, NoiseParams(args.alpha, args.beta), make_rng(args.seed, _PERTURB_STREAM))
    write_edge_list(noisy, args.out)
    print(f"n_v={noisy.n_v} n_edges={noisy.n_edges}")
    return 0


def cmd_noise_fit(args) -> int:
    # independently written files order labels differently; re-index them
    # onto the shared label universe before comparing edge sets
    graphs = align_on_labels([load_edge_list(p) for p in (args.rep1, args.rep2, args.rep3)])
    fit = fit_alpha_beta(
        moment_stats(*graphs), alpha0=args.alpha0, eps=args.eps, max_iter=args.max_iter
    )
    _write_lines([
        "alpha_hat,beta_hat,delta_hat,iterations,converged",
        f"{fit.alpha_hat!r},{fit.beta_hat!r},{fit.delta_hat!r},"
        f"{fit.iterations},{str(fit.converged).lower()}",
    ], args.out)
    return 0


def cmd_bias_theory(args) -> int:
    degrees = []
    with open(args.degrees, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    degrees.append(int(line))
                except ValueError:
                    raise ValueError(f"{args.degrees}: line {lineno}: degree must be an "
                                     f"integer, got {line.strip()!r}") from None
    table = OutcomeTable.constant(len(degrees), args.outcomes)
    pred = naive_estimator_bias(
        degrees, table, NoiseParams(args.alpha, args.beta), args.p, n_v=args.n_v
    )
    lines = ["level,predicted_bias,exact"]
    for name, value, exact in zip(("c11", "c10", "c01", "c00"), pred.values, pred.exact):
        lines.append(f"{name},{float(value)!r},{str(exact).lower()}")
    _write_lines(lines, args.out)
    return 0


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    env_seed = os.environ.get("NNC_SEED")
    if env_seed is not None:
        try:
            cfg.master_seed = int(env_seed)
        except ValueError:
            raise ValueError(f"NNC_SEED must be an integer, got {env_seed!r}") from None
    summary = run_experiment(cfg)
    emit_results(summary, args.out, args.sidecar)
    print(f"wrote {args.out} ({summary.n_trials} trials, {summary.n_failed} failed)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnc",
        description="Randomized experiments on noisily observed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a degree-law graph and write an edge list")
    g.add_argument("--kind", choices=("ztp", "pareto"), required=True)
    g.add_argument("--n-v", type=int, required=True)
    g.add_argument("--mean-degree", type=float, help="ztp: target mean degree")
    g.add_argument("--rate", type=float, help="pareto: exponential cutoff rate")
    g.add_argument("--shape", type=float, help="pareto: tail shape")
    g.add_argument("--lower", type=float, help="pareto: lower degree bound")
    g.add_argument("--upper", type=float, help="pareto: upper degree bound (default n_v - 1)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    p = sub.add_parser("perturb", help="apply edge-flip noise to an edge list")
    p.add_argument("--edges", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_perturb)

    f = sub.add_parser("noise-fit", help="fit noise rates from three replicate edge lists")
    f.add_argument("rep1")
    f.add_argument("rep2")
    f.add_argument("rep3")
    f.add_argument("--alpha0", type=float, default=None)
    f.add_argument("--eps", type=float, default=1e-10)
    f.add_argument("--max-iter", type=int, default=10_000)
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_noise_fit)

    b = sub.add_parser("bias-theory", help="closed-form bias predictions for a degree file")
    b.add_argument("--degrees", required=True, help="text file, one integer degree per line")
    b.add_argument("--alpha", type=float, required=True)
    b.add_argument("--beta", type=float, required=True)
    b.add_argument("--p", type=float, required=True)
    b.add_argument("--n-v", type=int, default=None)
    b.add_argument("--outcomes", type=_parse_outcomes, default=(10.0, 7.0, 5.0, 1.0))
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bias_theory)

    e = sub.add_parser("experiment", help="run a Monte Carlo experiment from a JSON config")
    e.add_argument("--config", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--sidecar", default=None)
    e.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "generate":
        if args.kind == "ztp" and args.mean_degree is None:
            build_parser().error("--mean-degree is required for --kind ztp")
        if args.kind == "pareto" and None in (args.rate, args.shape, args.lower):
            build_parser().error("--rate, --shape and --lower are required for --kind pareto")
    try:
        return args.func(args)
    except (ValueError, OSError, NoiseFitError, ExperimentError) as exc:
        # bad input files or values end like argparse's own errors: one line,
        # status 2
        print(f"nnc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
