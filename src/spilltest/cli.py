"""Command-line pipeline: graph, cluster, stratify, assign, analyze, simulate, oracle.

Every command is a pure function of its inputs, flags, and an explicit seed;
reruns produce byte-identical outputs. Each JSON artifact embeds a manifest
recording the command, its arguments, the seed, and content digests of every
input file. Exit codes: 0 success, 1 invalid input or usage, 2 a verification
check ran and its assertion failed.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from ._errors import CheckFailure, SpilltestError, ValidationError, build_record, read_json
from ._table import FLOAT, ID, read_header, read_id_table
from .assign import (
    DesignCounts,
    assignment_from_vectors,
    hierarchical_assign,
    load_assignment_vectors,
    save_assignment,
    stratified_assignment_from_vectors,
    stratified_hierarchical_assign,
)
from .estimate import analyze, analyze_stratified
from .graph import SbmSpec, generate_sbm, load_edge_list, save_edge_list
from .oracle import CHECKS, load_design
from .outcomes import load_outcomes
from .partition import (
    cluster_features,
    clustering_metrics,
    ldg_restream,
    load_clustering,
    load_stratification,
    rebalance,
    save_clustering,
    save_stratification,
    stratify_clusters,
)
from .sim import SimConfig, run_study


def _digest(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _manifest(args: argparse.Namespace, inputs: list[str | Path], outputs: list[str | Path]) -> dict:
    """Provenance block embedded in every JSON artifact.

    Deliberately excludes wall-clock timestamps so reruns with the same seed
    are byte-identical.
    """
    arguments = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func",) and v is not None
    }
    return {
        "command": args.command,
        "arguments": {k: str(v) for k, v in arguments.items()},
        "seed": getattr(args, "seed", None),
        "input_digests": {str(p): _digest(p) for p in inputs},
        "artifacts": [str(p) for p in outputs],
        "version": __version__,
    }


def _write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse an output path that is a directory, lies in no directory, or
    names the same file as another output, before any output is written, so
    that a refused command leaves no partial outputs.

    The output paths are the ``out_*`` arguments; a path that cannot be
    written is refused with the :class:`OSError` a write to it would raise.
    """
    flags: dict[Path, str] = {}
    for key, value in vars(args).items():
        if not key.startswith("out_") or value is None:
            continue
        path = Path(value)
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        if not path.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
        flag = "--" + key.replace("_", "-")
        earlier = flags.setdefault(path.resolve(), flag)
        if earlier != flag:
            raise ValidationError(f"{earlier} and {flag} both name {value}")


def _fixture_path(name: str) -> Path:
    return Path(str(resources.files("spilltest").joinpath("fixtures", name)))


def cmd_graph(args: argparse.Namespace) -> int:
    spec = _read_json_input(args.spec, SbmSpec.from_json)
    graph, clustering = generate_sbm(spec)
    save_edge_list(graph, args.out_edges)
    save_clustering(clustering, args.out_clusters)
    manifest = _manifest(args, [args.spec], [args.out_edges, args.out_clusters, args.out_meta])
    _write_json(
        args.out_meta,
        {
            "manifest": manifest,
            "spec": asdict(spec),
            "num_units": graph.num_units,
            "num_edges": graph.num_edges,
        },
    )
    print(f"wrote {args.out_edges} ({graph.num_units} units, {graph.num_edges} edges)")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges)
    clustering = ldg_restream(
        graph, args.clusters, leniency=args.leniency, iterations=args.iterations, seed=args.seed
    )
    if args.rebalance:
        clustering = rebalance(graph, clustering)
    metrics = clustering_metrics(graph, clustering)
    save_clustering(clustering, args.out_clusters)
    manifest = _manifest(args, [args.edges], [args.out_clusters, args.out_metrics])
    _write_json(
        args.out_metrics,
        {"manifest": manifest, "metrics": asdict(metrics)},
    )
    print(
        f"clustered {graph.num_units} units into {clustering.num_clusters} clusters "
        f"(rho_c={metrics.rho_c:.4f}, internal={metrics.internal_edge_fraction:.4f}, "
        f"balance={metrics.balance_ratio:.3f})"
    )
    return 0


def cmd_stratify(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges)
    clustering = load_clustering(args.clusters_file)
    covariates = _load_covariates(args.covariates) if args.covariates else None
    features = cluster_features(graph, clustering, covariates)
    strat = stratify_clusters(features, args.strata, seed=args.seed)
    save_stratification(strat, args.out_strata)
    inputs = [args.edges, args.clusters_file] + ([args.covariates] if args.covariates else [])
    manifest = _manifest(args, inputs, [args.out_strata])
    if args.out_meta:
        _write_json(
            args.out_meta,
            {
                "manifest": manifest,
                "strata_sizes": strat.strata_sizes.tolist(),
            },
        )
    print(f"stratified {clustering.num_clusters} clusters into {strat.num_strata} strata")
    return 0


def _load_covariates(path: str) -> np.ndarray:
    """The ``cluster_id,<numeric columns...>`` CSV as a matrix with one row
    per cluster, in cluster-id order."""
    header = read_header(path)
    if not header or header[0] != "cluster_id":
        raise ValidationError(f"{path}: first column must be cluster_id")
    table = read_id_table(path, {"cluster_id": ID, **dict.fromkeys(header[1:], FLOAT)}, empty="no covariates")
    columns = [table[name] for name in header[1:]]
    return np.column_stack(columns) if columns else np.empty((len(table["cluster_id"]), 0))


def _read_json_input(path: str, parse: Callable[[bytes], Any]) -> Any:
    """``parse`` of the bytes of the JSON file ``path``; a refusal names the file."""
    data = Path(path).read_bytes()
    try:
        return parse(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _load_counts(path: str | None) -> DesignCounts | None:
    if path is None:
        return None
    return _read_json_input(
        path, lambda data: build_record(DesignCounts, read_json(data, "design counts"), "design counts")
    )


def cmd_assign(args: argparse.Namespace) -> int:
    clustering = load_clustering(args.clusters_file)
    inputs: list[str | Path] = [args.clusters_file]
    counts = _load_counts(args.counts)
    if args.counts:
        inputs.append(args.counts)
    if args.stratification:
        strat = load_stratification(args.stratification)
        inputs.append(args.stratification)
        per_stratum = None if counts is None else [counts] * strat.num_strata
        assignments = stratified_hierarchical_assign(
            clustering, strat, per_stratum, seed=args.seed, cr_arm_mechanism=args.mechanism
        )
        save_assignment(assignments, args.out_assignment)
        counts_payload: dict = {
            "strata": [a.counts.to_dict() for a in assignments],
        }
    else:
        if counts is None:
            counts = DesignCounts.symmetric(clustering.num_units, clustering.num_clusters)
        assignment = hierarchical_assign(
            clustering, counts, seed=args.seed, cr_arm_mechanism=args.mechanism
        )
        save_assignment(assignment, args.out_assignment)
        counts_payload = assignment.counts.to_dict()
    manifest = _manifest(args, inputs, [args.out_assignment, args.out_counts])
    _write_json(args.out_counts, {"manifest": manifest, "counts": counts_payload})
    print(f"wrote {args.out_assignment}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    clustering = load_clustering(args.clusters_file)
    unit_arm, treatment = load_assignment_vectors(args.assignment)
    y = load_outcomes(args.outcomes)
    inputs = [args.clusters_file, args.assignment, args.outcomes]
    if args.stratification:
        strat = load_stratification(args.stratification)
        inputs.append(args.stratification)
        assignments = stratified_assignment_from_vectors(clustering, strat, unit_arm, treatment)
        report = analyze_stratified(assignments, y, alpha=args.alpha, decision_rule=args.rule)
    else:
        assignment = assignment_from_vectors(clustering, unit_arm, treatment)
        report = analyze(assignment, y, alpha=args.alpha, decision_rule=args.rule)
    manifest = _manifest(args, inputs, [args.out_report])
    _write_json(args.out_report, {"manifest": manifest, "report": report.to_dict()})
    print(
        f"delta={report.delta:.6g} sigma_hat_sq={report.sigma_hat_sq:.6g} "
        f"t={report.t_stat:.4g} p_chebyshev={report.p_chebyshev:.4g} "
        f"p_gaussian={report.p_gaussian:.4g} decision={report.decision}"
    )
    return 0


def _check_study_properties(cfg: SimConfig, report) -> None:
    """Soft invariants of each study, enforced at the CLI boundary.

    Violations raise :class:`CheckFailure` (exit code 2). Tolerances are
    Monte Carlo slack, so honest runs pass with large margin.
    """
    if cfg.study == "power":
        settings = sorted({r.setting for r in report.rows})
        for s in settings:
            series = sorted((r for r in report.rows if r.setting == s), key=lambda r: r.gamma)
            for lo, hi in zip(series, series[1:]):
                slack = 2.0 * math.sqrt(lo.mc_se**2 + hi.mc_se**2)
                if hi.rejection_rate < lo.rejection_rate - slack:
                    raise CheckFailure(
                        f"power not monotone in gamma for setting {s}: "
                        f"{lo.rejection_rate:.4f}@{lo.gamma} -> {hi.rejection_rate:.4f}@{hi.gamma}"
                    )
    elif cfg.study == "ratio" and cfg.effect_unit_sd == 0.0:
        row = report.rows[0]
        if abs(row.ratio_mean - 1.0) > 4.0 * row.mc_se:
            raise CheckFailure(
                f"mean bound/variance ratio {row.ratio_mean:.4f} is not 1 within "
                f"4 Monte Carlo SEs ({4 * row.mc_se:.4f})"
            )
    elif cfg.study == "type1":
        row = report.rows[0]
        se = max(row.mc_se, math.sqrt(cfg.alpha * (1 - cfg.alpha) / cfg.replications))
        if row.rejection_rate > cfg.alpha + 3.0 * se:
            raise CheckFailure(
                f"false-rejection rate {row.rejection_rate:.4f} exceeds "
                f"alpha + 3 SE = {cfg.alpha + 3 * se:.4f}"
            )


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _read_json_input(args.config, SimConfig.from_json)
    if args.study and args.study != cfg.study:
        raise ValidationError(f"config is a {cfg.study!r} study, not {args.study!r}")
    if args.threads is not None and args.threads < 1:
        raise ValidationError(f"--threads={args.threads} is below 1")
    # Only a power study reads threads; the default is the machine's core count.
    if args.threads is not None and cfg.study == "power":
        cfg = replace(cfg, threads=args.threads)
    report = run_study(cfg)
    _check_study_properties(cfg, report)
    outputs = []
    if args.out_json:
        payload = report.to_dict()
        payload["manifest"] = _manifest(args, [args.config], [args.out_json])
        _write_json(args.out_json, payload)
        outputs.append(args.out_json)
    if args.out_csv:
        Path(args.out_csv).write_text(report.to_csv(), encoding="utf-8")
        outputs.append(args.out_csv)
    print(
        f"study={cfg.study} rows={len(report.rows)} "
        f"wall={report.wall_clock_seconds:.1f}s -> {', '.join(map(str, outputs)) or 'stdout'}",
        file=sys.stderr,
    )
    if not outputs:
        print(report.to_csv(), end="")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    design_path = Path(args.design) if args.design else _fixture_path("oracle8.json")
    design = load_design(design_path)
    names = list(CHECKS) if args.check == "all" else [args.check]
    results = []
    failed = False
    for name in names:
        outcome = CHECKS[name](design)
        results.append(outcome)
        status = "PASS" if outcome["passed"] else "FAIL"
        print(f"{status} {name}: {outcome['detail']}")
        failed = failed or not outcome["passed"]
    if args.out_report:
        # The bundled design is keyed by a name that does not depend on where
        # the package is installed, so two checkouts write the same report.
        key = str(design_path) if args.design else "fixtures/oracle8.json"
        manifest = {**_manifest(args, [], [args.out_report]), "input_digests": {key: _digest(design_path)}}
        _write_json(args.out_report, {"manifest": manifest, "checks": results})
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spilltest",
        description="Design and analyze network experiments that test for interference.",
    )
    parser.add_argument("--version", action="version", version=f"spilltest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="generate a block-model graph from a JSON spec")
    p.add_argument("--spec", required=True, help="block-model spec JSON")
    p.add_argument("--out-edges", required=True)
    p.add_argument("--out-clusters", required=True, help="ground-truth block map CSV")
    p.add_argument("--out-meta", required=True, help="manifest JSON")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("cluster", help="partition a graph into balanced clusters")
    p.add_argument("--edges", required=True)
    p.add_argument("--clusters", type=int, required=True, help="target cluster count")
    p.add_argument("--leniency", type=float, default=0.0)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rebalance", action="store_true", help="force exactly equal sizes")
    p.add_argument("--out-clusters", required=True)
    p.add_argument("--out-metrics", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("stratify", help="group clusters into covariate strata")
    p.add_argument("--edges", required=True)
    p.add_argument("--clusters-file", required=True)
    p.add_argument("--strata", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--covariates", help="optional CSV: cluster_id,<numeric columns...>")
    p.add_argument("--out-strata", required=True)
    p.add_argument("--out-meta")
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("assign", help="draw the two-arm hierarchical assignment")
    p.add_argument("--clusters-file", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stratification", help="optional stratification CSV")
    p.add_argument("--counts", help="optional design-counts JSON (default: symmetric)")
    p.add_argument("--mechanism", choices=["complete", "bernoulli"], default="complete")
    p.add_argument("--out-assignment", required=True)
    p.add_argument("--out-counts", required=True)
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("analyze", help="test for interference from persisted files")
    p.add_argument("--assignment", required=True)
    p.add_argument("--outcomes", required=True)
    p.add_argument("--clusters-file", required=True)
    p.add_argument("--stratification", help="optional stratification CSV")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--rule", choices=["chebyshev", "gaussian"], default="chebyshev")
    p.add_argument("--out-report", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run a Monte Carlo study from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--study", choices=["ratio", "power", "type1"], help="sanity check only")
    p.add_argument("--threads", type=int, default=os.cpu_count())
    p.add_argument("--out-json")
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="exact verification checks on a small design")
    p.add_argument("--check", choices=list(CHECKS) + ["all"], default="all")
    p.add_argument("--design", help="design JSON (default: bundled 8-unit/4-cluster design)")
    p.add_argument("--out-report")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _check_outputs(args)
        return args.func(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except SpilltestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
