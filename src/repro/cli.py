"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``models``       enumerate the models of a formula
``count``        count models without enumerating (BDD-backed)
``change``       apply a named theory-change operator to ψ and μ
``arbitrate``    arbitration ψ Δ φ (optionally weighted by vote counts)
``merge``        n-ary consensus over named sources
``audit``        the operator × axiom satisfaction matrix
``stats``        an instrumented smoke audit printing the metrics snapshot
``soak``         replay a long seeded change stream with online invariants
``trajectory``   gate fresh benchmark runs against committed BENCH baselines
``experiments``  run the paper-reproduction drivers E1–E8
``serve``        run the arbitration service (HTTP/JSON sessions)

Formulas use the library's surface syntax (``!``, ``&``, ``|``, ``->``,
``<->``, ``^``); the vocabulary defaults to the atoms mentioned, or pass
``--atoms a,b,c`` to fix 𝒯 explicitly (it matters: distances depend on it).

Examples::

    python -m repro models "a -> b" --atoms a,b
    python -m repro change --op dalal "A & B & (A & B -> C)" "!C"
    python -m repro arbitrate "A & B & (A & B -> C)" "!C"
    python -m repro merge sales="active & exported" compliance="!certified"
    python -m repro audit --atoms-count 2
    python -m repro experiments --only E3 E4
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional, Sequence

from repro import obs
from repro.bench.experiments import (
    run_e1_intro_example,
    run_e2_dalal_revision,
    run_e3_classroom_fitting,
    run_e4_weighted_classroom,
    run_e5_characterization,
    run_e6_disjointness,
    run_e7_postulate_matrix,
    run_e8_arbitration,
    standard_operators,
)
from repro.core.arbitration import ArbitrationOperator
from repro.core.weighted import WeightedArbitration, WeightedKnowledgeBase
from repro.errors import ReproError
from repro.kb.merge import MergeSession
from repro.logic.bdd import BddEngine
from repro.logic.enumeration import DpllEngine, TruthTableEngine, models
from repro.logic.implicants import minimal_formula
from repro.engine.resilience import DEFAULT_MAX_RETRIES
from repro.logic.interpretation import Vocabulary
from repro.logic.parser import as_formula
from repro.postulates.matrix import compute_matrix, render_matrix
from repro.session import OPERATOR_FACTORIES, operator_by_name
from repro.postulates.weighted_axioms import (
    audit_weighted_operator,
    render_weighted_audit,
)
from repro.symbolic import supports_symbolic

__all__ = ["main"]

# One operator roster for the whole surface: the ``change`` command, the
# session layer, and the serving layer all dispatch through this table.
_OPERATORS = dict(OPERATOR_FACTORIES)

_ENGINES = {
    "tt": TruthTableEngine,
    "dpll": DpllEngine,
    "bdd": BddEngine,
}

_EXPERIMENTS = {
    "E1": run_e1_intro_example,
    "E2": run_e2_dalal_revision,
    "E3": run_e3_classroom_fitting,
    "E4": run_e4_weighted_classroom,
    "E5": run_e5_characterization,
    "E6": run_e6_disjointness,
    "E7": run_e7_postulate_matrix,
    "E8": run_e8_arbitration,
}


def _vocabulary(args_atoms: Optional[str], *formulas) -> Vocabulary:
    if args_atoms:
        return Vocabulary([name.strip() for name in args_atoms.split(",")])
    return Vocabulary.from_formulas(*formulas)


def _print_models(model_set, out) -> None:
    print(f"{len(model_set)} model(s) over {list(model_set.vocabulary.atoms)}:", file=out)
    for interpretation in model_set:
        print(f"  {interpretation!r}", file=out)


def _cmd_models(args, out) -> int:
    formula = as_formula(args.formula)
    vocabulary = _vocabulary(args.atoms, formula)
    engine = _ENGINES[args.engine]()
    _print_models(engine.models(formula, vocabulary), out)
    return 0


def _cmd_count(args, out) -> int:
    formula = as_formula(args.formula)
    vocabulary = _vocabulary(args.atoms, formula)
    count = BddEngine().count_models(formula, vocabulary)
    print(f"{count} model(s) over {vocabulary.size} atom(s)", file=out)
    return 0


def _cmd_change(args, out) -> int:
    psi = as_formula(args.psi)
    mu = as_formula(args.mu)
    vocabulary = _vocabulary(args.atoms, psi, mu)
    operator = operator_by_name(args.op)
    result = models(operator.apply(psi, mu, vocabulary), vocabulary)
    print(f"{operator.name}(ψ, μ) = {minimal_formula(result)}", file=out)
    _print_models(result, out)
    return 0


def _cmd_arbitrate(args, out) -> int:
    psi = as_formula(args.psi)
    phi = as_formula(args.phi)
    vocabulary = _vocabulary(args.atoms, psi, phi)
    if args.weights:
        parts = [int(part) for part in args.weights.split(",")]
        if len(parts) != 2:
            raise ReproError("--weights expects two comma-separated integers")
        left = WeightedKnowledgeBase.from_formula(psi, vocabulary, weight=parts[0])
        right = WeightedKnowledgeBase.from_formula(phi, vocabulary, weight=parts[1])
        consensus = WeightedArbitration().apply(left, right).support()
        label = f"weighted Δ ({parts[0]} vs {parts[1]})"
    else:
        operator = ArbitrationOperator()
        consensus = operator.apply_models(
            models(psi, vocabulary), models(phi, vocabulary)
        )
        label = "ψ Δ φ"
    print(f"{label} = {minimal_formula(consensus)}", file=out)
    _print_models(consensus, out)
    return 0


def _cmd_merge(args, out) -> int:
    parsed_sources = []
    atom_names: set[str] = set()
    for spec in args.sources:
        if "=" not in spec:
            raise ReproError(f"source spec must be name=formula[:weight]: {spec!r}")
        name, _, rest = spec.partition("=")
        weight = 1
        if ":" in rest:
            formula_text, _, weight_text = rest.rpartition(":")
            if weight_text.isdigit():
                rest, weight = formula_text, int(weight_text)
        formula = as_formula(rest)
        atom_names |= formula.atoms()
        parsed_sources.append((name, formula, weight))
    atoms = (
        [name.strip() for name in args.atoms.split(",")]
        if args.atoms
        else sorted(atom_names)
    )
    session = MergeSession(atoms)
    for name, formula, weight in parsed_sources:
        session.add(name, formula, weight=weight)
    report = session.merge_weighted() if args.weighted else session.merge()
    print(report.describe(), file=out)
    return 0


def _weighted_audit_operators(wanted: Optional[Sequence[str]]):
    from repro.core.weighted import WeightedArbitration, WeightedModelFitting

    operators = [WeightedModelFitting(), WeightedArbitration()]
    if wanted:
        names = set(wanted)
        operators = [op for op in operators if op.name in names]
        if not operators:
            raise ReproError(f"no such weighted operators: {sorted(names)}")
    return operators


def _audit_operators(wanted: Optional[Sequence[str]], impl: str, out) -> list:
    """The Boolean audit roster: the standard operators, or the named
    ones.  Without names, a symbolic audit keeps the symbolic-capable
    subset and says what it skipped."""
    operators = standard_operators()
    if wanted:
        names = set(wanted)
        operators = [op for op in operators if op.name in names]
        if not operators:
            raise ReproError(f"no such operators: {sorted(names)}")
    elif impl == "symbolic":
        skipped = [op.name for op in operators if not supports_symbolic(op)]
        operators = [op for op in operators if supports_symbolic(op)]
        if skipped:
            print(
                "note: dense-only operators skipped under --impl symbolic: "
                + ", ".join(skipped),
                file=out,
            )
    return operators


def _cmd_audit(args, out) -> int:
    """One sweep, observed when ``--stats`` or ``--metrics-out`` asks.
    The engine refuses what does not apply, except the flags the weighted
    engine has no parameter for."""
    vocabulary = Vocabulary(
        [chr(ord("a") + index) for index in range(args.atoms_count)]
    )
    if args.weighted:
        if args.impl == "symbolic":
            raise ReproError(
                "--impl symbolic does not support --weighted "
                "(weighted audits are dense-only)"
            )
        if args.journal or args.resume:
            raise ReproError(
                "--journal/--resume are not supported for weighted audits: "
                "the weighted sweep has no resumable chunk journal (drop "
                "--weighted or --journal/--resume)"
            )
        weighted_operators = _weighted_audit_operators(args.operator)

        def sweep() -> str:
            return render_weighted_audit(
                {
                    operator.name: audit_weighted_operator(
                        operator,
                        vocabulary,
                        scenarios=args.scenarios,
                        jobs=args.jobs,
                        chunk_timeout=args.chunk_timeout,
                        max_retries=args.max_retries,
                        shm=args.shm,
                    )
                    for operator in weighted_operators
                }
            )

    else:
        operators = _audit_operators(args.operator, args.impl, out)

        def sweep() -> str:
            matrix = compute_matrix(
                operators,
                vocabulary,
                max_scenarios=args.scenarios,
                jobs=args.jobs,
                chunk_timeout=args.chunk_timeout,
                max_retries=args.max_retries,
                shm=args.shm,
                journal_dir=args.journal,
                resume=args.resume,
                impl=args.impl,
            )
            return render_matrix(matrix)

    observe = args.stats or args.metrics_out
    with obs.use() if observe else contextlib.nullcontext() as registry:
        table = sweep()
        if args.metrics_out:
            payload = obs.write_metrics(args.metrics_out, registry)
        elif args.stats:
            payload = obs.metrics_payload(registry)
    print(table, file=out)
    if args.stats:
        print(file=out)
        print(obs.render_metrics(payload), file=out)
    return 0


def _cmd_stats(args, out) -> int:
    """An instrumented smoke audit: exercises kernels, caches, harness,
    and (with ``--jobs``) the pool, then reports the metrics snapshot."""
    vocabulary = Vocabulary(
        [chr(ord("a") + index) for index in range(args.atoms_count)]
    )
    with obs.use() as registry:
        compute_matrix(
            standard_operators(),
            vocabulary,
            max_scenarios=args.scenarios,
            jobs=args.jobs,
        )
        payload = obs.metrics_payload(registry)
    if args.json:
        import json

        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        print(obs.render_metrics(payload), file=out)
    return 0


def _cmd_soak(args, out) -> int:
    """Run (or resume) an iterated-change soak stream; exit 1 on any
    invariant violation, 0 otherwise (including a clean ``--max-chunks``
    stop, which prints INCOMPLETE and resumes later)."""
    from repro.soak import SoakConfig, run_soak

    config = SoakConfig(
        seed=args.seed,
        steps=args.steps,
        atoms=args.atoms_count,
        chunk_size=args.chunk_size,
        depth=args.depth,
        commute_every=args.commute_every,
        roundtrip_every=args.roundtrip_every,
    )
    if args.metrics_out:
        with obs.use() as registry:
            report = run_soak(
                config,
                journal_dir=args.journal,
                resume=args.resume,
                max_chunks=args.max_chunks,
            )
            payload = obs.metrics_payload(registry)
        payload["soak_drift"] = report.drift
        import json

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        report = run_soak(
            config,
            journal_dir=args.journal,
            resume=args.resume,
            max_chunks=args.max_chunks,
        )
    print(report.describe(), file=out)
    return 0 if report.ok else 1


def _cmd_trajectory(args, out) -> int:
    """Compare fresh benchmark snapshots against committed baselines;
    exit 1 on any regression, missing row, or checksum mismatch."""
    from repro.bench.trajectory import (
        compare_payloads,
        regenerate_payload,
        render_report,
    )
    from repro.kb.serialize import load_json_snapshot

    if args.fresh and len(args.fresh) != len(args.baseline):
        raise ReproError(
            f"got {len(args.baseline)} --baseline but {len(args.fresh)} "
            "--fresh; pass one fresh snapshot per baseline or none (--run)"
        )
    if not args.fresh and not args.run:
        raise ReproError("pass --fresh FILE per baseline, or --run to regenerate")
    all_ok = True
    for index, baseline_path in enumerate(args.baseline):
        baseline = load_json_snapshot(baseline_path, what="benchmark baseline")
        if args.fresh:
            fresh = load_json_snapshot(args.fresh[index], what="fresh snapshot")
        else:
            fresh = regenerate_payload(baseline)
        report = compare_payloads(baseline, fresh)
        print(render_report(report), file=out)
        print(file=out)
        all_ok = all_ok and report.ok
    print("TRAJECTORY OK" if all_ok else "TRAJECTORY REGRESSED", file=out)
    return 0 if all_ok else 1


def _cmd_experiments(args, out) -> int:
    wanted = args.only if args.only else sorted(_EXPERIMENTS)
    all_ok = True
    for key in wanted:
        driver = _EXPERIMENTS.get(key.upper())
        if driver is None:
            raise ReproError(f"unknown experiment {key!r}; known: {sorted(_EXPERIMENTS)}")
        result = driver()
        print(result.describe(), file=out)
        print(file=out)
        all_ok = all_ok and result.all_match
    print("ALL MATCH" if all_ok else "SOME ROWS DIFFER", file=out)
    return 0 if all_ok else 1


def _cmd_serve(args, out) -> int:
    """Run the arbitration service until SIGINT/SIGTERM."""
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        store_dir=args.store,
        queue_limit=args.queue_limit,
        batch_max=args.batch_max,
    )
    return run_server(config, out=out, metrics_out=args.metrics_out)


def _cmd_shell(args, out) -> int:
    from repro.kb.shell import Shell

    Shell(out).run(sys.stdin)
    return 0


def _job_count(text: str) -> int:
    """``--jobs``: at least 1, or argparse exits with a usage error (2)."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Theory change by arbitration (Revesz, PODS 1993) — CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    models_parser = subparsers.add_parser("models", help="enumerate models")
    models_parser.add_argument("formula")
    models_parser.add_argument("--atoms", help="comma-separated vocabulary 𝒯")
    models_parser.add_argument(
        "--engine", choices=sorted(_ENGINES), default="tt", help="enumeration engine"
    )
    models_parser.set_defaults(handler=_cmd_models)

    count_parser = subparsers.add_parser("count", help="count models via BDD")
    count_parser.add_argument("formula")
    count_parser.add_argument("--atoms")
    count_parser.set_defaults(handler=_cmd_count)

    change_parser = subparsers.add_parser("change", help="apply an operator")
    change_parser.add_argument("--op", choices=sorted(_OPERATORS), required=True)
    change_parser.add_argument("psi")
    change_parser.add_argument("mu")
    change_parser.add_argument("--atoms")
    change_parser.set_defaults(handler=_cmd_change)

    arbitrate_parser = subparsers.add_parser("arbitrate", help="ψ Δ φ")
    arbitrate_parser.add_argument("psi")
    arbitrate_parser.add_argument("phi")
    arbitrate_parser.add_argument("--atoms")
    arbitrate_parser.add_argument(
        "--weights", help="two vote counts, e.g. 9,2 — switches to weighted Δ"
    )
    arbitrate_parser.set_defaults(handler=_cmd_arbitrate)

    merge_parser = subparsers.add_parser("merge", help="n-ary consensus")
    merge_parser.add_argument(
        "sources", nargs="+", metavar="name=formula[:weight]"
    )
    merge_parser.add_argument("--atoms")
    merge_parser.add_argument(
        "--weighted", action="store_true", help="weighted (wdist) merge"
    )
    merge_parser.set_defaults(handler=_cmd_merge)

    audit_parser = subparsers.add_parser("audit", help="postulate matrix")
    audit_parser.add_argument("--atoms-count", type=int, default=2)
    audit_parser.add_argument("--scenarios", type=int, default=5000)
    audit_parser.add_argument(
        "--operator", action="append", help="restrict to named operators"
    )
    audit_parser.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        help="audit worker processes, at least 1 (1 = in-process loop)",
    )
    audit_parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-chunk wall-clock budget before the pool is recycled "
        "and the chunk retried (default: no timeout)",
    )
    audit_parser.add_argument(
        "--max-retries",
        type=int,
        default=DEFAULT_MAX_RETRIES,
        help="worker retries per chunk before the parent re-evaluates it "
        "serially (default: %(default)s)",
    )
    audit_parser.add_argument(
        "--stats",
        action="store_true",
        help="print the metrics snapshot after the matrix",
    )
    audit_parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics snapshot as JSON to FILE",
    )
    audit_parser.add_argument(
        "--weighted",
        action="store_true",
        help="audit the weighted operators against F1–F8 (Section 4)",
    )
    audit_parser.add_argument(
        "--shm",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="zero-copy shared-memory arenas for pool workers "
        "(default: auto when available; REPRO_SHM=0/1 overrides)",
    )
    audit_parser.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="journal completed chunks to DIR so a killed sweep can be "
        "resumed (needs --jobs >= 2)",
    )
    audit_parser.add_argument(
        "--resume",
        action="store_true",
        help="resume the sweep journaled in --journal DIR, skipping "
        "completed chunks (refused on any configuration mismatch)",
    )
    audit_parser.add_argument(
        "--impl",
        choices=("dense", "symbolic"),
        default="dense",
        help="backend: 'dense' enumerates interpretations, 'symbolic' "
        "audits on BDD level sets (cell-identical up to 16 atoms, and the "
        "only backend that completes at 30+; serial — excludes --jobs/"
        "--shm/--journal; REPRO_SYMBOLIC_THRESHOLD tunes formula-level "
        "auto dispatch)",
    )
    audit_parser.set_defaults(handler=_cmd_audit)

    stats_parser = subparsers.add_parser(
        "stats", help="instrumented smoke audit + metrics snapshot"
    )
    stats_parser.add_argument("--atoms-count", type=int, default=2)
    stats_parser.add_argument("--scenarios", type=int, default=500)
    stats_parser.add_argument(
        "--jobs",
        type=_job_count,
        default=1,
        help="audit worker processes, at least 1 (1 = in-process loop)",
    )
    stats_parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    stats_parser.set_defaults(handler=_cmd_stats)

    soak_parser = subparsers.add_parser(
        "soak", help="iterated-change soak with online invariant checks"
    )
    soak_parser.add_argument(
        "--steps", type=int, default=10_000, help="stream length in change steps"
    )
    soak_parser.add_argument("--seed", type=int, default=0)
    soak_parser.add_argument("--atoms-count", type=int, default=5)
    soak_parser.add_argument(
        "--chunk-size",
        type=int,
        default=256,
        metavar="STEPS",
        help="steps per journaled chunk (the resume granularity)",
    )
    soak_parser.add_argument(
        "--depth", type=int, default=3, help="connective depth of drawn formulas"
    )
    soak_parser.add_argument(
        "--commute-every",
        type=int,
        default=16,
        metavar="STEPS",
        help="cadence of commutativity / merge-order spot-checks",
    )
    soak_parser.add_argument(
        "--roundtrip-every",
        type=int,
        default=64,
        metavar="STEPS",
        help="cadence of serialize→deserialize round-trip checks",
    )
    soak_parser.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="journal completed chunks under DIR (enables --resume)",
    )
    soak_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from the journal's last intact chunk boundary",
    )
    soak_parser.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        metavar="N",
        help="process at most N chunks this invocation, then stop cleanly",
    )
    soak_parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the obs metrics snapshot plus per-chunk drift to FILE",
    )
    soak_parser.set_defaults(handler=_cmd_soak)

    trajectory_parser = subparsers.add_parser(
        "trajectory", help="perf gate: fresh benchmarks vs BENCH baselines"
    )
    trajectory_parser.add_argument(
        "--baseline",
        action="append",
        required=True,
        metavar="FILE",
        help="committed BENCH_*.json baseline (repeatable)",
    )
    trajectory_parser.add_argument(
        "--fresh",
        action="append",
        metavar="FILE",
        help="fresh snapshot to gate, one per --baseline (omit with --run)",
    )
    trajectory_parser.add_argument(
        "--run",
        action="store_true",
        help="regenerate each fresh snapshot in-process with the "
        "baseline's recorded params",
    )
    trajectory_parser.set_defaults(handler=_cmd_trajectory)

    experiments_parser = subparsers.add_parser(
        "experiments", help="run the paper-reproduction drivers"
    )
    experiments_parser.add_argument(
        "--only", nargs="*", help="experiment ids, e.g. E3 E4"
    )
    experiments_parser.set_defaults(handler=_cmd_experiments)

    serve_parser = subparsers.add_parser(
        "serve", help="run the arbitration service (HTTP/JSON sessions)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8423, help="TCP port (0 picks a free one)"
    )
    serve_parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist session snapshots under DIR (restart restores them; "
        "omit for in-memory-only sessions)",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="admission bound: queued jobs beyond this are shed with 429 "
        "(default: %(default)s)",
    )
    serve_parser.add_argument(
        "--batch-max",
        type=int,
        default=32,
        help="hard cap on jobs per batch: jobs queued while the worker "
        "is busy leave together, grouped onto shared engine contexts "
        "(default: %(default)s)",
    )
    serve_parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the final serve.* metrics snapshot to FILE on shutdown",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    shell_parser = subparsers.add_parser(
        "shell", help="interactive theory-change session"
    )
    shell_parser.set_defaults(handler=_cmd_shell)

    return parser


#: Exit code when the output's reader goes away (``… | head``): 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
