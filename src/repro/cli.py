"""Command-line interface.

Usage::

    python -m repro table1                # reproduce the paper's Table 1
    python -m repro scene 18              # explain one scene's ruling
    python -m repro assess watermark      # Section IV advisor verdict
    python -m repro storyline ip          # run a full storyline
    python -m repro authorities           # list the citation registry
    python -m repro lint                  # AST-lint the repo's invariants
    python -m repro analyze-plan table1   # static plan analysis
    python -m repro chaos --seed 7        # paper invariants under faults
    python -m repro bench --quick         # in-process benchmarks -> BENCH_engine.json
    python -m repro serve                 # sharded ruling server + /metrics
    python -m repro serve-bench --quick   # live-server byte-identity gate
    python -m repro metrics               # Prometheus text from a traced replay
    python -m repro trace --audit         # spans + authorizing instruments
    python -m repro workflow run photo-recovery --seed 7
    python -m repro workflow verify-resume   # crash/resume determinism gate
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence

from repro.core import ComplianceEngine, ResearchAdvisor, build_table1


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.investigation import format_table1

    engine = ComplianceEngine()
    print(format_table1(build_table1(), engine))
    return 0


def _cmd_scene(args: argparse.Namespace) -> int:
    engine = ComplianceEngine()
    scenes = {scene.number: scene for scene in build_table1()}
    scene = scenes.get(args.number)
    if scene is None:
        print(f"no scene {args.number}; Table 1 has scenes 1-20")
        return 1
    ruling = engine.evaluate(scene.action)
    if args.json:
        import json

        payload = {
            "scene": scene.number,
            "description": scene.action.description,
            "paper_answer": scene.paper_answer,
            "ruling": ruling.to_dict(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"Scene {scene.number}: {scene.action.description}")
    print(f"Paper's answer: {scene.paper_answer}")
    print(ruling.explain())
    return 0


_TECHNIQUES: dict[str, Callable[[], object]] = {}


def _technique_factories() -> dict[str, Callable[[], object]]:
    if _TECHNIQUES:
        return _TECHNIQUES
    from repro.storage import KnownFileSet
    from repro.techniques import (
        CredentialedAccessTechnique,
        Credential,
        DataMiningTechnique,
        DsssWatermarkTechnique,
        HashSearchTechnique,
        OneSwarmTimingAttack,
        PacketCountingCorrelator,
    )
    from repro.techniques.interval_watermark import SquareWaveTechnique

    _TECHNIQUES.update(
        {
            "timing": OneSwarmTimingAttack,
            "watermark": DsssWatermarkTechnique,
            "square-wave": SquareWaveTechnique,
            "correlation": PacketCountingCorrelator,
            "hash-search": lambda: HashSearchTechnique(KnownFileSet()),
            "mining": lambda: DataMiningTechnique(fields=["ip"]),
            "credentials": lambda: CredentialedAccessTechnique(
                Credential("defendant", "password")
            ),
        }
    )
    return _TECHNIQUES


def _cmd_assess(args: argparse.Namespace) -> int:
    from repro.investigation import format_assessment

    factories = _technique_factories()
    factory = factories.get(args.technique)
    if factory is None:
        print(f"unknown technique; choose from: {', '.join(sorted(factories))}")
        return 1
    technique = factory()
    assessment = technique.assess(ResearchAdvisor())
    print(format_assessment(assessment))
    return 0


def _cmd_storyline(args: argparse.Namespace) -> int:
    from repro.investigation.storylines import (
        ip_traceback_storyline,
        watermark_situation_one,
        watermark_situation_two,
    )

    runners = {
        "ip": lambda: ip_traceback_storyline(comply=True),
        "ip-crist": lambda: ip_traceback_storyline(comply=False),
        "wm1": watermark_situation_one,
        "wm2": watermark_situation_two,
    }
    runner = runners.get(args.name)
    if runner is None:
        print(f"unknown storyline; choose from: {', '.join(sorted(runners))}")
        return 1
    report = runner()
    print(f"=== {report.title} ===")
    for index, step in enumerate(report.steps, 1):
        print(f"  {index}. {step}")
    print(f"outcome: {'SUCCESS' if report.succeeded else 'FAILED'}")
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    from repro.investigation import format_quick_reference

    print(format_quick_reference(build_table1(), ComplianceEngine()))
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.investigation.campaign import compliance_curve

    collector = obs.enable(obs.TraceCollector()) if args.trace_out else None
    probabilities = [0.0, 0.25, 0.5, 0.75, 1.0]
    try:
        curve = compliance_curve(
            probabilities,
            n_cases=args.cases,
            seed=args.seed,
            max_workers=args.workers,
        )
    finally:
        if collector is not None:
            obs.disable()
    print("prosecution success rate vs compliance probability:")
    for p in probabilities:
        bar = "#" * int(curve[p] * 40)
        print(f"  p={p:4.2f}: {curve[p]:6.1%} {bar}")
    if collector is not None:
        obs.export.write_trace(args.trace_out, collector.spans)
        print(f"wrote {len(collector.spans)} span(s) to {args.trace_out}")
    return 0


def _traced_table1_run(comply: bool = True) -> list:
    """Run every Table 1 scene end to end with telemetry on.

    Returns the finished span records.  The module-level registry is
    left populated (cache gauges bound, engine counters incremented) so
    callers can render metrics after the run; tracing is switched off
    again before returning.
    """
    from repro import obs
    from repro.core import RulingCache
    from repro.investigation.pipeline import InvestigationPipeline

    obs.reset()
    cache = RulingCache()
    engine = ComplianceEngine(cache=cache)
    obs.bind_ruling_cache(cache.stats)
    collector = obs.enable()
    try:
        InvestigationPipeline(engine).run_all(
            build_table1(), obtain_process=comply
        )
    finally:
        obs.disable()
    return collector.spans


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro import obs

    _traced_table1_run(comply=not args.no_comply)
    text = obs.OBS.registry.render_text()
    if not text.strip():
        print("metrics registry is empty after a traced Table 1 replay")
        return 1
    print(text, end="")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    records = _traced_table1_run(comply=not args.no_comply)
    if args.out:
        obs.export.write_trace(args.out, records, chrome=args.chrome)
        print(f"wrote {len(records)} span(s) to {args.out}")
    if args.audit:
        print(obs.render_audit_report(records))
        if not obs.acquisition_spans(records):
            return 1
        return 1 if obs.unauthorized_acquisitions(records) else 0
    if not args.out:
        payload = (
            obs.export.to_chrome_trace(records)
            if args.chrome
            else obs.export.to_jsonl(records)
        )
        print(payload, end="" if payload.endswith("\n") else "\n")
    return 0


def _cmd_authorities(args: argparse.Namespace) -> int:
    engine = ComplianceEngine()
    for authority in sorted(engine.registry, key=lambda a: a.key):
        print(f"{authority.key:28s} {authority.citation}")
        if args.verbose:
            print(f"{'':28s}   {authority.holding}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        filter_baselined,
        has_errors,
        load_baseline,
        render_report,
        run_lint,
        write_baseline,
        write_sarif,
    )
    from repro.analysis.pylint_rules import all_rules

    if args.rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:28s} {rule.description}")
        return 0
    paths = [Path(p) for p in args.paths] if args.paths else None
    run = run_lint(paths)
    diagnostics = run.diagnostics

    if args.write_baseline:
        count = write_baseline(Path(args.write_baseline), diagnostics)
        print(f"baseline written: {count} finding(s) adopted")
        return 0
    baselined = 0
    if args.baseline:
        accepted = load_baseline(Path(args.baseline))
        diagnostics, baselined = filter_baselined(diagnostics, accepted)
    if args.sarif:
        write_sarif(Path(args.sarif), diagnostics, all_rules())

    print(render_report(diagnostics))
    extras = []
    if run.suppressed:
        extras.append(f"{run.suppressed} suppressed inline")
    if baselined:
        extras.append(f"{baselined} baselined")
    if extras:
        print(f"({', '.join(extras)})")
    if args.timings:
        for code, seconds in sorted(
            run.timings.items(), key=lambda item: -item[1]
        ):
            print(f"{code:12s} {seconds * 1000:8.1f} ms")
        print(f"{run.files} file(s) linted")
    return 1 if has_errors(diagnostics) else 0


_PROCESS_FLAGS = {
    "subpoena": "SUBPOENA",
    "court-order": "COURT_ORDER",
    "warrant": "SEARCH_WARRANT",
    "wiretap": "WIRETAP_ORDER",
}


def _cmd_analyze_plan(args: argparse.Namespace) -> int:
    from repro.analysis import (
        DEMO_PLANS,
        PlanAnalyzer,
        plan_from_scenario,
        plan_from_scene_number,
        plan_from_technique,
    )
    from repro.core.enums import ProcessKind

    analyzer = PlanAnalyzer(ComplianceEngine())
    instruments: tuple[ProcessKind, ...] = tuple(
        ProcessKind[_PROCESS_FLAGS[flag]] for flag in args.with_process
    )

    if args.target == "table1":
        mismatches = 0
        for scenario in build_table1():
            report = analyzer.analyze(plan_from_scenario(scenario))
            engine_answer = (
                "Need" if report.required_process is not ProcessKind.NONE
                else "No need"
            )
            agrees = engine_answer in scenario.paper_answer
            mismatches += not agrees
            mark = "ok" if agrees else "MISMATCH"
            print(
                f"scene {scenario.number:2d}: requires "
                f"{report.required_process.display_name:24s} "
                f"paper: {scenario.paper_answer:12s} {mark}"
            )
        print(
            f"{20 - mismatches}/20 scenes reproduce the paper's answer "
            "statically"
        )
        return 1 if mismatches else 0

    if args.target.isdigit():
        try:
            plan = plan_from_scene_number(int(args.target), instruments)
        except KeyError:
            print(f"no Table 1 scene {args.target}; scenes are 1-20")
            return 1
    elif args.target in DEMO_PLANS:
        plan = DEMO_PLANS[args.target]()
        if instruments:
            import dataclasses

            plan = dataclasses.replace(plan, instruments=instruments)
    else:
        factories = _technique_factories()
        factory = factories.get(args.target)
        if factory is None:
            choices = (
                ["table1", "<scene number 1-20>"]
                + sorted(DEMO_PLANS)
                + sorted(factories)
            )
            print(
                "unknown plan target; choose from: "
                + ", ".join(choices)
            )
            return 1
        plan = plan_from_technique(factory(), instruments)

    report = analyzer.analyze(plan)
    print(report.render())
    return 0 if report.ok else 1


_CHAOS_BUDGETS = {"small": 5, "medium": 25, "large": 100}


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.faults.chaos import run_chaos

    ledger = None
    if args.ledger:
        from repro.ledger import Ledger

        ledger = Ledger(args.ledger)
    collector = obs.enable(obs.TraceCollector()) if args.trace_out else None
    try:
        report = run_chaos(
            seed=args.seed,
            n_plans=_CHAOS_BUDGETS[args.budget],
            scenes=args.scenes,
            intensity=args.intensity,
            max_workers=args.workers,
            ledger=ledger,
        )
    except ValueError as error:
        print(error)
        return 1
    finally:
        if collector is not None:
            obs.disable()
        if ledger is not None:
            counts = ledger.counts()
            ledger.close()
    print(report.render())
    if ledger is not None:
        print(
            f"ledger {args.ledger}: {counts['rulings']} ruling(s), "
            f"{counts['suppression_outcomes']} suppression outcome(s), "
            f"{counts['custody_chains']} custody chain(s)"
        )
    if collector is not None:
        obs.export.write_trace(args.trace_out, collector.spans)
        print(f"wrote {len(collector.spans)} span(s) to {args.trace_out}")
    return 0 if report.ok else 1


def _open_ledger(path: str, must_exist: bool = True):
    """Open a ledger file, or print why it cannot be opened."""
    from pathlib import Path

    from repro.ledger import Ledger, LedgerError

    if must_exist and path != ":memory:" and not Path(path).exists():
        print(f"no ledger at {path}; create one with 'repro ledger populate'")
        return None
    try:
        return Ledger(path)
    except LedgerError as error:
        print(error)
        return None


def _cmd_ledger_populate(args: argparse.Namespace) -> int:
    from repro.core import RulingCache
    from repro.investigation.pipeline import InvestigationPipeline
    from repro.workloads import action_corpus

    ledger = _open_ledger(args.path, must_exist=False)
    if ledger is None:
        return 2
    with ledger:
        engine = ComplianceEngine(cache=RulingCache(), ledger=ledger)
        pipeline = InvestigationPipeline(
            engine=engine, ledger=ledger, run_label=args.label
        )
        scenarios = build_table1()
        pipeline.run_all(scenarios, obtain_process=True)
        pipeline.run_all(scenarios, obtain_process=False)
        if args.corpus:
            engine.evaluate_many(action_corpus(args.corpus, seed=args.seed))
        counts = ledger.counts()
    print(f"populated {args.path}:")
    for table, n in counts.items():
        print(f"  {table:22s} {n}")
    return 0


def _cmd_ledger_query(args: argparse.Namespace) -> int:
    import json

    from repro.core.enums import ProcessKind
    from repro.ledger import rulings_citing, search_reasoning

    ledger = _open_ledger(args.path)
    if ledger is None:
        return 2
    with ledger:
        if args.fts:
            rows = search_reasoning(ledger, args.fts, limit=args.limit)
            if args.citing:
                rows = [r for r in rows if args.citing in r.citations]
            if args.suppressed:
                rows = [
                    r
                    for r in rows
                    if any(o != "admissible" for o in r.suppression_outcomes)
                ]
        else:
            process = None
            if args.process:
                name = args.process.upper().replace("-", "_")
                if name not in ProcessKind.__members__:
                    print(
                        "unknown process kind; choose from: "
                        + ", ".join(k.name.lower() for k in ProcessKind)
                    )
                    return 2
                process = ProcessKind[name]
            rows = rulings_citing(
                ledger,
                authority_key=args.citing or None,
                required_process=process,
                suppressed=True if args.suppressed else None,
                limit=args.limit,
            )
    if args.json:
        print(json.dumps([row.to_dict() for row in rows], indent=2))
    else:
        for row in rows:
            outcomes = ",".join(row.suppression_outcomes) or "-"
            print(
                f"{row.fingerprint_digest[:16]}  "
                f"{row.required_process:22s} "
                f"outcomes={outcomes:24s} "
                f"cites={','.join(row.citations)}"
            )
        print(f"{len(rows)} ruling(s) matched")
    if args.expect_rows and not rows:
        return 1
    return 0


def _cmd_ledger_stats(args: argparse.Namespace) -> int:
    import json

    from repro.ledger import (
        citation_histogram,
        process_histogram,
        suppression_histogram,
    )

    ledger = _open_ledger(args.path)
    if ledger is None:
        return 2
    with ledger:
        info = ledger.describe()
        info["process_histogram"] = process_histogram(ledger)
        info["citation_histogram"] = citation_histogram(ledger, limit=10)
        info["suppression_histogram"] = suppression_histogram(ledger)
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    print(f"ledger {info['path']}")
    print(
        f"  schema v{info['schema_version']} "
        f"(digest {info['schema_digest'][:12]}…) "
        f"fts={'on' if info['fts_enabled'] else 'off'} "
        f"size={info['size_bytes']} bytes"
    )
    for table, n in info["counts"].items():
        print(f"  {table:22s} {n}")
    print("  rulings by required process:")
    for name, n in info["process_histogram"].items():
        if n:
            print(f"    {name:22s} {n}")
    print("  most-cited authorities:")
    for key, n in info["citation_histogram"].items():
        print(f"    {key:28s} {n}")
    if info["suppression_histogram"]:
        print("  suppression outcomes:")
        for outcome, n in info["suppression_histogram"].items():
            print(f"    {outcome:22s} {n}")
    return 0


def _cmd_ledger_prime(args: argparse.Namespace) -> int:
    from repro.core import RulingCache
    from repro.ledger.serialize import ruling_to_json
    from repro.workloads import action_corpus

    ledger = _open_ledger(args.path)
    if ledger is None:
        return 2
    with ledger:
        cache = RulingCache(maxsize=2 * max(args.corpus, 1))
        loader = ComplianceEngine(cache=cache, ledger=ledger)
        n_primed = loader.prime_from_ledger()
        print(f"primed {n_primed} ruling(s) from {args.path}")
        if not args.verify:
            return 0
        # Rule the corpus without the ledger: verifying must not record
        # the corpus's misses into the ledger it verifies.
        primed = ComplianceEngine(cache=cache)
        corpus = action_corpus(args.corpus, seed=args.seed)
        fresh = ComplianceEngine()
        fresh_rulings = fresh.evaluate_many(corpus)
        primed_rulings = primed.evaluate_many(corpus)
        # The complete encoding: to_dict() and explain() would miss a
        # tampered privacy.steps or per-requirement trace.
        mismatches = sum(
            ruling_to_json(f) != ruling_to_json(p)
            for f, p in zip(fresh_rulings, primed_rulings)
        )
        hits = primed.cache_stats.hits
    print(
        f"differential over {len(corpus)} action(s) (seed {args.seed}): "
        f"{mismatches} mismatch(es), {hits} served from the primed cache"
    )
    if mismatches:
        print("LEDGER DIVERGENCE: primed rulings differ from fresh rulings")
        return 1
    return 0


def _cmd_ledger_vacuum(args: argparse.Namespace) -> int:
    ledger = _open_ledger(args.path)
    if ledger is None:
        return 2
    with ledger:
        before = ledger.describe()["size_bytes"]
        after = ledger.vacuum()
    print(f"vacuumed {args.path}: {before} -> {after} bytes")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import render_report, run_bench

    report, ok = run_bench(quick=args.quick, seed=args.seed, out=args.out)
    print(render_report(report))
    print(f"wrote {args.out}")
    _write_bench_trace(args)
    return 0 if ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve.server import RulingServer, ServerConfig

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            metrics_port=args.metrics_port,
            n_shards=args.shards,
            cache_size=args.cache_size,
            ledger_path=args.ledger,
            prime=args.prime,
        )
    except ValueError as error:
        print(error)
        return 1

    async def _serve() -> None:
        server = RulingServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: asyncio.ensure_future(server.stop()),
                )
            except NotImplementedError:  # pragma: no cover - non-Unix
                pass
        host, port = server.address
        metrics_host, metrics_port = server.metrics_address
        print(f"repro serve: NDJSON on {host}:{port}")
        print(
            f"repro serve: metrics on "
            f"http://{metrics_host}:{metrics_port}/metrics"
        )
        print(
            f"repro serve: {config.n_shards} shards x "
            f"{config.cache_size} cache entries"
            + (f", ledger {config.ledger_path}" if config.ledger_path else "")
            + (
                f", primed {server.primed_rulings} rulings"
                if config.prime
                else ""
            ),
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve.bench import render_serve_report, run_serve_bench

    try:
        report, ok = run_serve_bench(
            quick=args.quick,
            connect=args.connect,
            out=args.out,
        )
    except (OSError, RuntimeError, ValueError) as error:
        print(f"serve-bench failed: {error}")
        return 1
    print(render_serve_report(report))
    print(f"wrote {args.out}")
    return 0 if ok else 1


def _write_bench_trace(args: argparse.Namespace) -> None:
    """Honor ``bench --trace-out``: a traced Table 1 replay, run *after*
    the benchmark so tracing cannot taint any measurement."""
    if not args.trace_out:
        return
    from repro import obs

    records = _traced_table1_run()
    obs.export.write_trace(args.trace_out, records)
    print(f"wrote {len(records)} span(s) to {args.trace_out}")


def _workflow_fault_plan(args: argparse.Namespace):
    from repro.workflow import WorkflowFaultPlan, parse_fault_plan

    if not args.fault_plan:
        return WorkflowFaultPlan()
    return parse_fault_plan(args.fault_plan)


def _workflow_pack(name: str):
    from repro.workflow.packs import get_pack, pack_names

    try:
        return get_pack(name)
    except KeyError:
        print(f"unknown pack {name!r}; available: {', '.join(pack_names())}")
        return None


def _print_workflow_result(result, verbose: bool) -> int:
    if verbose:
        print(result.report_text, end="")
    print(
        f"workflow {result.workflow}: status={result.status} "
        f"report={result.report_sha256[:12]} "
        f"artifacts={len(result.artifacts)} "
        f"custody={len(result.custody.entries)}"
        + (" RESUMED" if result.resumed else "")
        + (" SUPPRESSED" if result.suppressed else "")
    )
    if result.suppressed:
        print(f"suppression reason: {result.suppression_reason}")
    return 1 if result.status != "completed" else 0


def _cmd_workflow_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.workflow import (
        FaultPlanSyntaxError,
        WorkflowCrash,
        WorkflowEngine,
        WorkflowLegalityError,
    )

    try:
        plan = _workflow_fault_plan(args)
    except FaultPlanSyntaxError as error:
        print(error)
        return 2
    pack = _workflow_pack(args.pack)
    if pack is None:
        return 2

    if args.items > 1:
        from repro.workflow.parallel import run_batch

        batch = run_batch(
            args.pack,
            n_items=args.items,
            seed=args.seed,
            journal_dir=Path(args.journal_dir),
            max_workers=args.workers,
            fault_plan=plan,
        )
        print(batch.render(), end="")
        bad = [s for s in batch.summaries if s.status != "completed"]
        return 1 if bad else 0

    injector = plan.build_injector()
    subject = pack.build_subject(args.seed, injector)
    engine = WorkflowEngine(pack.build_spec())
    journal_path = Path(args.journal) if args.journal else None
    if journal_path is not None:
        journal_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        result = engine.run(
            subject,
            seed=args.seed,
            journal_path=journal_path,
            injector=injector,
            crash_after=plan.crash_after_record,
        )
    except WorkflowLegalityError as error:
        print("workflow rejected by the static legality gate:")
        print(error.report.render())
        return 2
    except WorkflowCrash as crash:
        print(f"workflow crashed: {crash}")
        if journal_path is not None:
            print(
                f"journal survives at {journal_path}; resume with: "
                f"repro workflow resume {args.pack} --seed {args.seed} "
                f"--journal {journal_path}"
                + (f" --fault-plan '{args.fault_plan}'" if args.fault_plan else "")
            )
        return 3
    return _print_workflow_result(result, not args.quiet)


def _cmd_workflow_resume(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.workflow import (
        FaultPlanSyntaxError,
        JournalError,
        WorkflowCrash,
        WorkflowEngine,
    )

    try:
        plan = _workflow_fault_plan(args)
    except FaultPlanSyntaxError as error:
        print(error)
        return 2
    pack = _workflow_pack(args.pack)
    if pack is None:
        return 2
    injector = plan.build_injector()
    subject = pack.build_subject(args.seed, injector)
    engine = WorkflowEngine(pack.build_spec())
    try:
        result = engine.resume(
            subject,
            seed=args.seed,
            journal_path=Path(args.journal),
            injector=injector,
        )
    except (JournalError, FileNotFoundError) as error:
        print(f"cannot resume: {error}")
        return 2
    except WorkflowCrash as crash:
        print(f"workflow crashed again during resume: {crash}")
        return 3
    return _print_workflow_result(result, not args.quiet)


def _cmd_workflow_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import has_errors, render_report, run_lint
    from repro.workflow.packs import get_pack, pack_names

    names = [args.pack] if args.pack else list(pack_names())
    paths = []
    for name in names:
        try:
            paths.extend(get_pack(name).source_paths())
        except KeyError:
            print(
                f"unknown pack {name!r}; available: {', '.join(pack_names())}"
            )
            return 2
    paths.extend(Path(extra) for extra in args.paths)
    run = run_lint(paths)
    print(render_report(run.diagnostics))
    print(f"({len(paths)} step-body module(s) checked)")
    return 1 if has_errors(run.diagnostics) else 0


def _cmd_workflow_verify(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.workflow import FaultPlanSyntaxError
    from repro.workflow.packs import pack_names
    from repro.workflow.verify import chaos_sample, resume_sweep

    try:
        plan = _workflow_fault_plan(args)
    except FaultPlanSyntaxError as error:
        print(error)
        return 2
    names = [args.pack] if args.pack else list(pack_names())
    reports = []
    with tempfile.TemporaryDirectory(prefix="wf-verify-") as tmp:
        base = Path(args.workdir) if args.workdir else Path(tmp)
        for name in names:
            workdir = base / name
            workdir.mkdir(parents=True, exist_ok=True)
            reports.append(
                resume_sweep(
                    name,
                    seed=args.seed,
                    workdir=workdir,
                    fault_plan=plan if plan.has_injector else None,
                )
            )
            if args.chaos:
                chaos_dir = base / f"{name}-chaos"
                chaos_dir.mkdir(parents=True, exist_ok=True)
                reports.append(
                    chaos_sample(name, chaos_dir, n_plans=args.chaos)
                )
    for report in reports:
        print(report.render(), end="")
    ok = all(report.ok for report in reports)
    total = sum(len(report.boundaries) for report in reports)
    print(
        f"verify-resume: {total} boundary check(s) across "
        f"{len(names)} pack(s): {'OK' if ok else 'DIVERGED'}"
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Compliance-aware digital forensics framework reproducing "
            "'When Digital Forensic Research Meets Laws' (ICDCS 2012)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser(
        "table1", help="reproduce the paper's Table 1"
    )
    table1.set_defaults(func=_cmd_table1)

    scene = subparsers.add_parser(
        "scene", help="explain one Table 1 scene's ruling"
    )
    scene.add_argument("number", type=int, help="scene number (1-20)")
    scene.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    scene.set_defaults(func=_cmd_scene)

    assess = subparsers.add_parser(
        "assess", help="Section IV advisor verdict for a technique"
    )
    assess.add_argument(
        "technique",
        help=(
            "timing | watermark | square-wave | correlation | "
            "hash-search | mining | credentials"
        ),
    )
    assess.set_defaults(func=_cmd_assess)

    storyline = subparsers.add_parser(
        "storyline", help="run a full investigation storyline"
    )
    storyline.add_argument("name", help="ip | ip-crist | wm1 | wm2")
    storyline.set_defaults(func=_cmd_storyline)

    reference = subparsers.add_parser(
        "reference",
        help="the paper's quick-reference table, with citations",
    )
    reference.set_defaults(func=_cmd_reference)

    curve = subparsers.add_parser(
        "curve", help="prosecution success vs compliance probability"
    )
    curve.add_argument(
        "--cases", type=int, default=200, help="cases per probability"
    )
    curve.add_argument("--seed", type=int, default=9, help="RNG seed")
    curve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="campaign worker processes (default 1 = serial; 0 or a "
        "negative value also runs serially)",
    )
    curve.add_argument(
        "--trace-out",
        default=None,
        help="collect a span trace of the sweep and write it (JSONL) here",
    )
    curve.set_defaults(func=_cmd_curve)

    lint = subparsers.add_parser(
        "lint",
        help="run the AST invariant linter over the codebase",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--rules",
        action="store_true",
        help="list the registered lint rules and exit",
    )
    lint.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="also write the findings as SARIF 2.1.0 to FILE",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="report only findings not recorded in this baseline file",
    )
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="adopt every current finding into FILE and exit 0",
    )
    lint.add_argument(
        "--timings",
        action="store_true",
        help="print per-rule wall-clock timings after the report",
    )
    lint.set_defaults(func=_cmd_lint)

    analyze_plan = subparsers.add_parser(
        "analyze-plan",
        help="statically analyze an investigation plan (no netsim)",
    )
    analyze_plan.add_argument(
        "target",
        help=(
            "table1 | a scene number (1-20) | a technique name | "
            "tainted-downstream | forfeited-consent"
        ),
    )
    analyze_plan.add_argument(
        "--with-process",
        action="append",
        default=[],
        choices=sorted(_PROCESS_FLAGS),
        help="declare an instrument the plan will hold (repeatable)",
    )
    analyze_plan.set_defaults(func=_cmd_analyze_plan)

    chaos = subparsers.add_parser(
        "chaos",
        help="run the paper's invariants under randomized fault plans",
    )
    chaos.add_argument(
        "--seed", type=int, default=7, help="first fault-plan seed"
    )
    chaos.add_argument(
        "--scenes",
        default="all",
        help="'all' or comma-separated Table 1 scene numbers",
    )
    chaos.add_argument(
        "--budget",
        default="medium",
        choices=sorted(_CHAOS_BUDGETS),
        help="fault plans to run: small=5, medium=25, large=100",
    )
    chaos.add_argument(
        "--intensity",
        type=float,
        default=0.15,
        help="upper bound on per-fault probabilities",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "process-pool workers for the plan sweep "
            "(default: one per CPU; 1 forces the serial path)"
        ),
    )
    chaos.add_argument(
        "--trace-out",
        default=None,
        help=(
            "collect a span trace of the sweep (including fault.injection "
            "events) and write it (JSONL) here"
        ),
    )
    chaos.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help=(
            "persist every plan's rulings, dockets, custody, and "
            "suppression outcomes to this ledger file (forces the "
            "serial sweep path)"
        ),
    )
    chaos.set_defaults(func=_cmd_chaos)

    ledger = subparsers.add_parser(
        "ledger",
        help="persistent legal ledger: populate, query, prime, maintain",
    )
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)

    led_populate = ledger_sub.add_parser(
        "populate",
        help="run Table 1 both ways into a ledger (plus an optional corpus)",
    )
    led_populate.add_argument("path", help="ledger file (created if absent)")
    led_populate.add_argument(
        "--label",
        default="populate",
        help="run label namespacing this run's ledger keys",
    )
    led_populate.add_argument(
        "--corpus",
        type=int,
        default=0,
        metavar="N",
        help="also persist rulings for N random workload actions",
    )
    led_populate.add_argument(
        "--seed", type=int, default=7, help="corpus seed for --corpus"
    )
    led_populate.set_defaults(func=_cmd_ledger_populate)

    led_query = ledger_sub.add_parser(
        "query", help="indexed/FTS queries over persisted rulings"
    )
    led_query.add_argument("path", help="ledger file")
    led_query.add_argument(
        "--citing",
        default=None,
        metavar="KEY",
        help="only rulings citing this authority (e.g. sca_2703)",
    )
    led_query.add_argument(
        "--process",
        default=None,
        metavar="KIND",
        help="only rulings requiring this process (e.g. search-warrant)",
    )
    led_query.add_argument(
        "--suppressed",
        action="store_true",
        help="only rulings with a granted-suppression outcome on file",
    )
    led_query.add_argument(
        "--fts",
        default=None,
        metavar="QUERY",
        help="full-text search over reasoning traces",
    )
    led_query.add_argument(
        "--limit", type=int, default=None, help="cap returned rows"
    )
    led_query.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    led_query.add_argument(
        "--expect-rows",
        action="store_true",
        help="exit 1 if the query matches nothing (CI gate)",
    )
    led_query.set_defaults(func=_cmd_ledger_query)

    led_stats = ledger_sub.add_parser(
        "stats", help="schema, table counts, and histograms"
    )
    led_stats.add_argument("path", help="ledger file")
    led_stats.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    led_stats.set_defaults(func=_cmd_ledger_stats)

    led_prime = ledger_sub.add_parser(
        "prime",
        help="warm a fresh engine's cache from the ledger; optionally "
        "verify primed rulings against fresh ones",
    )
    led_prime.add_argument("path", help="ledger file")
    led_prime.add_argument(
        "--verify",
        action="store_true",
        help=(
            "re-rule a random corpus fresh vs primed and exit 1 on any "
            "payload or explain() divergence"
        ),
    )
    led_prime.add_argument(
        "--corpus",
        type=int,
        default=2000,
        metavar="N",
        help="differential corpus size for --verify",
    )
    led_prime.add_argument(
        "--seed", type=int, default=7, help="differential corpus seed"
    )
    led_prime.set_defaults(func=_cmd_ledger_prime)

    led_vacuum = ledger_sub.add_parser(
        "vacuum", help="reclaim free pages; prints size before and after"
    )
    led_vacuum.add_argument("path", help="ledger file")
    led_vacuum.set_defaults(func=_cmd_ledger_vacuum)

    bench = subparsers.add_parser(
        "bench",
        help=(
            "engine and technique-kernel benchmarks + correctness gates "
            "-> BENCH_engine.json"
        ),
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="smaller corpus, sweeps and campaign, for CI smoke runs",
    )
    bench.add_argument(
        "--seed", type=int, default=99, help="benchmark corpus seed"
    )
    bench.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="where to write the JSON report",
    )
    bench.add_argument(
        "--trace-out",
        default=None,
        help=(
            "after the benchmark, run a traced Table 1 replay and write "
            "its span trace (JSONL) here"
        ),
    )
    bench.set_defaults(func=_cmd_bench)

    serve = subparsers.add_parser(
        "serve",
        help="long-running sharded ruling server (NDJSON + /metrics)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address for both listeners"
    )
    serve.add_argument(
        "--port", type=int, default=7341, help="NDJSON port (0 = ephemeral)"
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=7342,
        help="HTTP /metrics port (0 = ephemeral)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=4,
        help="number of private cache+engine shards",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="per-shard LRU ruling-cache capacity",
    )
    serve.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="persist fresh rulings to this SQLite ledger",
    )
    serve.add_argument(
        "--prime",
        action="store_true",
        help="warm every shard's cache from the ledger at startup",
    )
    serve.set_defaults(func=_cmd_serve)

    serve_bench = subparsers.add_parser(
        "serve-bench",
        help=(
            "replay a corpus cold then hot against a live server and gate "
            "on byte identity -> BENCH_serve.json"
        ),
    )
    serve_bench.add_argument(
        "--quick",
        action="store_true",
        help="5k-action golden corpus instead of the 10k differential one",
    )
    serve_bench.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help=(
            "gate an already-running server instead of spawning one "
            "in-process on an ephemeral port"
        ),
    )
    serve_bench.add_argument(
        "--out",
        default="BENCH_serve.json",
        help="where to write the JSON report",
    )
    serve_bench.set_defaults(func=_cmd_serve_bench)

    metrics = subparsers.add_parser(
        "metrics",
        help="Prometheus text exposition from a traced Table 1 replay",
    )
    metrics.add_argument(
        "--no-comply",
        action="store_true",
        help="replay without obtaining process first",
    )
    metrics.set_defaults(func=_cmd_metrics)

    trace = subparsers.add_parser(
        "trace",
        help="span trace of a Table 1 replay (JSONL, Chrome, or audit)",
    )
    trace.add_argument(
        "--audit",
        action="store_true",
        help=(
            "report every acquisition span with its authorizing "
            "instrument; exit 1 on any unauthorized gated acquisition"
        ),
    )
    trace.add_argument(
        "--chrome",
        action="store_true",
        help="emit Chrome trace-event JSON instead of JSONL",
    )
    trace.add_argument(
        "--out",
        default=None,
        help="write the trace here instead of printing it",
    )
    trace.add_argument(
        "--no-comply",
        action="store_true",
        help="replay without obtaining process first (audit holes appear)",
    )
    trace.set_defaults(func=_cmd_trace)

    authorities = subparsers.add_parser(
        "authorities", help="list the citation registry"
    )
    authorities.add_argument(
        "-v", "--verbose", action="store_true", help="include holdings"
    )
    authorities.set_defaults(func=_cmd_authorities)

    workflow = subparsers.add_parser(
        "workflow",
        help="crash-resumable evidence workflows with journaled checkpoints",
    )
    workflow_sub = workflow.add_subparsers(
        dest="workflow_command", required=True
    )

    def _fault_plan_flag(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--fault-plan",
            default="",
            help=(
                "fault plan, e.g. 'crash-after-record=3,storage-read=0.05,"
                "storage-bitrot=0.01,fault-seed=11'"
            ),
        )

    wf_run = workflow_sub.add_parser(
        "run", help="run a scenario pack, journaling every step boundary"
    )
    wf_run.add_argument("pack", help="pack name (photo-recovery, ...)")
    wf_run.add_argument("--seed", type=int, default=7, help="evidence seed")
    wf_run.add_argument(
        "--journal", default=None, help="journal file (JSONL, append-only)"
    )
    _fault_plan_flag(wf_run)
    wf_run.add_argument(
        "--items",
        type=int,
        default=1,
        help="run this many independent evidence items (seed, seed+1, ...)",
    )
    wf_run.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size for --items > 1 (default: one per CPU)",
    )
    wf_run.add_argument(
        "--journal-dir",
        default=".workflow-journals",
        help="per-item journal directory for --items > 1",
    )
    wf_run.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the run report"
    )
    wf_run.set_defaults(func=_cmd_workflow_run)

    wf_resume = workflow_sub.add_parser(
        "resume", help="resume an interrupted run from its journal"
    )
    wf_resume.add_argument("pack", help="pack name the journal came from")
    wf_resume.add_argument(
        "--seed", type=int, default=7, help="the original run's seed"
    )
    wf_resume.add_argument(
        "--journal", required=True, help="the interrupted run's journal"
    )
    _fault_plan_flag(wf_resume)
    wf_resume.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the run report"
    )
    wf_resume.set_defaults(func=_cmd_workflow_resume)

    wf_lint = workflow_sub.add_parser(
        "lint", help="AST-lint pack step bodies (REPRO110/REPRO113, ...)"
    )
    wf_lint.add_argument(
        "--pack", default=None, help="limit to one pack (default: all)"
    )
    wf_lint.add_argument(
        "paths",
        nargs="*",
        help="extra step-body modules to lint alongside the packs",
    )
    wf_lint.set_defaults(func=_cmd_workflow_lint)

    wf_verify = workflow_sub.add_parser(
        "verify-resume",
        help=(
            "CI gate: crash at every journal boundary, resume, and fail "
            "on any byte divergence"
        ),
    )
    wf_verify.add_argument(
        "--pack", default=None, help="limit to one pack (default: all)"
    )
    wf_verify.add_argument(
        "--seed", type=int, default=7, help="evidence seed for the sweep"
    )
    _fault_plan_flag(wf_verify)
    wf_verify.add_argument(
        "--chaos",
        type=int,
        default=0,
        metavar="N",
        help="also kill-and-resume under N sampled storage fault plans",
    )
    wf_verify.add_argument(
        "--workdir",
        default=None,
        help="keep journals here instead of a temp directory",
    )
    wf_verify.set_defaults(func=_cmd_workflow_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
