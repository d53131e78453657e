"""Command-line experiment runner.

Subcommands drive the declarative scenario engine in
:mod:`repro.experiments`::

    python -m repro list
    python -m repro run --scenario byzantine_flood
    python -m repro campaign --scenario fig7_throughput --repeats 4 --jobs 4
    python -m repro report --results results/fig7_throughput.jsonl
    python -m repro audit --scenario adv_equivocation
    python -m repro audit --scenario fig6_latency --adversary replay
    python -m repro obs --scenario fig7_throughput --out obs.json
    python -m repro obs --url http://127.0.0.1:9464/metrics
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib

from repro.analysis import (
    aggregate_records,
    batching_summary,
    format_series_table,
    obs_summary,
    service_summary,
    shard_summary,
)

#: Metrics the report prints, in order, with display units.  The shard
#: columns only appear for runs that carry them (sharded deployments);
#: a metric absent from every record prints no table.
REPORT_METRICS = (
    ("throughput_msgs_per_s", "msg/s"),
    ("latency_mean_ms", "ms"),
    ("ordered", "msgs"),
    ("fail_signals", ""),
    ("view_changes", ""),
    ("signatures_per_ordered", "sig/msg"),
    ("per_shard_throughput", "msg/s"),
    ("cross_shard_latency_mean_ms", "ms"),
    ("load_imbalance", "x"),
    ("service_admitted", "ops"),
    ("service_rejected", "ops"),
    ("service_submit_p50_ms", "ms"),
    ("service_submit_p99_ms", "ms"),
    ("service_submit_p999_ms", "ms"),
    ("app_ops_applied", "ops"),
    ("app_checkpoints", ""),
    ("app_recoveries", ""),
    ("app_replay_ops", "ops"),
    ("app_transfer_bytes", "B"),
    ("wall_elapsed_s", "s"),
    ("timer_slack_mean_ms", "ms"),
    ("timer_slack_max_ms", "ms"),
    ("calibrated_delta_ms", "ms"),
    ("deadline_margin_ms", "ms"),
    ("obs_sign_p99_ms", "ms"),
    ("obs_verify_p99_ms", "ms"),
    ("obs_countersign_p99_ms", "ms"),
)

#: ``repro list`` groups scenarios into these families, in this order.
#: A scenario's family is its name's prefix before the first separator;
#: anything unrecognised lands in the stress bucket.
SCENARIO_FAMILIES = (
    ("fig", "Paper figures"),
    ("adv", "Adversarial audits"),
    ("scale", "Scale & batching"),
    ("svc", "Client-facing service"),
    ("app", "Replicated KV application"),
    ("stress", "Stress & comparators"),
)


def scenario_family(name: str) -> str:
    """The family key a scenario name sorts under in ``repro list``."""
    prefix = name.split("_", 1)[0]
    if prefix.startswith("fig"):
        return "fig"
    if prefix in ("adv", "scale", "svc", "app"):
        return prefix
    return "stress"


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def build_command_parser() -> argparse.ArgumentParser:
    """The scenario/campaign subcommand parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Declarative scenario and campaign runner."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="catalogue the registered scenarios")
    lister.add_argument(
        "--family",
        help="only list this family (fig/adv/scale/svc/app/stress) or "
        "scenarios whose name starts with this prefix (e.g. scale_shard)",
    )

    run = sub.add_parser("run", help="run one scenario's grid once and print tables")
    run.add_argument("--scenario", required=True, help="registered scenario name")
    run.add_argument("--systems", help="comma-separated subset of the scenario's systems")
    run.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    run.add_argument(
        "--jobs", type=_positive_int, default=1, help="parallel worker processes"
    )
    run.add_argument(
        "--shards",
        type=_positive_int,
        help="deploy as this many keyspace shards (fs-newtop scenarios; "
        "overrides the scenario's base, sweep points still win)",
    )
    run.add_argument(
        "--cross-shard-ratio",
        type=float,
        help="with --shards: fraction of writes spanning two shards "
        "(default: the scenario's, else 0)",
    )
    _add_overlay_arguments(run)

    campaign = sub.add_parser(
        "campaign", help="run a scenario's grid with repeats, in parallel, to JSONL"
    )
    campaign.add_argument("--scenario", required=True, help="registered scenario name")
    campaign.add_argument("--systems", help="comma-separated subset of systems")
    campaign.add_argument(
        "--repeats", type=_positive_int, default=1, help="repeats per grid cell"
    )
    campaign.add_argument(
        "--jobs", type=_positive_int, default=1, help="parallel worker processes"
    )
    campaign.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    campaign.add_argument(
        "--out",
        help="JSONL output path (default results/<scenario>.jsonl)",
    )

    report = sub.add_parser("report", help="aggregate stored campaign results")
    report.add_argument("--results", required=True, help="JSONL file written by campaign")
    report.add_argument("--scenario", help="only report this scenario")

    bench = sub.add_parser(
        "bench", help="run the fixed perf suite; optionally gate against a baseline"
    )
    bench.add_argument(
        "--out",
        default="results/perf_report.json",
        help="report JSON path (default results/perf_report.json)",
    )
    bench.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against this baseline JSON; exit 1 on regression",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed relative throughput drop before --check fails (default 0.25)",
    )
    bench.add_argument(
        "--update",
        metavar="BASELINE",
        help="write the measured report to this baseline path as well",
    )
    bench.add_argument(
        "--only",
        help="comma-separated subset of benchmarks (default: whole suite)",
    )
    bench.add_argument(
        "--repeats",
        type=_positive_int,
        default=2,
        help="best-of-N runs per benchmark (default 2)",
    )

    audit = sub.add_parser(
        "audit",
        help="run a scenario under the invariant oracles; non-zero on violation",
    )
    audit.add_argument("--scenario", required=True, help="registered scenario name")
    audit.add_argument("--systems", help="comma-separated subset of the scenario's systems")
    audit.add_argument(
        "--adversary",
        help="overlay this named adversary strategy on every run "
        "(see `repro.adversary.PRESETS`)",
    )
    audit.add_argument(
        "--member",
        type=int,
        help="retarget the overlaid adversary at this member index",
    )
    audit.add_argument(
        "--at",
        type=float,
        help="retime the overlaid adversary's activation (ms)",
    )
    audit.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    audit.add_argument(
        "--deadline",
        type=float,
        default=5000.0,
        help="detection deadline after first manifestation, ms (default 5000)",
    )
    _add_overlay_arguments(audit)

    serve = sub.add_parser(
        "serve",
        help="run the ordering service: an HTTP gateway over a live group",
    )
    serve.add_argument(
        "--scenario",
        help="base the deployment on this registered scenario's spec "
        "(default: a 4-member fs-newtop group)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8420, help="bind port (0 = pick a free one)"
    )
    serve.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    serve.add_argument(
        "--shards",
        type=_positive_int,
        help="deploy as this many keyspace shards",
    )
    serve.add_argument(
        "--for",
        dest="duration",
        type=float,
        help="serve for this many seconds, then exit (default: until Ctrl-C)",
    )
    # No --obs-port: the gateway serves GET /metrics on its own port.
    _add_overlay_arguments(serve, obs_port=False)

    obs = sub.add_parser(
        "obs",
        help="snapshot an observability registry: scrape a live /metrics "
        "endpoint or run a scenario and dump its metrics as JSON",
    )
    source = obs.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--url",
        help="scrape this /metrics endpoint (Prometheus text) and re-emit "
        "the parsed families as JSON",
    )
    source.add_argument(
        "--scenario",
        help="run this registered scenario's base spec once with "
        "observability on and dump the registry snapshot",
    )
    obs.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    obs.add_argument(
        "--out", help="write the JSON here instead of stdout"
    )
    _add_overlay_arguments(obs)
    return parser


def _add_overlay_arguments(
    parser: argparse.ArgumentParser, obs_port: bool = True
) -> None:
    """The shared overlay flags read by :func:`overlay_overrides`."""
    parser.add_argument(
        "--transport",
        choices=("sim", "asyncio"),
        help="clock backend: 'sim' (default, discrete-event) or 'asyncio' "
        "(wall clock with host-calibrated deadlines)",
    )
    parser.add_argument(
        "--tcp",
        action="store_true",
        help="with --transport asyncio: carry messages over localhost TCP "
        "frames instead of in-process queues",
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        help="with --transport asyncio: wall seconds per virtual second "
        "(0.5 = run the virtual timeline at double wall speed)",
    )
    parser.add_argument(
        "--no-calibrate",
        action="store_true",
        help="with --transport asyncio: skip host calibration and keep the "
        "spec's cost-model deadlines",
    )
    parser.add_argument(
        "--crypto",
        metavar="PROVIDER[:CODEC]",
        help="crypto overlay for fs-newtop runs: signature provider "
        "(rsa/hmac/ed25519) with an optional signing+framing codec "
        "(canonical/binwire), e.g. 'ed25519:binwire'",
    )
    if obs_port:
        parser.add_argument(
            "--obs-port",
            type=int,
            help="force observability on and, with --transport asyncio, serve "
            "GET /metrics on this port during the run (0 = pick a free one)",
        )


# ----------------------------------------------------------------------
# scenario subcommands
# ----------------------------------------------------------------------
def _parse_systems(value: str | None) -> tuple[str, ...] | None:
    if value is None:
        return None
    return tuple(name.strip() for name in value.split(",") if name.strip())


def _resolve_scenario(args: argparse.Namespace):
    """Shared run/campaign front half: look up the scenario and validate
    the ``--systems`` subset. Returns ``(scenario, systems)`` or prints
    an error and returns ``None``."""
    from repro.experiments import UnknownScenarioError, get_scenario

    try:
        scenario = get_scenario(args.scenario)
    except UnknownScenarioError as exc:
        print(f"error: {exc}")
        return None
    systems = _parse_systems(args.systems)
    if systems is not None and not systems:
        print("error: --systems was given but names no systems")
        return None
    if systems:
        unknown = [s for s in systems if s not in scenario.systems]
        if unknown:
            print(
                f"error: scenario {scenario.name!r} does not run "
                f"{', '.join(unknown)}; its systems: {', '.join(scenario.systems)}"
            )
            return None
    return scenario, systems


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments import scenarios

    family = args.family
    catalogue = scenarios()
    if family is not None:
        catalogue = [
            scenario
            for scenario in catalogue
            if scenario_family(scenario.name) == family
            or scenario.name.startswith(family)
        ]
        if not catalogue:
            known = sorted(
                {key for key, __ in SCENARIO_FAMILIES}
                | {scenario_family(s.name) for s in scenarios()}
            )
            print(
                f"error: no scenarios in family {family!r}; known families: "
                f"{', '.join(known)} (or any scenario-name prefix)"
            )
            return 2
    grouped: dict[str, list] = {}
    for scenario in catalogue:
        grouped.setdefault(scenario_family(scenario.name), []).append(scenario)
    for family_key, heading in SCENARIO_FAMILIES:
        members = grouped.pop(family_key, [])
        if not members:
            continue
        print(f"== {heading} ({len(members)}) ==")
        for scenario in members:
            figure = f" [{scenario.figure}]" if scenario.figure else ""
            grid = len(scenario.sweep) * len(scenario.systems)
            print(f"{scenario.name}{figure}")
            print(f"  {scenario.title}")
            print(
                f"  systems: {', '.join(scenario.systems)} | "
                f"sweep: {scenario.sweep_axis} x{len(scenario.sweep)} | "
                f"grid: {grid} runs"
            )
        print()
    return 0


def _record_tables(scenario, records, title_prefix: str) -> list[str]:
    """Per-metric tables (x-axis vs system) of mean-over-repeats.

    A system with an incomplete sweep (e.g. from an interrupted
    campaign) is omitted from the table but called out in a note."""
    labels = scenario.labels()
    systems = [s for s in scenario.systems if any(r.system == s for r in records)]
    tables = []
    for metric, unit in REPORT_METRICS:
        stats = aggregate_records(records, metric, key=lambda r: (r.system, r.x_label))
        if not stats:
            continue
        series = {}
        notes = []
        for system in systems:
            points = [stats.get((system, label)) for label in labels]
            missing = [str(label) for label, p in zip(labels, points) if p is None]
            if missing:
                notes.append(
                    f"note: {system} omitted from {metric} table -- no records "
                    f"for {scenario.sweep_axis} {', '.join(missing)} (partial campaign?)"
                )
                continue
            series[system] = [p.mean for p in points]
        if not series:
            tables.extend(notes)
            continue
        tables.append(
            format_series_table(
                f"{title_prefix}: {metric}",
                scenario.sweep_axis,
                labels,
                series,
                unit=unit,
            )
        )
        tables.extend(notes)
    return tables


def _print_summary(scenario, records) -> None:
    """Cross-system grid summary plus the observed throughput ordering."""
    metric = "throughput_msgs_per_s"
    per_system = aggregate_records(records, metric, key=lambda r: r.system)
    if not per_system:
        return
    print("grid summary (throughput, all points x repeats):")
    for system in scenario.systems:
        if system in per_system:
            print(f"  {system:<10} {per_system[system]}")
    # The figures' punchline lives at the end of the sweep (the paper
    # quotes its fig. 7 overheads "past 10 members"), so the headline
    # ordering is taken at the largest sweep point.
    last = scenario.labels()[-1]
    at_last = aggregate_records(
        records, metric, key=lambda r: (r.system, r.x_label)
    )
    tail = {
        system: stats
        for (system, label), stats in at_last.items()
        if label == last
    }
    if tail:
        ordered = sorted(tail, key=lambda s: tail[s].mean, reverse=True)
        print(
            f"throughput ordering at {scenario.sweep_axis}={last}: "
            + " >= ".join(ordered)
        )
    batching = batching_summary(records)
    if batching.get("batched_cells"):
        sizes = [s["batch_mean_size"] for s in batching["batched_cells"].values()]
        line = (
            f"batching: {len(batching['batched_cells'])} batched cell(s), "
            f"mean batch size {sum(sizes) / len(sizes):.2f}"
        )
        if "amortisation" in batching:
            line += (
                f", signatures/ordered amortisation x{batching['amortisation']:.2f} "
                f"vs unbatched cells"
            )
        if batching.get("degenerate_cells"):
            line += (
                f" ({len(batching['degenerate_cells'])} cell(s) signed but "
                f"ordered nothing; excluded)"
            )
        print(line)
    sharding = shard_summary(records)
    if sharding:
        line = (
            f"sharding: {sharding['sharded_cells']} sharded cell(s) up to "
            f"S={sharding['max_shards']}, mean load imbalance "
            f"x{sharding['mean_load_imbalance']:.2f}"
        )
        if "scaling" in sharding:
            line += (
                f", aggregate throughput x{sharding['scaling']:.2f} at "
                f"S={sharding['max_shards']} vs S=1"
            )
        if sharding.get("cross_shard_ops"):
            line += (
                f"; {sharding['cross_shard_ordered']}/{sharding['cross_shard_ops']} "
                f"cross-shard ops ordered, mean "
                f"{sharding['cross_shard_latency_mean_ms']:.1f}ms"
            )
        print(line)
    service = service_summary(records)
    if service:
        line = (
            f"service: {service['served_cells']} served cell(s), "
            f"{service['admitted']} admitted / {service['rejected']} shed "
            f"({service['admission_rate']:.0%} admission), "
            f"submit p99/p99.9 {service['submit_p99_ms']:.1f}/"
            f"{service['submit_p999_ms']:.1f}ms"
        )
        shed = [
            f"{reason} {service[key]}"
            for reason, key in (
                ("auth", "rejected_auth"),
                ("rate", "rejected_rate"),
                ("overload", "rejected_overload"),
            )
            if service.get(key)
        ]
        if shed:
            line += f" (shed: {', '.join(shed)})"
        if service["gave_up"]:
            line += f"; {service['gave_up']} session(s) gave up"
        if service["feed_violations"]:
            line += f"; FEED VIOLATIONS: {service['feed_violations']}"
        print(line)
    observability = obs_summary(records)
    if observability:
        line = f"obs: {observability['observed_cells']} instrumented cell(s)"
        parts = [
            f"{stage} p99 {observability[key]:.2f}ms"
            for stage, key in (
                ("sign", "obs_sign_p99_ms"),
                ("verify", "obs_verify_p99_ms"),
                ("countersign", "obs_countersign_p99_ms"),
            )
            if key in observability
        ]
        if parts:
            line += ", " + ", ".join(parts)
        if "obs_submit_p999_ms" in observability:
            line += f", submit p99.9 {observability['obs_submit_p999_ms']:.1f}ms"
        print(line)
    if scenario.expected:
        print(f"expected: {scenario.expected}")


def _print_results(scenario, records) -> None:
    """Shared run/campaign back half: tables plus the summary."""
    for table in _record_tables(scenario, records, scenario.title):
        print()
        print(table)
    print()
    _print_summary(scenario, records)


# ----------------------------------------------------------------------
# the overlay flags shared by run, audit, serve and obs
# ----------------------------------------------------------------------
def _fs_newtop_only(flag: str, systems) -> dict:
    """Reject ``systems`` other than fs-newtop for ``flag``; with a
    non-empty ``systems`` the overlaid spec is re-based on fs-newtop."""
    others = [s for s in systems if s != "fs-newtop"]
    if others:
        raise ValueError(
            f"{flag} applies to fs-newtop runs only; drop "
            f"{', '.join(others)} with --systems fs-newtop"
        )
    return {"system": "fs-newtop"} if systems else {}


def _shard_overlay(args, spec, systems) -> dict:
    from repro.experiments import ShardSpec

    ratio = getattr(args, "cross_shard_ratio", None)
    if getattr(args, "shards", None) is None:
        if ratio is not None:
            raise ValueError("--cross-shard-ratio needs --shards")
        return {}
    overrides = _fs_newtop_only("--shards", systems)
    base = spec.shard
    if ratio is None:
        ratio = base.cross_shard_ratio if base is not None else 0.0
    shard = ShardSpec(
        shards=args.shards,
        cross_shard_ratio=ratio,
        keyspace=base.keyspace if base is not None else 64,
    )
    if spec.n_members % shard.shards:
        raise ValueError(
            f"{spec.n_members} members are not divisible into {shard.shards} shards"
        )
    return {**overrides, "shard": shard}


def _transport_overlay(args, spec, systems) -> dict:
    from repro.experiments.spec import TransportSpec

    if args.transport is None:
        if args.tcp or args.time_scale is not None or args.no_calibrate:
            raise ValueError("--tcp/--time-scale/--no-calibrate need --transport asyncio")
        return {}
    transport = TransportSpec(
        kind=args.transport,
        tcp=args.tcp,
        time_scale=args.time_scale if args.time_scale is not None else 1.0,
        calibrate=not args.no_calibrate,
    )
    if transport.live and "pbft" in systems:
        raise ValueError(
            "--transport asyncio cannot drive pbft; drop it with "
            "--systems (e.g. --systems fs-newtop)"
        )
    return {"transport": transport}


def _crypto_overlay(args, spec, systems) -> dict:
    from repro.crypto.provider import DEFAULT_CODEC, CryptoSpec

    if args.crypto is None:
        return {}
    provider, sep, codec = args.crypto.partition(":")
    crypto = CryptoSpec(provider=provider, codec=codec if sep else DEFAULT_CODEC)
    return {**_fs_newtop_only("--crypto", systems), "crypto": crypto}


def _obs_overlay(args, spec, systems) -> dict:
    """An explicit port opts measurement runs in (they are
    un-instrumented by default so the perf gate sees the obs-disabled
    stack); on a live transport it also picks the ``GET /metrics``
    bind port."""
    from repro.experiments.spec import ObsSpec

    port = getattr(args, "obs_port", None)
    if port is None:
        return {}
    if not 0 <= port <= 65535:
        raise ValueError(f"--obs-port must be in [0, 65535], got {port}")
    if spec.obs is None:
        return {"obs": ObsSpec(http_port=port)}
    return {"obs": dataclasses.replace(spec.obs, enabled=True, http_port=port)}


#: The overlays, in the order their flags are checked.  Each reads only
#: the flags its command registers (absent ones read as unset).
OVERLAYS = (_shard_overlay, _transport_overlay, _crypto_overlay, _obs_overlay)


def overlay_overrides(args: argparse.Namespace, spec, systems=()) -> dict:
    """The ``spec.replace(**overrides)`` the ``--shards``,
    ``--transport``, ``--crypto`` and ``--obs-port`` flags ask for.

    ``systems`` are the systems the overlaid spec will run as (a
    scenario's grid under ``repro run``); each overlay rejects the ones
    it cannot drive.  Raises ``ValueError`` with the user-facing message
    on a bad value or combination."""
    overrides: dict = {}
    for overlay in OVERLAYS:
        overrides.update(overlay(args, spec, systems))
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import Campaign

    resolved = _resolve_scenario(args)
    if resolved is None:
        return 2
    scenario, systems = resolved
    # The overlay re-bases the scenario; sweep points that set their
    # own field (e.g. the scale_shard family's ``shard``) still win.
    try:
        overrides = overlay_overrides(args, scenario.base, systems or scenario.systems)
        scenario = dataclasses.replace(scenario, base=scenario.base.replace(**overrides))
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    campaign = Campaign(scenario, repeats=1, base_seed=args.seed, systems=systems)
    try:
        records = campaign.execute(jobs=args.jobs)
    except ValueError as exc:
        if args.shards is None:
            raise
        # A sweep point can override what the --shards overlay checked
        # (e.g. an n_members sweep that breaks divisibility).
        print(f"error: {exc}")
        return 2
    _print_results(scenario, records)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments import Campaign, ResultStore

    resolved = _resolve_scenario(args)
    if resolved is None:
        return 2
    scenario, systems = resolved
    out = pathlib.Path(args.out) if args.out else pathlib.Path("results") / f"{scenario.name}.jsonl"
    store = ResultStore(out)
    campaign = Campaign(
        scenario,
        repeats=args.repeats,
        base_seed=args.seed,
        systems=systems,
    )
    tasks = campaign.plan()
    print(
        f"campaign {scenario.name}: {len(tasks)} runs "
        f"({len(campaign.systems)} systems x {len(scenario.sweep)} points x "
        f"{args.repeats} repeats), jobs={args.jobs}"
    )
    records = campaign.execute(jobs=args.jobs, store=store)
    print(f"persisted {len(records)} records to {out}")
    _print_results(scenario, records)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import ResultStore, UnknownScenarioError, get_scenario

    store = ResultStore(args.results)
    records = store.load()
    if not records:
        print(f"error: no records in {args.results}")
        return 2
    names = [args.scenario] if args.scenario else sorted({r.scenario for r in records})
    for name in names:
        scoped = [r for r in records if r.scenario == name]
        if not scoped:
            print(f"error: no records for scenario {name!r} in {args.results}")
            return 2
        try:
            scenario = get_scenario(name)
        except UnknownScenarioError as exc:
            print(f"error: {exc}")
            return 2
        # Re-running the same campaign command appends bit-identical
        # records; counting them as extra repeats would inflate n with
        # zero new information.
        unique = {(r.system, r.x_label, r.repeat, r.seed): r for r in scoped}
        if len(unique) < len(scoped):
            print(
                f"note: dropped {len(scoped) - len(unique)} duplicate records "
                f"(same system/point/repeat/seed re-run)"
            )
            scoped = list(unique.values())
        repeats = max(r.repeat for r in scoped) + 1
        print(f"== {scenario.title} ({len(scoped)} runs, {repeats} repeats) ==")
        for table in _record_tables(scenario, scoped, f"report {name}"):
            print()
            print(table)
        print()
        _print_summary(scenario, scoped)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.adversary import PRESETS
    from repro.adversary.engine import AdversaryWiringError
    from repro.experiments import audit_scenario
    from repro.invariants import AuditConfig

    resolved = _resolve_scenario(args)
    if resolved is None:
        return 2
    scenario, systems = resolved
    overlay = None
    if args.adversary is not None:
        preset = PRESETS.get(args.adversary)
        if preset is None:
            print(
                f"error: unknown adversary {args.adversary!r}; "
                f"presets: {', '.join(sorted(PRESETS))}"
            )
            return 2
        overrides = {}
        if args.member is not None:
            overrides["member"] = args.member
        if args.at is not None:
            overrides["at"] = args.at
        try:
            overlay = dataclasses.replace(preset, **overrides)
        except ValueError as exc:
            print(f"error: bad adversary override: {exc}")
            return 2
    try:
        overlay_overrides(args, scenario.base)  # reject bad flags before any run
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    config = AuditConfig(detection_deadline_ms=args.deadline)

    failures = 0
    audited = 0
    for system, x_label, spec in scenario.expand(systems):
        if system == "pbft":
            print(f"note: skipping {system} at {scenario.sweep_axis}={x_label} "
                  f"(only the ordering systems are auditable)")
            continue
        if overlay is not None:
            if system != "fs-newtop" and overlay.needs_pair_hooks():
                print(
                    f"note: skipping {system} at {scenario.sweep_axis}={x_label} "
                    f"(adversary {args.adversary!r} drives fail-signal pair "
                    f"hooks; fs-newtop only)"
                )
                continue
            target = overlay.max_member()
            if target is not None and target >= spec.n_members:
                print(
                    f"error: adversary targets member {target} but the spec has "
                    f"only {spec.n_members} members"
                )
                return 2
            spec = spec.replace(adversaries=spec.adversaries + (overlay,))
        if args.crypto is not None and system != "fs-newtop":
            print(
                f"note: skipping {system} at {scenario.sweep_axis}={x_label} "
                f"(--crypto drives the fs-newtop signing stack only)"
            )
            continue
        spec = spec.replace(seed=spec.seed + args.seed, **overlay_overrides(args, spec))
        try:
            run = audit_scenario(spec, config=config, scenario=scenario.name)
        except AdversaryWiringError as exc:
            print(f"error: {exc}")
            return 2
        audited += 1
        print(f"-- {scenario.name} [{system} {scenario.sweep_axis}={x_label}]")
        print(run.report.render())
        if run.flight_bundle:
            print(f"flight recorder bundle: {run.flight_bundle}")
        if not run.report.ok:
            failures += 1
    if audited == 0:
        print("error: nothing auditable in this scenario")
        return 2
    print(
        f"audit: {audited} run(s), {failures} failing"
        + (f" -- adversary overlay: {args.adversary}" if overlay is not None else "")
    )
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments import UnknownScenarioError, get_scenario
    from repro.experiments.spec import ScenarioSpec, TransportSpec
    from repro.service.serve import build_server, describe

    if args.scenario is not None:
        try:
            spec = get_scenario(args.scenario).base
        except UnknownScenarioError as exc:
            print(f"error: {exc}")
            return 2
        if spec.system == "pbft":
            print(f"error: scenario {args.scenario!r} is pbft-based; "
                  "the gateway fronts the ordering systems only")
            return 2
    else:
        spec = ScenarioSpec(system="fs-newtop", n_members=4)
    try:
        overrides = overlay_overrides(args, spec)
        transport = overrides.setdefault("transport", TransportSpec(kind="asyncio"))
        if not transport.live:
            raise ValueError("repro serve needs a live transport (--transport asyncio)")
        spec = spec.replace(seed=spec.seed + args.seed, **overrides)
        handle = build_server(spec, host=args.host, port=args.port)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(describe(handle))

    # The socket binds inside a clock starter, so with --port 0 the
    # real port is only known once the run is underway: announce from
    # a second starter that waits for the bind.
    async def _announce() -> None:
        import asyncio

        while handle.server.port == 0:
            await asyncio.sleep(0.005)
        if args.duration is not None:
            print(f"serving on {handle.server.address} for {args.duration:g}s")
        else:
            print(f"serving on {handle.server.address} (Ctrl-C to stop)")

    handle.clock.add_starter(_announce)
    if args.duration is not None:
        handle.run(until_ms=args.duration * 1000.0)
        return 0
    try:
        handle.run_forever()
    except KeyboardInterrupt:
        print("\nstopped")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    if args.url is not None:
        flags = ("transport", "tcp", "time_scale", "no_calibrate", "obs_port", "crypto")
        if any(getattr(args, flag) not in (None, False) for flag in flags):
            print(
                "error: transport/--obs-port/--crypto flags apply to "
                "--scenario mode only"
            )
            return 2
        import urllib.error
        import urllib.request

        from repro.obs import parse

        try:
            with urllib.request.urlopen(args.url, timeout=10.0) as response:
                text = response.read().decode()
        except (OSError, ValueError, urllib.error.URLError) as exc:
            print(f"error: cannot scrape {args.url}: {exc}")
            return 2
        try:
            document = parse(text)
        except ValueError as exc:
            print(f"error: {args.url} is not a Prometheus text exposition: {exc}")
            return 2
    else:
        from repro.experiments import (
            UnknownScenarioError,
            get_scenario,
            observe_spec,
        )

        try:
            scenario = get_scenario(args.scenario)
        except UnknownScenarioError as exc:
            print(f"error: {exc}")
            return 2
        base = scenario.base
        try:
            spec = base.replace(seed=base.seed + args.seed, **overlay_overrides(args, base))
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        document = observe_spec(spec, scenario=scenario.name)
    payload = json.dumps(document, indent=2, sort_keys=True)
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(payload + "\n")
        print(f"wrote {out}")
    else:
        print(payload)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis import perfreport

    names = None
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in perfreport.SUITE]
        if unknown:
            print(
                f"error: unknown benchmarks {', '.join(unknown)}; "
                f"suite: {', '.join(perfreport.SUITE)}"
            )
            return 2
    try:
        baseline = perfreport.load_report(args.check) if args.check else None
    except (OSError, ValueError) as exc:
        print(f"error: cannot read baseline {args.check}: {exc}")
        return 2

    print(f"perf suite ({args.repeats} runs per benchmark, best-of):")
    results = perfreport.run_suite(names, repeats=args.repeats, progress=print)
    report = perfreport.build_report(results)
    out = perfreport.write_report(report, args.out)
    print(f"report written to {out}")
    if args.update:
        baseline_path = perfreport.write_report(report, args.update)
        print(f"baseline updated at {baseline_path}")

    if baseline is None:
        return 0
    comparisons = perfreport.compare(report, baseline, tolerance=args.tolerance)
    print(f"check vs {args.check} (tolerance {args.tolerance:.0%}):")
    for comparison in comparisons:
        print(f"  {comparison.render()}")
    if not perfreport.check_passed(comparisons):
        print("FAIL: performance regression beyond tolerance")
        return 1
    print("OK: within tolerance")
    return 0


COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "campaign": _cmd_campaign,
    "report": _cmd_report,
    "bench": _cmd_bench,
    "audit": _cmd_audit,
    "serve": _cmd_serve,
    "obs": _cmd_obs,
}


def main(argv: list[str] | None = None) -> int:
    args = build_command_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
