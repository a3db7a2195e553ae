"""Command-line interface for the FQ-BERT reproduction.

Subcommands::

    python -m repro.cli train     --task sst2 --out model.npz
    python -m repro.cli quantize  --checkpoint model.npz --out fq.npz [--ptq]
    python -m repro.cli evaluate  --checkpoint fq.npz --task sst2 [--integer]
    python -m repro.cli simulate  --device ZCU102 --pes 8 --multipliers 16
    python -m repro.cli compare   # Table IV style platform comparison
    python -m repro.cli serve     --requests 64 --batch-size 8 --num-devices 2
    python -m repro.cli loadtest  --scenario flash-crowd --replicas 2 [--autoscale] [--analytic]
    python -m repro.cli loadtest  --scenario flash-crowd --columnar --shards 4 --rate-scale 640
    python -m repro.cli loadtest  --scenario flash-crowd --metrics-out m.prom --trace-out t.json --windows w.jsonl
    python -m repro.cli loadtest  --scenario flash-crowd --chaos-plan plan.json --retries 2 --breaker --brownout
    python -m repro.cli metrics   --prom m.prom [--windows w.jsonl] [--trace t.json]
    python -m repro.cli search    --space table3 [--scenario flash-crowd] [--json out.json]
    python -m repro.cli bench     # wall-clock contracts (over a minute, ~7 GB)

Each subcommand is a thin wrapper over the library; anything the CLI does
can be done in a few lines of Python (see examples/).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np


def _build_task(name: str, seed: int):
    from .data import encode_task, make_mnli_like, make_sst2_like

    if name == "sst2":
        task = make_sst2_like(768, 384, seed=seed)
        max_length = 24
    elif name == "mnli":
        task = make_mnli_like(1536, 384, matched=True, seed=seed)
        max_length = 40
    elif name == "mnli-mm":
        task = make_mnli_like(1536, 384, matched=False, seed=seed)
        max_length = 40
    else:
        raise SystemExit(f"unknown task {name!r} (choose sst2 / mnli / mnli-mm)")
    train, dev, tokenizer = encode_task(task, max_length=max_length)
    return task, train, dev, tokenizer, max_length


def cmd_train(args) -> int:
    from .bert import BertConfig, BertForSequenceClassification
    from .bert.io import save_checkpoint
    from .quant import train_classifier

    task, train, dev, tokenizer, max_length = _build_task(args.task, args.seed)
    config = BertConfig(
        vocab_size=len(tokenizer.vocab),
        hidden_size=args.hidden,
        num_hidden_layers=args.layers,
        num_attention_heads=args.heads,
        intermediate_size=args.hidden * 2,
        max_position_embeddings=max_length,
        hidden_dropout_prob=0.0,
        attention_dropout_prob=0.0,
        num_labels=task.num_labels,
    )
    model = BertForSequenceClassification(config, rng=np.random.default_rng(args.seed))
    result = train_classifier(
        model, train, dev, epochs=args.epochs, lr=args.lr, seed=args.seed
    )
    print(f"dev accuracy: {result.final_accuracy:.2f}%")
    save_checkpoint(model, args.out, kind="bert")
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_quantize(args) -> int:
    from .bert.io import load_checkpoint, save_checkpoint
    from .quant import QuantConfig, evaluate, quantize_model, train_classifier
    from .quant.ptq import post_training_quantize

    model, kind = load_checkpoint(args.checkpoint)
    if kind != "bert":
        raise SystemExit("quantize expects a float checkpoint (kind 'bert')")
    _, train, dev, _, _ = _build_task(args.task, args.seed)
    qconfig = QuantConfig.fq_bert(weight_bits=args.weight_bits, act_bits=args.act_bits)

    if args.ptq:
        quant = post_training_quantize(model, qconfig, train, rng=np.random.default_rng(1))
        print(f"PTQ accuracy: {evaluate(quant, dev):.2f}%")
    else:
        quant = quantize_model(model, qconfig, rng=np.random.default_rng(1))
        result = train_classifier(
            quant, train, dev, epochs=args.epochs, lr=args.lr, seed=args.seed + 1,
            keep_best=False,
        )
        print(f"QAT accuracy: {result.final_accuracy:.2f}%")
    save_checkpoint(quant, args.out, kind="quant")
    print(f"quantized checkpoint written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    from .bert.io import load_checkpoint
    from .data import accuracy
    from .quant import convert_to_integer, evaluate

    model, kind = load_checkpoint(args.checkpoint)
    _, _, dev, _, _ = _build_task(args.task, args.seed)
    if args.integer:
        if kind != "quant":
            raise SystemExit("--integer needs a quantized checkpoint")
        model.eval()
        engine = convert_to_integer(model)
        batch = dev.full_batch()
        preds = engine.predict(batch.input_ids, batch.attention_mask, batch.token_type_ids)
        print(f"integer-engine accuracy: {accuracy(preds, batch.labels):.2f}%")
    else:
        print(f"accuracy: {evaluate(model, dev):.2f}%")
    return 0


def cmd_simulate(args) -> int:
    from .accel import AcceleratorConfig, AcceleratorSimulator, FPGA_DEVICES
    from .bert import BertConfig

    device = FPGA_DEVICES.get(args.device)
    if device is None:
        raise SystemExit(f"unknown device {args.device!r}; choose {sorted(FPGA_DEVICES)}")
    config = AcceleratorConfig(
        num_pus=args.pus, num_pes=args.pes, num_multipliers=args.multipliers
    )
    report = AcceleratorSimulator(config, device).simulate(
        BertConfig.base(), seq_len=args.seq_len
    )
    print(f"device: {device.name}  (H={args.pus}, N={args.pes}, M={args.multipliers})")
    print(f"latency:   {report.latency_ms:.2f} ms")
    print(f"power:     {report.power_watts:.2f} W")
    print(f"fps/W:     {report.fps_per_watt:.2f}")
    resources = report.resources
    print(
        f"resources: BRAM18K={resources.bram18k} DSP48={resources.dsp48} "
        f"FF={resources.ff} LUT={resources.lut} URAM={resources.uram}"
    )
    print(f"fits device: {report.fits_device()}")
    if args.json:
        import json
        import pathlib

        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The same repro-design/1 shape the search explorer emits per
        # candidate, so one consumer script handles both.
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"[simulate] wrote {path}")
    return 0


def cmd_compare(args) -> int:
    from .experiments import run_table4

    print(run_table4().render())
    return 0


def _parse_buckets(spec: Optional[str]):
    """Parse a ``--buckets`` flag ("16,32,64") into a sorted int tuple."""
    if spec is None:
        return None
    try:
        buckets = tuple(int(b) for b in spec.split(",") if b.strip())
    except ValueError:
        raise SystemExit(f"--buckets expects comma-separated integers, got {spec!r}")
    if not buckets:
        raise SystemExit("--buckets needs at least one length")
    return tuple(sorted(set(buckets)))


def cmd_serve(args) -> int:
    """Trace-driven serving: dynamic batching over simulated accelerators."""
    from .accel import FPGA_DEVICES
    from .data import accuracy
    from .quant import convert_to_integer
    from .serve import ServingConfig, ServingEngine, generate_trace

    device = FPGA_DEVICES.get(args.device)
    if device is None:
        raise SystemExit(f"unknown device {args.device!r}; choose {sorted(FPGA_DEVICES)}")
    task, train, dev, tokenizer, max_length = _build_task(args.task, args.seed)

    if args.checkpoint:
        from .bert.io import load_checkpoint

        quant, kind = load_checkpoint(args.checkpoint)
        if kind != "quant":
            raise SystemExit("serve expects a quantized checkpoint (kind 'quant')")
    else:
        # No checkpoint: calibration-only PTQ of a fresh model gives valid
        # frozen scales in seconds — enough to exercise the serving path.
        from .bert import BertConfig, BertForSequenceClassification
        from .quant import QuantConfig
        from .quant.ptq import post_training_quantize

        config = BertConfig(
            vocab_size=len(tokenizer.vocab),
            hidden_size=16,
            num_hidden_layers=2,
            num_attention_heads=4,
            intermediate_size=32,
            max_position_embeddings=max_length,
            hidden_dropout_prob=0.0,
            attention_dropout_prob=0.0,
            num_labels=task.num_labels,
        )
        model = BertForSequenceClassification(config, rng=np.random.default_rng(args.seed))
        quant = post_training_quantize(
            model, QuantConfig.fq_bert(), train, rng=np.random.default_rng(1)
        )
    quant.eval()
    engine_model = convert_to_integer(quant)

    buckets = _parse_buckets(args.buckets) or tuple(
        sorted({max(4, max_length // 4), max(4, max_length // 2), max_length})
    )
    engine = ServingEngine(
        engine_model,
        tokenizer,
        ServingConfig(
            max_batch_size=args.batch_size,
            max_wait_ms=args.max_wait_ms,
            buckets=buckets,
            num_devices=args.num_devices,
            cache_capacity=args.cache_size,
            slo_ms=args.slo_ms,
        ),
        device=device,
    )
    pool = [(ex.text_a, ex.text_b) for ex in task.dev]
    trace = generate_trace(
        pool,
        num_requests=args.requests,
        mean_interarrival_ms=args.mean_gap_ms,
        seed=args.seed,
    )
    results = engine.run_trace(trace)
    stats = engine.stats()
    print(
        f"serving {args.requests} requests on {args.num_devices} x {device.name} "
        f"(batch<= {args.batch_size}, wait<= {args.max_wait_ms}ms, buckets {buckets})"
    )
    print(stats.render())
    labels = {(ex.text_a, ex.text_b): ex.label for ex in task.dev}
    preds = np.array([r.prediction for r in results])
    truth = np.array([labels[(t.text_a, t.text_b)] for t in sorted(trace, key=lambda t: t.arrival_ms)])
    print(f"accuracy over trace: {accuracy(preds, truth):.2f}%")
    return 0


def _parse_failures(specs):
    """Parse ``--fail REPLICA@FAIL_MS[:RECOVER_MS]`` flags.

    Syntax errors and value errors get distinct messages: a spec that
    does not match the grammar reports the expected shape, while a spec
    that parses but is invalid (negative/NaN/inf times, recovery at or
    before the failure) surfaces :class:`FailureEvent`'s own validation
    message — ``--fail 0@nan`` should say *why* it is rejected, not just
    re-print the grammar.
    """
    from .fleet import FailureEvent

    failures = []
    for spec in specs or ():
        try:
            replica_part, times = spec.split("@", 1)
            fail_part, _, recover_part = times.partition(":")
            replica_id = int(replica_part)
            fail_ms = float(fail_part)
            recover_ms = float(recover_part) if recover_part else None
        except (ValueError, IndexError):
            raise SystemExit(
                f"--fail expects REPLICA@FAIL_MS[:RECOVER_MS], got {spec!r}"
            )
        try:
            failures.append(
                FailureEvent(
                    replica_id=replica_id, fail_ms=fail_ms, recover_ms=recover_ms
                )
            )
        except ValueError as exc:
            raise SystemExit(f"--fail {spec!r}: {exc}")
    return failures


def _synthetic_cluster(args):
    """The shared loadtest/search-plan fixture built from the serving flags.

    One construction path keeps the two subcommands' fleets comparable:
    a frozen synthetic integer model sized to the bucket ceiling, the
    hash tokenizer, and a single-device-per-replica :class:`FleetConfig`.

    Returns:
        ``(model, tokenizer, fleet_config)``.
    """
    from .fleet import FleetConfig
    from .perf.bench import cluster_model_config
    from .perf.workloads import HashTokenizer, build_synthetic_integer_model
    from .serve import ServingConfig

    buckets = _parse_buckets(args.buckets) or (16, 32, 64)
    model_config = cluster_model_config(max_position_embeddings=buckets[-1])
    model = build_synthetic_integer_model(model_config, seed=args.seed)
    tokenizer = HashTokenizer(vocab_size=model_config.vocab_size)
    fleet_config = FleetConfig(
        serving=ServingConfig(
            max_batch_size=args.batch_size,
            max_wait_ms=args.max_wait_ms,
            buckets=buckets,
            num_devices=1,
            cache_capacity=args.cache_size,
        ),
        admit_slo_factor=args.admit_slo_factor,
    )
    return model, tokenizer, fleet_config


def cmd_loadtest(args) -> int:
    """Cluster-scale serving simulation: scenarios, autoscaling, failures.

    Runs a built-in traffic scenario through a fleet of simulated
    accelerator replicas serving a frozen synthetic integer model (no
    training — the subject is fleet dynamics, and the synthetic model is
    bit-deterministic).  Same seed, byte-identical report — including
    under ``--analytic``, which skips the model forwards entirely and
    reports identical timing at a fraction of the cost.
    """
    from .accel import AcceleratorConfig, FPGA_DEVICES
    from .fleet import (
        AutoscalePolicy,
        ReplicaSpec,
        builtin_scenarios,
        run_scenario,
        run_scenario_columnar,
    )

    catalog = builtin_scenarios()
    names = sorted(catalog) if args.scenario == "all" else [args.scenario]
    unknown = [n for n in names if n not in catalog]
    if unknown:
        raise SystemExit(
            f"unknown scenario {unknown[0]!r}; choose from {sorted(catalog) + ['all']}"
        )
    if args.replicas < 1:
        raise SystemExit(f"--replicas must be >= 1, got {args.replicas}")

    device_names = [d.strip() for d in args.devices.split(",") if d.strip()]
    for name in device_names:
        if name not in FPGA_DEVICES:
            raise SystemExit(f"unknown device {name!r}; choose {sorted(FPGA_DEVICES)}")
    accel_config = AcceleratorConfig(
        num_pus=args.pus, num_pes=args.pes, num_multipliers=args.multipliers
    )
    specs = [
        ReplicaSpec(accel_config=accel_config, device=FPGA_DEVICES[device_names[i % len(device_names)]])
        for i in range(args.replicas)
    ]

    model, tokenizer, fleet_config = _synthetic_cluster(args)
    autoscale = (
        AutoscalePolicy(
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
            interval_ms=args.scale_interval_ms,
        )
        if args.autoscale
        else None
    )
    failures = _parse_failures(args.fail)
    chaos = None
    if args.chaos_plan:
        from .fleet import load_chaos_plan

        try:
            chaos = load_chaos_plan(args.chaos_plan)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(f"--chaos-plan {args.chaos_plan}: {exc}")
    resilience = None
    if (
        args.retries > 0
        or args.hedge
        or args.breaker
        or args.brownout
        or args.timeout_ms is not None
    ):
        from .fleet import ResiliencePolicy

        try:
            resilience = ResiliencePolicy(
                max_retries=args.retries,
                backoff_base_ms=args.retry_backoff_ms,
                retry_budget_ratio=args.retry_budget,
                hedge=args.hedge,
                hedge_factor=args.hedge_factor,
                timeout_ms=args.timeout_ms,
                breaker=args.breaker,
                brownout=args.brownout,
            )
        except ValueError as exc:
            raise SystemExit(f"resilience flags: {exc}")
    # In a fixed fleet the replica ids are exactly 0..replicas-1, so an id
    # beyond that is a typo.  With --autoscale, churn mints fresh ids
    # without bound (ids are never reused), so any id may come to exist;
    # failing one that never does is a documented no-op.
    if not args.autoscale:
        for failure in failures:
            if failure.replica_id >= args.replicas:
                raise SystemExit(
                    f"--fail targets replica {failure.replica_id}, but at most "
                    f"{args.replicas} replica(s) can exist in this run"
                )

    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if (args.shards > 1 or args.shard_procs) and not args.columnar:
        raise SystemExit("--shards/--shard-procs require --columnar")

    obs_requested = bool(args.metrics_out or args.trace_out or args.windows)
    if obs_requested and len(names) != 1:
        raise SystemExit(
            "--metrics-out/--trace-out/--windows dump one run's streams; "
            "pick a single --scenario (not 'all')"
        )
    if args.window_ms <= 0:
        raise SystemExit(f"--window-ms must be > 0, got {args.window_ms}")

    import contextlib
    import pathlib

    reports = []
    with contextlib.ExitStack() as stack:
        obs = None
        if obs_requested:
            from .obs import FleetObserver

            windows_stream = None
            if args.windows:
                path = pathlib.Path(args.windows)
                path.parent.mkdir(parents=True, exist_ok=True)
                windows_stream = stack.enter_context(open(path, "w"))
            obs = FleetObserver(
                window_ms=args.window_ms, windows_stream=windows_stream
            )
        for name in names:
            if args.columnar:
                report = run_scenario_columnar(
                    name,
                    model,
                    tokenizer,
                    specs,
                    fleet_config,
                    autoscale=autoscale,
                    failures=failures,
                    seed=args.seed,
                    rate_scale=args.rate_scale,
                    duration_scale=args.duration_scale,
                    shards=args.shards,
                    shard_processes=args.shard_procs,
                    obs=obs,
                    chaos=chaos,
                    resilience=resilience,
                )
            else:
                report = run_scenario(
                    name,
                    model,
                    tokenizer,
                    specs,
                    fleet_config,
                    autoscale=autoscale,
                    failures=failures,
                    seed=args.seed,
                    rate_scale=args.rate_scale,
                    duration_scale=args.duration_scale,
                    analytic=args.analytic,
                    obs=obs,
                    chaos=chaos,
                    resilience=resilience,
                )
            print(report.render())
            print()
            reports.append(report)
    if obs is not None:
        if args.metrics_out:
            path = pathlib.Path(args.metrics_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(obs.render_prometheus())
            print(f"[loadtest] wrote {path}")
        if args.trace_out:
            path = pathlib.Path(args.trace_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(obs.trace_json())
            print(f"[loadtest] wrote {path}")
        if args.windows:
            print(
                f"[loadtest] wrote {args.windows} "
                f"({len(obs.window_lines())} window(s))"
            )
    if args.json:
        import json
        import pathlib

        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Always a list, so consumers see one shape regardless of how many
        # scenarios ran.
        docs = [json.loads(r.to_json()) for r in reports]
        path.write_text(json.dumps(docs, indent=2, sort_keys=True) + "\n")
        print(f"[loadtest] wrote {path}")
    return 0


def cmd_metrics(args) -> int:
    """Render/validate observability dumps written by ``loadtest``.

    Reads back any of the three artifacts — a Prometheus text dump, a
    window JSONL stream, a Chrome trace JSON — validates that they parse,
    and prints a deterministic summary.  Exists so CI can smoke the
    formats without a Prometheus server or a trace viewer.
    """
    import json
    import pathlib

    from .obs import parse_prometheus

    if not (args.prom or args.windows or args.trace):
        raise SystemExit("metrics: pass at least one of --prom/--windows/--trace")

    if args.prom:
        text = pathlib.Path(args.prom).read_text()
        families = parse_prometheus(text)
        print(f"[metrics] {args.prom}: {len(families)} metric familie(s)")
        for family in sorted(families):
            samples = families[family]
            if list(samples) == [family]:
                print(f"  {family} = {_render_metric_value(samples[family])}")
            else:
                print(f"  {family}:")
                for key in sorted(samples):
                    print(f"    {key} = {_render_metric_value(samples[key])}")

    if args.windows:
        lines = pathlib.Path(args.windows).read_text().splitlines()
        docs = [json.loads(line) for line in lines if line]
        busy = [d for d in docs if d["arrivals"] or d["completions"]]
        worst = max((d["latency_p99_ms"] for d in docs), default=0.0)
        shed = sum(d["shed_total"] for d in docs)
        print(
            f"[metrics] {args.windows}: {len(docs)} window(s), "
            f"{len(busy)} non-empty, worst windowed p99 "
            f"{worst:.2f} ms, {shed} shed"
        )

    if args.trace:
        doc = json.loads(pathlib.Path(args.trace).read_text())
        events = doc["traceEvents"]
        by_phase: dict = {}
        for event in events:
            by_phase[event["ph"]] = by_phase.get(event["ph"], 0) + 1
        kinds = ", ".join(f"{k}={by_phase[k]}" for k in sorted(by_phase))
        print(f"[metrics] {args.trace}: {len(events)} trace event(s) ({kinds})")
    return 0


def _render_metric_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


def cmd_obs(args) -> int:
    """Analyze observability artifacts: ``report``, ``alerts``, ``diff``.

    The reading side of the obs layer (``repro.obs.analysis``): a
    deterministic per-run report (attribution + critical paths), an
    offline burn-rate alert replay over a windows stream, and a ranked
    regression-attribution diff between two runs.  All output is a pure
    function of the artifact bytes, so CI byte-diffs it across reruns.
    """
    from .obs.analysis import RunArtifacts, diff_runs, render_diff, render_report

    if args.obs_cmd == "report":
        if not (args.prom or args.windows or args.trace):
            raise SystemExit(
                "obs report: pass at least one of --prom/--windows/--trace"
            )
        artifacts = RunArtifacts.load(
            prom_path=args.prom,
            windows_path=args.windows,
            trace_path=args.trace,
        )
        print(render_report(artifacts, top=args.top), end="")
        return 0

    if args.obs_cmd == "alerts":
        artifacts = RunArtifacts.load(windows_path=args.windows)
        evaluator = artifacts.alert_replay()
        print(
            f"[obs] {args.windows}: {evaluator.windows_seen} window(s), "
            f"{len(evaluator.rules)} rule(s)"
        )
        if evaluator.transitions:
            for t_ms, name, action in evaluator.transitions:
                print(f"t={t_ms:.3f}ms {action} {name}")
        else:
            print("no transitions")
        firing = sorted(n for n, f in evaluator.firing().items() if f)
        print("firing at end: " + (", ".join(firing) if firing else "none"))
        return 0

    # obs diff: each artifact flag takes a BEFORE AFTER pair
    if not (args.prom or args.windows or args.trace):
        raise SystemExit("obs diff: pass at least one of --prom/--windows/--trace")

    def side(index: int) -> RunArtifacts:
        return RunArtifacts.load(
            prom_path=args.prom[index] if args.prom else None,
            windows_path=args.windows[index] if args.windows else None,
            trace_path=args.trace[index] if args.trace else None,
        )

    report = diff_runs(side(0), side(1), top=args.top)
    print(render_diff(report), end="")
    return 0


def _design_name(report) -> str:
    """A collision-free design-point name for the planner ladder.

    The knob tuple plus BIM/frequency suffixes only when they differ from
    the defaults, so names stay short on the common spaces but distinct
    design points never alias.
    """
    config = report.config
    name = (
        f"{report.device.name}/H{config.num_pus}"
        f"N{config.num_pes}M{config.num_multipliers}"
    )
    if config.bim_type.value != "A":
        name += f"-{config.bim_type.value}"
    if config.frequency_mhz != 214.0:
        name += f"@{config.frequency_mhz:g}MHz"
    return name


def cmd_search(args) -> int:
    """Design-space exploration / SLO-driven capacity planning.

    Two modes behind one subcommand:

    - **explore** (default): sweep a named design space, price every
      candidate through the analytic stack, print the Pareto front.
    - **plan** (``--scenario``): reduce the space to its front, downselect
      a design ladder, and search fleet compositions + autoscaler policies
      with the analytic fleet simulator as the inner loop, returning the
      cheapest plan meeting the p99/shed targets.

    Both are deterministic: same arguments, byte-identical ``--json``.
    """
    from .search import (
        DEFAULT_OBJECTIVES,
        OBJECTIVES,
        PLAN_OBJECTIVES,
        SloTarget,
        builtin_spaces,
        explore,
        plan_capacity,
    )

    spaces = builtin_spaces()
    space = spaces.get(args.space)
    if space is None:
        raise SystemExit(f"unknown space {args.space!r}; choose from {sorted(spaces)}")

    if args.scenario is None:
        # ---------------- explore mode ----------------
        if args.objective is None:
            objectives = DEFAULT_OBJECTIVES
        else:
            objectives = tuple(o.strip() for o in args.objective.split(",") if o.strip())
            unknown = [o for o in objectives if o not in OBJECTIVES]
            if unknown:
                raise SystemExit(
                    f"unknown objective {unknown[0]!r}; choose from {sorted(OBJECTIVES)}"
                )
        result = explore(
            space,
            seq_len=args.seq_len,
            batch_size=args.eval_batch_size,
            objectives=objectives,
            budget=args.budget,
            seed=args.seed,
        )
        print(result.render())
    else:
        # ---------------- plan mode ----------------
        from .fleet import ReplicaSpec, builtin_scenarios

        catalog = builtin_scenarios()
        if args.scenario not in catalog:
            raise SystemExit(
                f"unknown scenario {args.scenario!r}; choose from {sorted(catalog)}"
            )
        objective = args.objective or "replica-seconds"
        if objective not in PLAN_OBJECTIVES:
            raise SystemExit(
                f"unknown plan objective {objective!r}; choose from {PLAN_OBJECTIVES}"
            )
        if args.plan_designs < 1:
            raise SystemExit(f"--plan-designs must be >= 1, got {args.plan_designs}")

        # The design ladder: the space's Pareto front, downselected evenly
        # along the latency axis (always keeping the fastest and slowest
        # members) so the planner sees the whole strength range.
        front = explore(space, seq_len=args.seq_len, seed=args.seed).front
        if not front:
            raise SystemExit(f"space {args.space!r} has no feasible design point")
        by_latency = sorted(
            front, key=lambda r: (r.latency_ms, r.device.name, r.config.num_pus,
                                  r.config.num_pes, r.config.num_multipliers)
        )
        count = min(args.plan_designs, len(by_latency))
        picks = sorted(
            {round(i * (len(by_latency) - 1) / max(1, count - 1)) for i in range(count)}
        )
        # Explicit names: the default ReplicaSpec label omits BIM type and
        # frequency, so ladder members from a space sweeping those axes
        # would otherwise collide.
        designs = [
            ReplicaSpec(
                accel_config=by_latency[i].config,
                device=by_latency[i].device,
                name=_design_name(by_latency[i]),
            )
            for i in picks
        ]

        chaos = None
        if getattr(args, "chaos_plan", None):
            from .fleet import load_chaos_plan

            try:
                chaos = load_chaos_plan(args.chaos_plan)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise SystemExit(f"--chaos-plan {args.chaos_plan}: {exc}")

        model, tokenizer, fleet_config = _synthetic_cluster(args)
        scenario = catalog[args.scenario]
        p99_target = args.p99_target
        if p99_target is None:
            p99_target = min(t.slo_ms for t in scenario.tenants)
        result = plan_capacity(
            args.scenario,
            designs,
            SloTarget(p99_ms=p99_target, max_shed_rate=args.max_shed_rate),
            model,
            tokenizer,
            fleet_config=fleet_config,
            max_replicas=args.max_replicas,
            objective=objective,
            include_autoscale=not args.no_autoscale,
            budget=args.budget,
            seed=args.seed,
            rate_scale=args.rate_scale,
            duration_scale=args.duration_scale,
            chaos=chaos,
        )
        print(result.render())

    if args.json:
        import pathlib

        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(result.to_json())
        print(f"[search] wrote {path}")
    return 0


def cmd_bench(args) -> int:
    """Hold the wall-clock contracts of :mod:`repro.perf.bench`.

    Prints one line per contract and exits 1 naming every breach.  The
    run includes a 100M-request trace, so it takes over a minute and
    about 7 GB of memory; it writes no files.
    """
    from .perf import bench

    lines, breaches = bench.check_contracts(bench.measure())
    print("\n".join(lines))
    if breaches:
        print(f"[bench] FAILED: {'; '.join(breaches)}")
        return 1
    print(f"[bench] OK: all {len(lines)} contracts hold")
    return 0


def _add_serving_flags(parser, max_wait_ms: float = 10.0, cache_size: int = 256):
    """The shared serving-policy surface of ``serve`` and ``loadtest``.

    One flag set configures :class:`~repro.serve.ServingConfig` wherever a
    serving engine appears — per-node (``serve``) or per-replica
    (``loadtest``).
    """
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument(
        "--max-wait-ms", type=float, default=max_wait_ms,
        help="batching deadline: max queueing before a partial flush",
    )
    parser.add_argument(
        "--buckets", default=None,
        help="comma-separated padded sequence lengths, e.g. 16,32,64",
    )
    parser.add_argument(
        "--cache-size", "--cache-capacity", dest="cache_size", type=int,
        default=cache_size, help="LRU tokenization cache entries",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a float BERT on a synthetic task")
    train.add_argument("--task", default="sst2")
    train.add_argument("--out", required=True)
    train.add_argument("--epochs", type=int, default=6)
    train.add_argument("--lr", type=float, default=1e-3)
    train.add_argument("--hidden", type=int, default=16)
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--heads", type=int, default=4)
    train.add_argument("--seed", type=int, default=7)
    train.set_defaults(func=cmd_train)

    quantize = sub.add_parser("quantize", help="QAT or PTQ quantize a checkpoint")
    quantize.add_argument("--checkpoint", required=True)
    quantize.add_argument("--out", required=True)
    quantize.add_argument("--task", default="sst2")
    quantize.add_argument("--weight-bits", type=int, default=4)
    quantize.add_argument("--act-bits", type=int, default=8)
    quantize.add_argument("--epochs", type=int, default=1)
    quantize.add_argument("--lr", type=float, default=2e-4)
    quantize.add_argument("--ptq", action="store_true", help="calibrate only, no QAT")
    quantize.add_argument("--seed", type=int, default=7)
    quantize.set_defaults(func=cmd_quantize)

    evaluate = sub.add_parser("evaluate", help="evaluate a checkpoint")
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--task", default="sst2")
    evaluate.add_argument("--integer", action="store_true", help="use the integer engine")
    evaluate.add_argument("--seed", type=int, default=7)
    evaluate.set_defaults(func=cmd_evaluate)

    simulate = sub.add_parser("simulate", help="evaluate an accelerator design point")
    simulate.add_argument("--device", default="ZCU102")
    simulate.add_argument("--pus", type=int, default=12)
    simulate.add_argument("--pes", type=int, default=8)
    simulate.add_argument("--multipliers", type=int, default=16)
    simulate.add_argument("--seq-len", type=int, default=128)
    simulate.add_argument(
        "--json",
        help="also write the report as JSON here (same shape as search's "
        "per-candidate entries)",
    )
    simulate.set_defaults(func=cmd_simulate)

    compare = sub.add_parser("compare", help="Table IV platform comparison")
    compare.set_defaults(func=cmd_compare)

    serve = sub.add_parser(
        "serve", help="trace-driven dynamic-batching serving simulation"
    )
    serve.add_argument("--task", default="sst2")
    serve.add_argument("--checkpoint", help="quantized checkpoint (else quick PTQ)")
    serve.add_argument("--requests", type=int, default=64)
    _add_serving_flags(serve)
    serve.add_argument("--num-devices", type=int, default=1)
    serve.add_argument("--mean-gap-ms", type=float, default=2.0)
    serve.add_argument("--slo-ms", type=float, default=None)
    serve.add_argument("--device", default="ZCU102")
    serve.add_argument("--seed", type=int, default=7)
    serve.set_defaults(func=cmd_serve)

    loadtest = sub.add_parser(
        "loadtest",
        help="cluster-scale serving simulation: scenarios, autoscaling, failures",
    )
    loadtest.add_argument(
        "--scenario", default="steady",
        help="built-in scenario name (steady / diurnal / flash-crowd / ramp / "
        "multi-tenant) or 'all'",
    )
    loadtest.add_argument("--replicas", type=int, default=2)
    loadtest.add_argument(
        "--devices", default="ZCU102",
        help="comma-separated FPGA parts cycled over replicas (e.g. ZCU102,ZCU111)",
    )
    loadtest.add_argument("--pus", type=int, default=12)
    loadtest.add_argument("--pes", type=int, default=8)
    loadtest.add_argument("--multipliers", type=int, default=16)
    _add_serving_flags(loadtest, max_wait_ms=5.0, cache_size=512)
    loadtest.add_argument(
        "--admit-slo-factor", type=float, default=2.0,
        help="shed when projected latency exceeds this multiple of the tenant SLO",
    )
    loadtest.add_argument("--autoscale", action="store_true")
    loadtest.add_argument("--min-replicas", type=int, default=1)
    loadtest.add_argument("--max-replicas", type=int, default=6)
    loadtest.add_argument("--scale-interval-ms", type=float, default=20.0)
    loadtest.add_argument(
        "--fail", action="append", metavar="REPLICA@FAIL_MS[:RECOVER_MS]",
        help="inject a replica failure (repeatable)",
    )
    loadtest.add_argument(
        "--chaos-plan", metavar="PATH",
        help="load a seeded chaos plan (JSON: fail-stop, gray windows, "
        "correlated zone outages; see docs/robustness.md) and inject it "
        "alongside any --fail events",
    )
    loadtest.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry shed/timed-out admissions up to N times with seeded "
        "exponential backoff + jitter (0 = off)",
    )
    loadtest.add_argument(
        "--retry-backoff-ms", type=float, default=5.0,
        help="first retry delay in simulated ms (doubles per attempt)",
    )
    loadtest.add_argument(
        "--retry-budget", type=float, default=0.0, metavar="RATIO",
        help="retry-budget tokens accrued per admitted original "
        "(0 = unmetered retries)",
    )
    loadtest.add_argument(
        "--timeout-ms", type=float, default=None,
        help="shed (into the retry path) any admission whose projected "
        "completion exceeds this instead of queueing it",
    )
    loadtest.add_argument(
        "--hedge", action="store_true",
        help="duplicate risky admissions onto the second-best replica; "
        "first finisher wins, the twin is cancelled",
    )
    loadtest.add_argument(
        "--hedge-factor", type=float, default=0.75,
        help="hedge when projected latency > factor * SLO",
    )
    loadtest.add_argument(
        "--breaker", action="store_true",
        help="per-replica circuit breaker over windowed straggle rates "
        "(closed/open/half-open)",
    )
    loadtest.add_argument(
        "--brownout", action="store_true",
        help="degrade the admission bound stepwise under overload before "
        "shedding (brownout ladder)",
    )
    loadtest.add_argument(
        "--rate-scale", type=float, default=1.0,
        help="multiply the whole arrival-rate curve (scale traffic volume)",
    )
    loadtest.add_argument(
        "--duration-scale", type=float, default=1.0,
        help="stretch the scenario duration (and its burst windows) in time",
    )
    loadtest.add_argument(
        "--analytic", action="store_true",
        help="latency-only execution: skip model forwards, keep the exact "
        "simulator timing (byte-identical report, orders of magnitude "
        "faster — the mode for million-request traces)",
    )
    loadtest.add_argument(
        "--columnar", action="store_true",
        help="run the columnar analytic engine: the same simulation over "
        "numpy columns and memoized price tables (byte-identical report, "
        "another order of magnitude over --analytic — the mode for "
        "100M-request traces)",
    )
    loadtest.add_argument(
        "--shards", type=int, default=1,
        help="with --columnar: split the run into this many deterministic "
        "time windows (any count gives byte-identical reports)",
    )
    loadtest.add_argument(
        "--shard-procs", action="store_true",
        help="with --columnar: run each shard window in a forked "
        "subprocess (state crosses via pickle; same bytes)",
    )
    loadtest.add_argument("--json", help="also write the report as JSON here")
    loadtest.add_argument(
        "--metrics-out", metavar="PATH",
        help="write a Prometheus text-format metrics dump here (single "
        "scenario only; attaching observability never changes the report)",
    )
    loadtest.add_argument(
        "--trace-out", metavar="PATH",
        help="write a Chrome trace-event JSON here (open in "
        "chrome://tracing or Perfetto; simulated clock, deterministic)",
    )
    loadtest.add_argument(
        "--windows", metavar="PATH",
        help="stream rolling-window JSONL here during the run (windowed "
        "p99/goodput/shed-rate/queue-depth plus scale and failure events)",
    )
    loadtest.add_argument(
        "--window-ms", type=float, default=20.0,
        help="rolling-window width in simulated milliseconds",
    )
    loadtest.add_argument("--seed", type=int, default=7)
    loadtest.set_defaults(func=cmd_loadtest)

    metrics = sub.add_parser(
        "metrics", help="render/validate loadtest observability dumps"
    )
    metrics.add_argument("--prom", help="Prometheus text dump from --metrics-out")
    metrics.add_argument("--windows", help="window JSONL stream from --windows")
    metrics.add_argument("--trace", help="Chrome trace JSON from --trace-out")
    metrics.set_defaults(func=cmd_metrics)

    obs = sub.add_parser(
        "obs", help="analyze observability artifacts (report / alerts / diff)"
    )
    obs_sub = obs.add_subparsers(dest="obs_cmd", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="deterministic per-run report: attribution, alerts, critical paths",
    )
    obs_report.add_argument("--prom", help="Prometheus text dump from --metrics-out")
    obs_report.add_argument("--windows", help="window JSONL stream from --windows")
    obs_report.add_argument("--trace", help="Chrome trace JSON from --trace-out")
    obs_report.add_argument(
        "--top", type=int, default=5, help="critical paths to list (default 5)"
    )
    obs_report.set_defaults(func=cmd_obs)
    obs_alerts = obs_sub.add_parser(
        "alerts", help="replay the burn-rate alert policy over a windows stream"
    )
    obs_alerts.add_argument(
        "--windows", required=True, help="window JSONL stream from --windows"
    )
    obs_alerts.set_defaults(func=cmd_obs)
    obs_diff = obs_sub.add_parser(
        "diff", help="ranked regression attribution between two runs"
    )
    obs_diff.add_argument(
        "--prom", nargs=2, metavar=("BEFORE", "AFTER"),
        help="two Prometheus dumps to compare",
    )
    obs_diff.add_argument(
        "--windows", nargs=2, metavar=("BEFORE", "AFTER"),
        help="two window JSONL streams to compare",
    )
    obs_diff.add_argument(
        "--trace", nargs=2, metavar=("BEFORE", "AFTER"),
        help="two Chrome traces to compare",
    )
    obs_diff.add_argument(
        "--top", type=int, default=10, help="rows per ranked section (default 10)"
    )
    obs_diff.set_defaults(func=cmd_obs)

    search = sub.add_parser(
        "search",
        help="design-space exploration / SLO-driven capacity planning",
    )
    search.add_argument(
        "--space", default="table3",
        help="named design space (table3 / small / wide)",
    )
    search.add_argument(
        "--objective", default=None,
        help="explore: comma list of Pareto objectives "
        "(latency,energy,headroom,power; default latency,energy,headroom); "
        "plan: the cost to minimize (replica-seconds | energy)",
    )
    search.add_argument(
        "--budget", type=int, default=None,
        help="explore: max candidates to evaluate (seeded sampling beyond); "
        "plan: max plan evaluations",
    )
    search.add_argument("--seq-len", type=int, default=128)
    search.add_argument(
        "--eval-batch-size", type=int, default=1,
        help="explore: batch size candidates are priced at (1 = the "
        "paper's batch-1 latency; serving flags like --batch-size "
        "configure the planner's per-replica engine instead)",
    )
    search.add_argument(
        "--scenario", default=None,
        help="switch to capacity planning against this built-in scenario",
    )
    search.add_argument(
        "--p99-target", type=float, default=None,
        help="plan: fleet-wide p99 target in ms (default: the scenario's "
        "tightest tenant SLO)",
    )
    search.add_argument(
        "--max-shed-rate", type=float, default=0.0,
        help="plan: tolerated shed fraction of submitted traffic",
    )
    search.add_argument("--max-replicas", type=int, default=3)
    search.add_argument(
        "--plan-designs", type=int, default=4,
        help="plan: design-ladder size downselected from the space's front",
    )
    search.add_argument(
        "--no-autoscale", action="store_true",
        help="plan: skip the autoscaled plan variants",
    )
    search.add_argument(
        "--chaos-plan", metavar="PATH",
        help="plan: replay every candidate under this chaos plan (JSON; "
        "see docs/robustness.md) — feasible means the targets hold both "
        "clean and under chaos (N+1 sizing by simulation)",
    )
    search.add_argument("--rate-scale", type=float, default=1.0)
    search.add_argument("--duration-scale", type=float, default=1.0)
    # The shared serving surface configures the *planner's* per-replica
    # engines (plan mode); explore mode prices bare design points and
    # only reads --eval-batch-size.
    _add_serving_flags(search, max_wait_ms=5.0, cache_size=512)
    search.add_argument(
        "--admit-slo-factor", type=float, default=2.0,
        help="plan: shed when projected latency exceeds this multiple of "
        "the tenant SLO",
    )
    search.add_argument("--json", help="also write the result as JSON here")
    search.add_argument("--seed", type=int, default=0)
    search.set_defaults(func=cmd_search)

    bench = sub.add_parser(
        "bench",
        help="wall-clock contracts: analytic/columnar speedups, observer and "
        "resilience overheads, the 100M-request trace, search throughput",
    )
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
