"""The traced run: per-layer metrics from spans around calls into relbell.

Each traced op is the workload's op with a span around every call it makes
into relbell, followed by a replay: the benchmark calls the public
functions of the layers underneath on that op's own inputs, one span per
call, with the op's span as parent.  Replay spans sit after their parent in
time, so a parent's unattributed time is its duration minus the replayed
children's durations.  Untraced and traced ops alternate, which gives the
tracing overhead from the same process.

Every per-layer metric is measured on the workload whose cost it explains
(the ``home`` column of LAYER_METRICS), so a traced run visits all three
workloads; ``trace.overhead_frac`` and ``trace.unattributed_frac`` are
reported for the workload the run was started with.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import statistics
import time

import numpy as np

from relbell import DEFAULT_CONFIG, bell_average_mc, bell_test, chsh_from_beta, kernel_from_beta
from relbell.bell import scan_figure
from relbell.cli import parse_args
from relbell.correlator import DEFAULT_CHUNK_SIZE
from relbell.distributions import JointGaussian
from relbell.kinematics import beta_from_momentum, boosted_spin_axis

import workloads as wl
from gate import Gate, run_op
from spans import Recorder, write_spans

# name, unit, better, measured on, the end-to-end metric it should move
LAYER_METRICS = (
    ("kinematics.beta_from_momentum_s", "s", "lower", "mc_threshold",
     "items_per_s on mc_threshold; op_p50_s on protocol_run"),
    ("kinematics.boosted_spin_axis_s", "s", "lower", "protocol_run", "op_p50_s on protocol_run"),
    ("distributions.sample_s", "s", "lower", "mc_threshold", "items_per_s on mc_threshold"),
    ("distributions.draws", "count", "lower", "mc_threshold", "items_per_s on mc_threshold"),
    ("correlator.kernel_from_beta_s", "s", "lower", "mc_threshold",
     "mc_threshold most, protocol_run somewhat, export not at all"),
    ("correlator.kernel_evals", "count", "lower", "mc_threshold",
     "mc_threshold most, protocol_run somewhat, export not at all"),
    ("correlator.kernel_ns_per_eval", "ns", "lower", "mc_threshold",
     "mc_threshold most, protocol_run somewhat, export not at all"),
    ("correlator.kernel_bytes_computed", "B", "lower", "mc_threshold",
     "mc_threshold most, protocol_run somewhat, export not at all (computed from array sizes, not measured)"),
    ("correlator.mc_chunks", "count", "lower", "mc_threshold", "items_per_s on mc_threshold"),
    ("correlator.rejected_draws", "count", "lower", "mc_threshold", "items_per_s on mc_threshold"),
    ("correlator.accept_ratio", "ratio", "higher", "mc_threshold", "items_per_s on mc_threshold"),
    ("correlator.mc_loop_overhead_s", "s", "lower", "mc_threshold", "items_per_s on mc_threshold"),
    ("correlator.parallel_efficiency", "ratio", "higher", "mc_threshold", "items_per_s on mc_threshold"),
    ("bell.bell_average_mc_w1_s", "s", "lower", "mc_threshold", "items_per_s on mc_threshold"),
    ("bell.bell_average_mc_w2_s", "s", "lower", "mc_threshold", "op_p50_s and items_per_s on mc_threshold"),
    ("bell.chsh_from_beta_s", "s", "lower", "protocol_run", "op_p50_s on protocol_run"),
    ("bell.scan_figure_s", "s", "lower", "export", "op_p50_s and items_per_s on export"),
    ("bell.scan_to_csv_s", "s", "lower", "export", "op_p50_s and items_per_s on export"),
    ("bell.scan_to_json_s", "s", "lower", "export", "op_p50_s and items_per_s on export"),
    ("bell.scan_bytes", "B", "lower", "export", "items_per_s on export (a guard: it should not move)"),
    ("ekert.run_protocol_s", "s", "lower", "protocol_run", "op_p50_s on protocol_run"),
    ("ekert.bell_test_naive_s", "s", "lower", "protocol_run", "op_p50_s on protocol_run"),
    ("ekert.bell_test_corrected_s", "s", "lower", "protocol_run", "op_p50_s on protocol_run"),
    ("ekert.run_unattributed_s", "s", "lower", "protocol_run", "op_p50_s on protocol_run"),
    ("ekert.to_json_s", "s", "lower", "export", "items_per_s on export"),
    ("ekert.to_csv_s", "s", "lower", "export", "items_per_s on export"),
    ("ekert.transcript_bytes", "B", "lower", "export", "items_per_s on export (a guard: it should not move)"),
    ("ekert.attacked_frac", "ratio", "higher", "protocol_run", "a guard: p_eve = 0.5 should hold it near 0.5"),
    ("ekert.sifted_frac", "ratio", "higher", "protocol_run", "a guard: basis choice should hold it near 0.25"),
    ("cli.parse_args_s", "s", "lower", "export", "op_p50_s on export"),
    ("cli.main_s", "s", "lower", "export", "op_p50_s on export"),
    ("cli.self_s", "s", "lower", "export", "op_p50_s on export"),
    ("trace.overhead_frac", "ratio", "lower", "selected", "traced op_p50_s / untraced op_p50_s - 1"),
    ("trace.unattributed_frac", "ratio", "lower", "selected", "share of decomposed time no replayed span covers"),
)


def _kernel(recorder, op, parent, a, b, beta1, beta2, counts):
    with recorder.span("correlator.kernel_from_beta", op, parent):
        k = kernel_from_beta(a, b, beta1, beta2)
    counts["correlator.kernel_evals"] += k.size
    counts["correlator.kernel_bytes_computed"] += (
        np.asarray(a).nbytes + np.asarray(b).nbytes + beta1.nbytes + beta2.nbytes + k.nbytes
    )
    return k


def replay_mc(workload, i, estimates, recorder):
    """bell_average_mc at workers=1, then its chunk loop call by call."""
    failures = []
    counts = dict.fromkeys(
        ("correlator.kernel_evals", "correlator.kernel_bytes_computed", "distributions.draws",
         "correlator.mc_chunks", "correlator.rejected_draws"), 0)
    signs = (1.0, 1.0, 1.0, -1.0)
    for (profile, _, dist, mc_seed), est2 in zip(workload.ops[i % wl.MAX_OPS], estimates):
        with recorder.span("bell.bell_average_mc_w1", i) as parent:
            est1 = bell_average_mc(DEFAULT_CONFIG, dist, wl.MC_SAMPLES, mc_seed, workers=1)
        if est1 != est2:
            failures.append(f"{profile}: workers=1 gives {est1}, workers=2 gives {est2}")
        full, rest = divmod(wl.MC_SAMPLES, DEFAULT_CHUNK_SIZE)
        sizes = [DEFAULT_CHUNK_SIZE] * full + ([rest] if rest else [])
        total = 0.0
        for child, n in zip(np.random.SeedSequence(mc_seed).spawn(len(sizes)), sizes):
            rng = np.random.Generator(np.random.Philox(child))
            with recorder.span("distributions.sample", i, parent):
                p1, p2 = dist.sample(rng, n)
            with recorder.span("kinematics.beta_from_momentum", i, parent):
                beta1 = beta_from_momentum(p1, dist.mass)
            with recorder.span("kinematics.beta_from_momentum", i, parent):
                beta2 = beta_from_momentum(p2, dist.mass)
            for sign, (a, b) in zip(signs, DEFAULT_CONFIG.axis_pairs):
                k = _kernel(recorder, i, parent, a, b, beta1, beta2, counts)
                if isinstance(dist, JointGaussian):
                    k = 0.5 * (k + _kernel(recorder, i, parent, a, b, beta2, beta1, counts))
                total += sign * float(k.sum())
            counts["distributions.draws"] += n
        counts["correlator.mc_chunks"] += len(sizes)
        counts["correlator.rejected_draws"] += est1.rejected
        # with no redraws the replayed chunks are exactly the estimator's draws
        if est1.rejected == 0 and abs(total / wl.MC_SAMPLES - est1.value) > 1e-12:
            failures.append(f"{profile}: replayed chunks give {total / wl.MC_SAMPLES!r}, not {est1.value!r}")
        counts["distributions.draws"] += est1.rejected

    d = recorder.durations(i)
    parts = d["distributions.sample"] + d["kinematics.beta_from_momentum"] + d["correlator.kernel_from_beta"]
    w1, w2 = d["bell.bell_average_mc_w1"], d["bell.bell_average_mc_w2"]
    samples = wl.MC_SAMPLES * len(estimates)
    values = dict(
        counts,
        **{
            "kinematics.beta_from_momentum_s": d["kinematics.beta_from_momentum"],
            "distributions.sample_s": d["distributions.sample"],
            "correlator.kernel_from_beta_s": d["correlator.kernel_from_beta"],
            "correlator.kernel_ns_per_eval": 1e9 * d["correlator.kernel_from_beta"] / counts["correlator.kernel_evals"],
            "correlator.accept_ratio": samples / (samples + counts["correlator.rejected_draws"]),
            "correlator.mc_loop_overhead_s": w1 - parts,
            "correlator.parallel_efficiency": w1 / (2.0 * w2),
            "bell.bell_average_mc_w1_s": w1,
            "bell.bell_average_mc_w2_s": w2,
            "trace.unattributed_frac": (w1 - parts) / w1,
        },
    )
    return values, failures


def replay_protocol(workload, i, transcripts, recorder):
    """The stages of run_protocol, on each transcript's own momenta and bases."""
    failures = []
    values = {}
    parents = recorder.ids(i, "ekert.run_protocol")
    for config, t, parent in zip(workload.inputs[i % wl.PROTOCOL_INPUTS], transcripts, parents):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed).spawn(6)[0]))
        with recorder.span("distributions.sample", i, parent):
            p1, p2 = config.distribution.sample(rng, t.pair_count)
        if not (np.array_equal(p1, t.momentum1) and np.array_equal(p2, t.momentum2)):
            failures.append("replayed momentum stream differs from the transcript")
        mass = config.distribution.mass
        with recorder.span("kinematics.beta_from_momentum", i, parent):
            beta1 = beta_from_momentum(t.momentum1, mass)
        with recorder.span("kinematics.beta_from_momentum", i, parent):
            beta2 = beta_from_momentum(t.momentum2, mass)
        alice_vecs = config.alice_pool[t.alice_basis]
        bob_vecs = config.bob_pool[t.bob_basis]
        partner_vecs = bob_vecs.copy()
        rows = np.nonzero(t.attacked)[0]
        if rows.size:
            partner_vecs[rows] = np.array(config.eve.basis_pool)[t.eve_basis[rows]]
        with recorder.span("correlator.kernel_from_beta", i, parent):
            kernel_from_beta(alice_vecs, partner_vecs, beta1, beta2)
        with recorder.span("bell.chsh_from_beta", i, parent):
            chsh_from_beta(config.bell, beta1, beta2)
        if rows.size:
            with recorder.span("kinematics.boosted_spin_axis", i, parent):
                boosted_spin_axis(partner_vecs[rows], beta2[rows])
            with recorder.span("kinematics.boosted_spin_axis", i, parent):
                boosted_spin_axis(bob_vecs[rows], beta2[rows])
            values["ekert.attacked_frac"] = rows.size / t.pair_count
        else:
            values["ekert.sifted_frac"] = t.sifted_indices.size / t.pair_count
        for corrected, label in ((False, "naive"), (True, "corrected")):
            with recorder.span(f"ekert.bell_test_{label}", i, parent):
                result = bell_test(t, corrected=corrected)
            if result != getattr(t, f"bell_{label}"):
                failures.append(f"replayed {label} Bell test differs from the run's")

    d = recorder.durations(i)
    run = d["ekert.run_protocol"]
    # chsh_from_beta is not subtracted: bell_test(corrected=True) runs it again
    parts = sum(d[name] for name in (
        "distributions.sample", "kinematics.beta_from_momentum", "correlator.kernel_from_beta",
        "kinematics.boosted_spin_axis", "ekert.bell_test_naive", "ekert.bell_test_corrected"))
    values.update({
        "kinematics.boosted_spin_axis_s": d["kinematics.boosted_spin_axis"],
        "bell.chsh_from_beta_s": d["bell.chsh_from_beta"],
        "ekert.run_protocol_s": run,
        "ekert.bell_test_naive_s": d["ekert.bell_test_naive"],
        "ekert.bell_test_corrected_s": d["ekert.bell_test_corrected"],
        "ekert.run_unattributed_s": run - parts,
        "trace.unattributed_frac": (run - parts) / run,
    })
    return values, failures


def replay_export(workload, i, out, recorder):
    """What cli.main does for a scan: parse, tabulate, write."""
    failures = []
    for fmt, parent in zip(("csv", "json"), recorder.ids(i, "cli.main")):
        with recorder.span("cli.parse_args", i, parent):
            params = parse_args(wl.scan_argv(workload.figure(i), fmt)).params
        with recorder.span("bell.scan_figure", i, parent):
            table = scan_figure(params["figure"], params["resolution"], params["mass"], params["beta_max"])
        sink = io.StringIO()
        with recorder.span(f"bell.scan_to_{fmt}", i, parent):
            getattr(table, f"to_{fmt}")(sink)
        if sink.getvalue() != out[f"scan_{fmt}"]:
            failures.append(f"replayed scan {fmt} differs from the cli output")

    d = recorder.durations(i)
    scan_and_write = d["bell.scan_figure"] + d["bell.scan_to_csv"] + d["bell.scan_to_json"]
    cli_self = d["cli.main"] - scan_and_write
    op = d["ekert.to_json"] + d["ekert.to_csv"] + d["cli.main"]
    values = {
        "bell.scan_figure_s": d["bell.scan_figure"],
        "bell.scan_to_csv_s": d["bell.scan_to_csv"],
        "bell.scan_to_json_s": d["bell.scan_to_json"],
        "bell.scan_bytes": len(out["scan_csv"]) + len(out["scan_json"]),
        "ekert.to_json_s": d["ekert.to_json"],
        "ekert.to_csv_s": d["ekert.to_csv"],
        "ekert.transcript_bytes": len(out["json"]) + len(out["csv"]),
        "cli.parse_args_s": d["cli.parse_args"],
        "cli.main_s": d["cli.main"],
        "cli.self_s": cli_self,
        "trace.unattributed_frac": (cli_self - d["cli.parse_args"]) / op,
    }
    return values, failures


REPLAYS = {"mc_threshold": replay_mc, "protocol_run": replay_protocol, "export": replay_export}


def write_profile(workload, path) -> None:
    """cProfile top-20 of one op; MC chunks run on the main thread here,
    since the profiler does not follow worker threads."""
    kwargs = {"workers": 1} if workload.name == "mc_threshold" else {}
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        workload.run(0, **kwargs)
    finally:
        profiler.disable()
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(f"# cProfile of one {workload.name} op {kwargs}, top 20 by cumulative time\n")
        pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(20)


def traced_run(selected: str, seed: int, seconds: float, expected: dict, out_dir):
    """Trace every workload, ``selected`` for half of ``seconds`` and the
    others for a quarter each; returns the result."""
    metrics, attempted, failed, messages, recorders = {}, 0, 0, [], []
    for name in wl.WORKLOADS:
        workload = wl.CLASSES[name](seed)
        gate = Gate(workload, seed, expected)
        recorder = Recorder(name)
        recorders.append(recorder)
        times = {False: [], True: []}
        per_op = []
        start = time.perf_counter()
        i = 0
        share = seconds / 2 if name == selected else seconds / (2 * (len(wl.WORKLOADS) - 1))
        while i < 4 or time.perf_counter() - start < share:
            # alternate, shifting the parity every six ops so that each of
            # export's six figures is traced as well as untraced
            traced = (i + i // 6) % 2 == 1
            elapsed, output, failures = run_op(workload, gate, i, recorder if traced else None)
            times[traced].append(elapsed)
            if traced and output is not None:
                try:
                    values, replay_failures = REPLAYS[name](workload, i, output, recorder)
                    per_op.append(values)
                    failures = failures + replay_failures
                except Exception as exc:  # a replay that raises fails its op
                    failures = failures + [f"replay raised {type(exc).__name__}: {exc}"]
            attempted += 1
            failed += bool(failures)
            messages += [f"{name} op {i}: {f}" for f in failures]
            i += 1
        if name in ("mc_threshold", "protocol_run"):
            write_profile(workload, out_dir / f"profile-{name}-seed{seed}.txt")
        for metric, unit, _, home, _ in LAYER_METRICS:
            if home == name or (home == "selected" and name == selected):
                if metric == "trace.overhead_frac":
                    value = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
                else:
                    value = statistics.median(v[metric] for v in per_op if metric in v)
                metrics[metric] = {"value": value, "unit": unit}
    write_spans(out_dir / f"trace-{selected}-seed{seed}.json", recorders)
    return attempted, failed, messages, metrics
