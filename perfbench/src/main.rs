//! The repository benchmark: four fixed-work workloads over the public
//! API of the campaign, federation and trace crates. A closed loop with
//! one caller runs each op and waits for its verdict.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload matrix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! split; the last line of standard output is one JSON object. See
//! `perfbench/BENCHMARK.md` for the workloads and every metric.

mod alloc;
mod spans;
mod workloads;

use can_controller::SIM_PHASES;
use canely_campaign::RUN_PHASES;
use canely_metrics::{Counter, Registry, Stability};
use canely_trace::stats::nearest_rank;
use spans::Tracer;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Kind, SimTotals, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u32 = 1;
/// Extra set-ups per run, spread evenly over the timed passes so that
/// their median does not hang on the host's speed in one instant.
const SETUP_SAMPLES: u64 = 16;
/// Allowed relative difference between two passes' allocation counts.
/// The trace parser's `HashMap`s use per-process random hash keys, so
/// the allocations of order-dependent containers built from them move
/// by one or two per pass; every other counter must repeat exactly.
const ALLOC_TOLERANCE: f64 = 0.001;

const USAGE: &str = "usage: canely-perfbench --workload matrix|dense|fed-ring|triage \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    kind: Kind,
    seed: u32,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<u64>().map_err(|_| bad())?.clamp(1, 600),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nearest-rank percentile of unsorted samples; 0 when there are none.
fn percentile(samples: &[u64], pct: u32) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        0
    } else {
        nearest_rank(&sorted, pct)
    }
}

/// The highest whole percentile with at least ten samples beyond it.
fn tail_percentile(samples: usize) -> u32 {
    let n = samples as u64;
    (50..=99)
        .rev()
        .find(|&p| n - (n * u64::from(p)).div_ceil(100) >= 10)
        .unwrap_or(50)
}

/// Peak resident set size, printed for reference only: on a shared
/// host it moves by several MB between runs of one seed, so the
/// end-to-end memory metric is the allocator's heap high-water mark.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times the set-up (parse + expand + first world built) again at
/// evenly spaced passes.
struct SetupSampler {
    kind: Kind,
    seed: u32,
    stride: u64,
    setup_ns: Vec<u64>,
    spec_ns: Vec<u64>,
}

impl SetupSampler {
    fn sample(&mut self) -> Result<Workload, String> {
        let start = Instant::now();
        let (workload, spec_ns) = Workload::setup(self.kind, self.seed)?;
        self.setup_ns.push(start.elapsed().as_nanos() as u64);
        self.spec_ns.push(spec_ns);
        Ok(workload)
    }

    fn after_pass(&mut self, pass: u64) -> Result<(), String> {
        if (pass + 1).is_multiple_of(self.stride) {
            self.sample()?;
        }
        Ok(())
    }
}

/// The checked result of a sequence of passes.
#[derive(Default)]
struct Passes {
    /// Ops in one pass.
    ops: usize,
    /// Every op's latency, pass after pass.
    latencies: Vec<u64>,
    attempted: u64,
    failed: u64,
    /// Simulated totals and allocations of each pass.
    totals: Vec<(SimTotals, u64)>,
    trace_bytes: u64,
    /// Most heap bytes live during any op.
    peak_heap: u64,
}

impl Passes {
    /// Each op's fastest latency over the passes. The host's other
    /// tenants slow some passes by up to half; an op's best repeat is
    /// its cost with the least of that added, and a slower program
    /// slows every repeat, the best one too.
    fn best(&self) -> Vec<u64> {
        (0..self.ops)
            .map(|i| {
                let repeats = self.latencies.iter().skip(i).step_by(self.ops);
                repeats.copied().min().unwrap_or(0)
            })
            .collect()
    }

    /// Ops per second of the best repeats: one pass at each op's best.
    fn ops_per_s(&self) -> f64 {
        let best = self.best();
        let total_ns: u64 = best.iter().sum();
        best.len() as f64 / (total_ns as f64 / 1e9)
    }

    /// Every pass must repeat the warm-up pass's simulated totals
    /// exactly, and agree with the first on allocations within
    /// [`ALLOC_TOLERANCE`].
    fn check(&self, warm: &SimTotals, label: &str, problems: &mut Vec<String>) {
        let first = self.totals.first().map_or(0, |&(_, allocs)| allocs);
        for (pass, (totals, allocs)) in self.totals.iter().enumerate() {
            if totals != warm {
                problems.push(format!(
                    "{label} pass {pass}: simulated totals differ from the warm-up pass"
                ));
            }
            if allocs.abs_diff(first) as f64 > first as f64 * ALLOC_TOLERANCE {
                problems.push(format!(
                    "{label} pass {pass}: {allocs} allocations, pass 0 made {first}"
                ));
            }
        }
    }
}

/// Runs `passes` passes over the op list, checking every op against
/// the warm-up pass's digest.
fn run_passes(
    workload: &mut Workload,
    passes: u64,
    traced: bool,
    tracer: &mut Tracer,
    reference: &[u64],
    mut sampler: Option<&mut SetupSampler>,
) -> Result<Passes, String> {
    let mut out = Passes {
        ops: reference.len(),
        ..Passes::default()
    };
    for pass in 0..passes {
        let mut totals = SimTotals::default();
        let mut allocs = 0;
        for (i, &expected) in reference.iter().enumerate() {
            alloc::reset_peak();
            let before = alloc::allocations();
            let op = workload.run_op(i, traced, tracer);
            allocs += alloc::allocations() - before;
            out.peak_heap = out.peak_heap.max(alloc::peak_bytes());
            out.latencies.push(op.ns);
            out.attempted += 1;
            out.failed += u64::from(!op.ok || op.digest != expected);
            out.trace_bytes += op.trace_bytes;
            totals.merge(&op.sim);
        }
        out.totals.push((totals, allocs));
        if let Some(sampler) = sampler.as_deref_mut() {
            sampler.after_pass(pass)?;
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark and prints its report; `Ok(false)` when a check
/// failed.
fn run(args: &Args) -> Result<bool, String> {
    let kind = args.kind;
    let passes = (kind.passes_per_10s() * args.seconds).div_ceil(10).max(2);
    let mut sampler = SetupSampler {
        kind,
        seed: args.seed,
        stride: (passes / SETUP_SAMPLES).max(1),
        setup_ns: Vec::new(),
        spec_ns: Vec::new(),
    };
    let mut workload = sampler.sample()?;
    let registry = args.trace.then(Registry::new);
    workload.prepare(registry.as_ref())?;

    // Warm-up pass: fills caches and arenas, and fixes each op's
    // reference digest and the per-pass simulated totals.
    let mut off = Tracer::new(false);
    let mut reference = Vec::new();
    let mut warm = SimTotals::default();
    let mut problems = Vec::new();
    for i in 0..workload.len() {
        let op = workload.run_op(i, false, &mut off);
        if !op.ok {
            problems.push(format!("warm-up op {i} failed its output check"));
        }
        reference.push(op.digest);
        warm.merge(&op.sim);
    }

    let mut report = format!(
        "workload {} seed {} passes {} ops/pass {} workers {} (closed loop, 1 caller)\n",
        kind.name(),
        args.seed,
        passes,
        workload.len(),
        kind.workers()
    );
    let (metrics, attempted, failed) = if let Some(registry) = &registry {
        let traced = TracedRun {
            registry,
            passes,
            reference: &reference,
            warm: &warm,
            kind,
        };
        traced.run(&mut workload, &mut sampler, &mut report, &mut problems)?
    } else {
        let timed = run_passes(
            &mut workload,
            passes,
            false,
            &mut off,
            &reference,
            Some(&mut sampler),
        )?;
        timed.check(&warm, "timed", &mut problems);
        let metrics = end_to_end(&timed, &workload.pooled(&warm), &sampler, &mut report);
        (metrics, timed.attempted, timed.failed)
    };

    for m in &metrics {
        let _ = writeln!(report, "{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for problem in &problems {
        let _ = writeln!(report, "check failed: {problem}");
    }
    print!("{report}");
    let correct = problems.is_empty() && failed == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

fn end_to_end(
    timed: &Passes,
    sim: &SimTotals,
    sampler: &SetupSampler,
    report: &mut String,
) -> Vec<Metric> {
    let samples = timed.latencies.len();
    let tail = tail_percentile(samples);
    let (pass, allocs) = timed.totals.first().cloned().unwrap_or_default();
    let ops_per_pass = timed.ops as f64;
    let _ = writeln!(
        report,
        "ops_per_s and op_ms_p50 take each op's best of {} passes; op_ms_tail is p{tail} of \
         {samples} op samples; setup_s is the median of {} set-ups; peak RSS {:.1} MiB\n\
         work per op: runs {:.2} events {:.1} allocations {:.1}",
        timed.totals.len(),
        sampler.setup_ns.len(),
        peak_rss_mb(),
        pass.runs as f64 / ops_per_pass,
        pass.events as f64 / ops_per_pass,
        allocs as f64 / ops_per_pass,
    );
    vec![
        metric("ops_per_s", timed.ops_per_s(), "1/s"),
        metric(
            "op_ms_p50",
            percentile(&timed.best(), 50) as f64 / 1e6,
            "ms",
        ),
        metric(
            "op_ms_tail",
            percentile(&timed.latencies, tail) as f64 / 1e6,
            "ms",
        ),
        metric(
            "setup_s",
            percentile(&sampler.setup_ns, 50) as f64 / 1e9,
            "s",
        ),
        metric(
            "peak_heap_mb",
            timed.peak_heap as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        metric(
            "detect_p99_bt",
            percentile(&sim.detection, 99) as f64,
            "bit-times",
        ),
        metric(
            "view_change_p99_bt",
            percentile(&sim.view_change, 99) as f64,
            "bit-times",
        ),
        metric(
            "detector_bus_ppm",
            sim.detector_busy as f64 * 1e6 / sim.bus_time.max(1) as f64,
            "ppm",
        ),
    ]
}

/// Stable registry counters the traced run reads, by exported name.
const STABLE: [&str; 11] = [
    "canely_campaign_runs_total",
    "canely_campaign_events_total",
    "canely_campaign_violations_total",
    "canely_campaign_false_suspicions_total",
    "canely_campaign_detector_frames_total",
    "canely_sim_steps_total",
    "canely_sim_timer_expiries_total",
    "canely_sim_bus_transactions_total",
    "canely_fed_pump_quanta_total",
    "canely_fed_relayed_frames_total",
    "canely_fed_retry_queued_total",
];

/// Index of `name` in `names`, a list this file names it in.
fn position(names: &[&str], name: &str) -> usize {
    names
        .iter()
        .position(|&n| n == name)
        .expect("the name is listed")
}

/// Registry counters the traced run reads.
struct Probe {
    stable: Vec<Counter>,
    sim_phases: Vec<Counter>,
    run_phases: Vec<Counter>,
}

/// Counter readings, or their change over the traced passes.
struct Readings {
    stable: Vec<u64>,
    /// Nanoseconds per [`SIM_PHASES`] phase.
    sim_ns: Vec<u64>,
    /// Nanoseconds per [`RUN_PHASES`] phase.
    run_ns: Vec<u64>,
}

impl Probe {
    fn new(registry: &Registry) -> Probe {
        let phases = |base: &str, names: &[&str]| {
            names
                .iter()
                .map(|p| {
                    registry.counter(&format!("{base}{{phase=\"{p}\"}}"), "", Stability::Volatile)
                })
                .collect()
        };
        Probe {
            stable: STABLE
                .iter()
                .map(|&name| registry.counter(name, "", Stability::Stable))
                .collect(),
            sim_phases: phases("canely_sim_phase_nanos_total", SIM_PHASES),
            run_phases: phases("canely_run_phase_nanos_total", RUN_PHASES),
        }
    }

    fn read(&self) -> Readings {
        let get = |counters: &[Counter]| counters.iter().map(Counter::get).collect();
        Readings {
            stable: get(&self.stable),
            sim_ns: get(&self.sim_phases),
            run_ns: get(&self.run_phases),
        }
    }

    fn since(&self, before: &Readings) -> Readings {
        let now = self.read();
        let diff = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        Readings {
            stable: diff(&now.stable, &before.stable),
            sim_ns: diff(&now.sim_ns, &before.sim_ns),
            run_ns: diff(&now.run_ns, &before.run_ns),
        }
    }
}

struct TracedRun<'a> {
    registry: &'a Registry,
    passes: u64,
    reference: &'a [u64],
    warm: &'a SimTotals,
    kind: Kind,
}

impl TracedRun<'_> {
    /// Half the passes untraced (the overhead base), one traced warm-up
    /// pass, then half the passes traced; returns the per-layer metrics.
    fn run(
        &self,
        workload: &mut Workload,
        sampler: &mut SetupSampler,
        report: &mut String,
        problems: &mut Vec<String>,
    ) -> Result<(Vec<Metric>, u64, u64), String> {
        let half = (self.passes / 2).max(1);
        let mut off = Tracer::new(false);
        let base = run_passes(
            workload,
            half,
            false,
            &mut off,
            self.reference,
            Some(sampler),
        )?;
        base.check(self.warm, "untraced", problems);

        let probe = Probe::new(self.registry);
        run_passes(workload, 1, true, &mut off, self.reference, None)?;
        let before = probe.read();
        let mut tracer = Tracer::new(true);
        let traced = run_passes(workload, half, true, &mut tracer, self.reference, None)?;
        let delta = probe.since(&before);
        traced.check(self.warm, "traced", problems);

        // Profiling must not change behaviour: the registry's stable
        // counters equal what the untraced passes produced.
        let expected = workload.registry_expects(self.warm);
        let untraced = [
            ("canely_campaign_runs_total", expected.runs),
            ("canely_campaign_events_total", expected.events),
            ("canely_campaign_violations_total", expected.violations),
            (
                "canely_campaign_false_suspicions_total",
                expected.false_suspicions,
            ),
            (
                "canely_campaign_detector_frames_total",
                expected.detector_frames,
            ),
        ];
        for (name, per_pass) in untraced {
            let traced = delta.stable[position(&STABLE, name)];
            if traced != per_pass * half {
                problems.push(format!(
                    "traced {name} = {traced}, the untraced passes imply {}",
                    per_pass * half
                ));
            }
        }

        let metrics = self.per_layer(&base, &traced, &delta, &tracer, sampler);
        let _ = writeln!(
            report,
            "traced {} ops over {half} passes; shares are % of traced op time x {} worker(s); \
             overhead ratio = untraced / traced ops per second",
            traced.latencies.len(),
            self.kind.workers()
        );
        let ops = traced.latencies.len() as f64;
        for (name, (total, own)) in tracer.times() {
            let _ = writeln!(
                report,
                "span {name:<32} {:>10.4} ms/op total {:>10.4} ms/op self",
                total as f64 / ops / 1e6,
                own as f64 / ops / 1e6
            );
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}.jsonl", self.kind.name());
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
            Ok(()) => {
                let _ = writeln!(report, "spans written to {path}");
            }
            Err(e) => problems.push(format!("writing {path}: {e}")),
        }
        Ok((
            metrics,
            base.attempted + traced.attempted,
            base.failed + traced.failed,
        ))
    }

    fn per_layer(
        &self,
        base: &Passes,
        traced: &Passes,
        delta: &Readings,
        tracer: &Tracer,
        sampler: &SetupSampler,
    ) -> Vec<Metric> {
        let times = tracer.times();
        let total = |name: &str| times.get(name).map_or(0, |&(total, _)| total) as f64;
        let op_ns = total("op");
        let workers = self.kind.workers() as f64;
        let (stable, sim_ns, run_ns) = (&delta.stable, &delta.sim_ns, &delta.run_ns);
        let phase_ns = sim_ns.iter().chain(run_ns).sum::<u64>() as f64;
        // Spans of the single caller are shares of op time; profiler
        // phases run on every worker, so they are shares of workers ×
        // op time. Either way the shares and the residual sum to 100.
        let of_op = |ns: f64| 100.0 * ns / op_ns;
        let of_workers = |ns: f64| 100.0 * ns / (workers * op_ns);
        let (runner_idle, pump) = match self.kind {
            Kind::Matrix => (
                workers * total("canely-campaign.run_campaign") - phase_ns,
                0.0,
            ),
            Kind::FedRing => (0.0, total("canely-campaign.execute_in") - phase_ns),
            Kind::Dense | Kind::Triage => (0.0, 0.0),
        };
        let ops = traced.latencies.len() as f64;
        let count = |name: &str| stable[position(&STABLE, name)] as f64 / ops;
        let traced_allocs = traced.totals.first().map_or(0, |&(_, a)| a);
        let sim = |phase: &str| of_workers(sim_ns[position(SIM_PHASES, phase)] as f64);
        let run = |phase: &str| of_workers(run_ns[position(RUN_PHASES, phase)] as f64);

        let mut metrics = vec![
            metric(
                "can-bus.tx_per_op",
                count("canely_sim_bus_transactions_total"),
                "count",
            ),
            metric("can-bus.arbitration_share", sim("bus-arbitration"), "%"),
            metric(
                "can-controller.steps_per_op",
                count("canely_sim_steps_total"),
                "count",
            ),
            metric("can-controller.sched_share", sim("sched"), "%"),
            metric("can-controller.lifecycle_share", sim("lifecycle"), "%"),
            metric(
                "can-controller.timer_expiries_per_op",
                count("canely_sim_timer_expiries_total"),
                "count",
            ),
            metric("can-controller.timer_share", sim("timer-expiry"), "%"),
            metric(
                "core.events_per_op",
                count("canely_campaign_events_total"),
                "count",
            ),
            metric("core.dispatch_share", sim("protocol-dispatch"), "%"),
            metric(
                "core.detector_frames_per_op",
                count("canely_campaign_detector_frames_total"),
                "count",
            ),
            metric(
                "canely-campaign.spec_ms",
                percentile(&sampler.spec_ns, 50) as f64 / 1e6,
                "ms",
            ),
            metric(
                "canely-campaign.spec_share",
                of_op(total("canely-campaign.spec")),
                "%",
            ),
            metric("canely-campaign.world_setup_share", run("world-setup"), "%"),
            metric("canely-campaign.obs_emit_share", run("obs-emit"), "%"),
            metric("canely-campaign.oracle_share", run("oracle"), "%"),
            metric(
                "canely-campaign.runner_idle_share",
                of_workers(runner_idle),
                "%",
            ),
            metric(
                "canely-campaign.report_share",
                of_op(total("canely-campaign.report")),
                "%",
            ),
            metric(
                "canely-campaign.shrink_share",
                of_op(total("canely-campaign.shrink")),
                "%",
            ),
            metric("canely-federation.pump_share", of_op(pump), "%"),
            metric(
                "canely-federation.quanta_per_op",
                count("canely_fed_pump_quanta_total"),
                "count",
            ),
            metric(
                "canely-federation.relayed_per_op",
                count("canely_fed_relayed_frames_total"),
                "count",
            ),
            metric(
                "canely-federation.retry_queued_per_op",
                count("canely_fed_retry_queued_total"),
                "count",
            ),
            metric(
                "canely-trace.trace_kb_per_op",
                traced.trace_bytes as f64 / 1024.0 / ops,
                "KiB",
            ),
            metric(
                "canely-trace.parse_share",
                of_op(total("canely-trace.parse")),
                "%",
            ),
            metric(
                "canely-trace.chain_share",
                of_op(total("canely-trace.chain")),
                "%",
            ),
            metric(
                "canely-trace.phases_share",
                of_op(total("canely-trace.phases")),
                "%",
            ),
            metric(
                "alloc.per_op",
                traced_allocs as f64 / self.reference.len() as f64,
                "count",
            ),
        ];
        let accounted: f64 = metrics
            .iter()
            .filter(|m| m.unit == "%")
            .map(|m| m.value)
            .sum();
        let (untraced_rate, traced_rate) = (base.ops_per_s(), traced.ops_per_s());
        metrics.extend([
            metric("perfbench.residual_share", 100.0 - accounted, "%"),
            metric("perfbench.untraced_ops_per_s", untraced_rate, "1/s"),
            metric("perfbench.traced_ops_per_s", traced_rate, "1/s"),
            metric(
                "perfbench.trace_overhead_ratio",
                untraced_rate / traced_rate,
                "ratio",
            ),
        ]);
        metrics
    }
}
