//! The four workloads. Each one is a fixed list of ops built from the
//! seed; every op calls the public API of the campaign, federation and
//! trace crates and returns its output for checking.

use crate::spans::Tracer;
use canely_campaign::{
    execute, execute_in, run_campaign_with, shrink, CampaignOptions, CampaignSpec, RunOutcome,
    RunSpec, WorldArena,
};
use canely_metrics::Registry;
use canely_trace::{chain_for_in, suspicions, PhaseProfile, TraceModel};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Matrix,
    Dense,
    FedRing,
    Triage,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Matrix, Kind::Dense, Kind::FedRing, Kind::Triage];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Matrix => "matrix",
            Kind::Dense => "dense",
            Kind::FedRing => "fed-ring",
            Kind::Triage => "triage",
        }
    }

    /// Passes over the op list per 10 s of `--seconds`, sized so one
    /// run measures about `--seconds` on a 2-core x86-64 host while it
    /// runs at its usual speed, and about 1.3 × that while it is loaded.
    /// The work is fixed by this count, never by a clock.
    pub fn passes_per_10s(self) -> u64 {
        match self {
            Kind::Matrix => 22,
            Kind::Dense => 12,
            Kind::FedRing => 6,
            Kind::Triage => 7,
        }
    }

    /// Worker threads the op uses: only `matrix` is parallel.
    pub fn workers(self) -> usize {
        match self {
            Kind::Matrix => MATRIX_WORKERS,
            _ => 1,
        }
    }
}

/// Campaign workers in a `matrix` op (the host's 2 cores).
const MATRIX_WORKERS: usize = 2;

/// Campaigns per `matrix` pass: the same matrix at consecutive seeds,
/// so every op costs about the same and the median is not the edge
/// between two op sizes.
const MATRIX_OPS: u64 = 4;
/// Runs per `dense` and `fed-ring` pass (consecutive seeds).
const DENSE_RUNS: u64 = 12;
const FED_RUNS: u64 = 16;
/// Violating mutant runs per `triage` pass, and how far to look.
const TRIAGE_RUNS: usize = 128;
const TRIAGE_SCAN: u64 = 1024;

/// First campaign seed of a workload. Every workload's range is
/// shorter than the stride, so consecutive `--seed` values never share
/// a run; `--seed` is below 2^32, so the range cannot overflow.
fn seed_base(seed: u32) -> u64 {
    u64::from(seed) * 4096
}

fn matrix_spec(seed: u32, op: u64) -> String {
    let s = seed_base(seed) + op;
    format!(
        "name bench-matrix\nnodes 3 4 5 6 7 8\ntm 30ms\nth 5ms\nseeds {s}..{}\n\
         error-rate 0.01\ninconsistent-rate 0.005\ncrash-budget 0 1\n\
         inaccessibility 0 2ms\ndetector surveillance swim add-phi\n\
         until 300ms\nsettle 150ms\n",
        s + 1
    )
}

fn dense_spec(seed: u32) -> String {
    let s = seed_base(seed);
    format!(
        "name bench-dense\nnodes 32\ntm 30ms\nth 5ms\nseeds {s}..{}\n\
         error-rate 0.01\ncrash-budget 2\ntraffic 12ms\nuntil 600ms\nsettle 250ms\n",
        s + DENSE_RUNS
    )
}

fn fed_spec(seed: u32) -> String {
    let s = seed_base(seed);
    format!(
        "name bench-fed-ring\nnodes 16\ntm 30ms\nth 5ms\nseeds {s}..{}\n\
         crash-budget 0\nsegments 4\ngateway 0\nbridge ring\nrelay below 8\n\
         gateway-crash 1\ngateway-restart 60ms\nsegment-partition 20ms\n\
         traffic 12ms\nuntil 600ms\nsettle 250ms\n",
        s + FED_RUNS
    )
}

fn triage_spec(seed: u32) -> String {
    let s = seed_base(seed);
    format!(
        "name bench-triage\nnodes 4\nseeds {s}..{}\nerror-rate 0.01\ncrash-budget 1\n\
         inaccessibility 4ms\nuntil 300ms\nsettle 150ms\nweaken-fda\n",
        s + TRIAGE_SCAN
    )
}

/// Simulated quantities an op produced (deterministic).
#[derive(Clone, Default, PartialEq, Debug)]
pub struct SimTotals {
    pub runs: u64,
    pub events: u64,
    pub detection: Vec<u64>,
    pub view_change: Vec<u64>,
    pub false_suspicions: u64,
    pub violations: u64,
    pub detector_frames: u64,
    pub detector_busy: u64,
    /// Bus time observed: horizon × segments, summed over runs.
    pub bus_time: u64,
}

impl SimTotals {
    fn add(&mut self, spec: &RunSpec, outcome: &RunOutcome) {
        let segments = spec
            .federation
            .as_ref()
            .map_or(1, |f| u64::from(f.segments));
        self.runs += 1;
        self.events += outcome.events as u64;
        self.detection.extend_from_slice(&outcome.detection);
        self.view_change.extend_from_slice(&outcome.view_change);
        self.false_suspicions += outcome.false_suspicions;
        self.violations += outcome.violations.len() as u64;
        self.detector_frames += outcome.detector_frames;
        self.detector_busy += outcome.detector_busy;
        self.bus_time += spec.until.as_u64() * segments;
    }

    pub fn merge(&mut self, other: &SimTotals) {
        self.runs += other.runs;
        self.events += other.events;
        self.detection.extend_from_slice(&other.detection);
        self.view_change.extend_from_slice(&other.view_change);
        self.false_suspicions += other.false_suspicions;
        self.violations += other.violations;
        self.detector_frames += other.detector_frames;
        self.detector_busy += other.detector_busy;
        self.bus_time += other.bus_time;
    }
}

/// What one op returned, for checking.
pub struct OpOut {
    /// Host nanoseconds of the op's calls (checks excluded).
    pub ns: u64,
    /// The op's output check passed.
    pub ok: bool,
    /// Digest of everything the op output.
    pub digest: u64,
    /// Simulated quantities of the op's runs.
    pub sim: SimTotals,
    /// Bytes of JSONL trace the op produced.
    pub trace_bytes: u64,
}

fn digest_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn outcome_digest(outcome: &RunOutcome) -> u64 {
    let violations: Vec<String> = outcome.violations.iter().map(|v| v.to_string()).collect();
    digest_of(&(
        outcome.id,
        violations,
        outcome.events,
        &outcome.detection,
        &outcome.view_change,
        outcome.false_suspicions,
        outcome.detector_frames,
        outcome.detector_busy,
        &outcome.trace_jsonl,
    ))
}

pub struct Workload {
    kind: Kind,
    /// `matrix`: one campaign text per op.
    texts: Vec<String>,
    /// `dense`, `fed-ring`, `triage`: one run per op.
    runs: Vec<RunSpec>,
    /// The warm world the untraced `dense`/`fed-ring` ops reuse.
    arena: WorldArena,
    /// The world the traced ops reuse; its runs stream into the registry.
    traced_arena: WorldArena,
    registry: Registry,
    /// `matrix`: the 1-worker summary of each op, computed in set-up.
    reference: Vec<String>,
    /// Simulated totals computed in preparation: `matrix` runs each
    /// expanded run raw (the campaign report keeps no raw samples);
    /// `triage` runs its whole mutant matrix.
    prepared: SimTotals,
}

impl Workload {
    /// Parse + expand + the first world built: the timed set-up.
    /// Returns the workload and the nanoseconds spent in parse+expand.
    pub fn setup(kind: Kind, seed: u32) -> Result<(Workload, u64), String> {
        let start = Instant::now();
        let (texts, runs) = match kind {
            Kind::Matrix => {
                let texts: Vec<String> = (0..MATRIX_OPS).map(|op| matrix_spec(seed, op)).collect();
                let mut runs = Vec::new();
                for text in &texts {
                    runs.extend(CampaignSpec::parse(text)?.expand());
                }
                (texts, runs)
            }
            Kind::Dense => (Vec::new(), CampaignSpec::parse(&dense_spec(seed))?.expand()),
            Kind::FedRing => (Vec::new(), CampaignSpec::parse(&fed_spec(seed))?.expand()),
            Kind::Triage => (
                Vec::new(),
                CampaignSpec::parse(&triage_spec(seed))?.expand(),
            ),
        };
        let spec_ns = start.elapsed().as_nanos() as u64;
        let first = runs.first().ok_or("the workload expanded to no runs")?;
        let mut arena = WorldArena::new();
        execute_in(&mut arena, first, false);
        let workload = Workload {
            kind,
            texts,
            runs,
            arena,
            traced_arena: WorldArena::new(),
            registry: Registry::disabled(),
            reference: Vec::new(),
            prepared: SimTotals::default(),
        };
        Ok((workload, spec_ns))
    }

    /// Untimed preparation: the `matrix` 1-worker reference summaries
    /// and simulated totals, the `triage` selection of violating runs,
    /// and the traced world when tracing.
    pub fn prepare(&mut self, registry: Option<&Registry>) -> Result<(), String> {
        match self.kind {
            Kind::Matrix => {
                for text in &self.texts {
                    let spec = CampaignSpec::parse(text)?;
                    let result = run_campaign_with(&spec, &CampaignOptions::new(1));
                    self.reference.push(result.report.render());
                }
                for run in &self.runs {
                    let outcome = execute_in(&mut self.arena, run, false);
                    self.prepared.add(run, &outcome);
                }
                self.runs.clear();
            }
            Kind::Triage => {
                let mut violating = Vec::new();
                for run in &self.runs {
                    let outcome = execute(run, false);
                    self.prepared.add(run, &outcome);
                    if !outcome.violations.is_empty() && violating.len() < TRIAGE_RUNS {
                        violating.push(run.clone());
                    }
                }
                if violating.len() < TRIAGE_RUNS {
                    return Err(format!(
                        "only {} of {TRIAGE_SCAN} mutant runs violate; {TRIAGE_RUNS} needed",
                        violating.len()
                    ));
                }
                self.runs = violating;
            }
            Kind::Dense | Kind::FedRing => {}
        }
        if let Some(registry) = registry {
            self.registry = registry.clone();
            self.traced_arena = WorldArena::with_registry(registry);
        }
        Ok(())
    }

    /// Ops in one pass.
    pub fn len(&self) -> usize {
        match self.kind {
            Kind::Matrix => self.texts.len(),
            _ => self.runs.len(),
        }
    }

    /// The simulated totals the end-to-end metrics pool, given the
    /// warm-up pass: `matrix` pools its raw runs, `triage` the whole
    /// mutant matrix its op list is drawn from, the others the pass
    /// itself.
    pub fn pooled(&self, warm: &SimTotals) -> SimTotals {
        match self.kind {
            Kind::Matrix | Kind::Triage => self.prepared.clone(),
            Kind::Dense | Kind::FedRing => warm.clone(),
        }
    }

    /// What the registry must count per traced pass: the campaign
    /// workers' runs for `matrix`, the ops' own runs otherwise (the
    /// shrinker's internal runs are untraced).
    pub fn registry_expects<'a>(&'a self, warm: &'a SimTotals) -> &'a SimTotals {
        match self.kind {
            Kind::Matrix => &self.prepared,
            _ => warm,
        }
    }

    /// Runs op `i`; `traced` routes it through the registry-backed
    /// world and records spans into `tracer`.
    pub fn run_op(&mut self, i: usize, traced: bool, tracer: &mut Tracer) -> OpOut {
        match self.kind {
            Kind::Matrix => self.matrix_op(i, traced, tracer),
            Kind::Dense | Kind::FedRing => self.world_op(i, traced, tracer),
            Kind::Triage => self.triage_op(i, traced, tracer),
        }
    }

    fn matrix_op(&mut self, i: usize, traced: bool, tracer: &mut Tracer) -> OpOut {
        let options = CampaignOptions {
            workers: MATRIX_WORKERS,
            registry: if traced {
                self.registry.clone()
            } else {
                Registry::disabled()
            },
            progress: None,
        };
        let start = Instant::now();
        let op = tracer.begin("op");
        let span = tracer.begin("canely-campaign.spec");
        let parsed = CampaignSpec::parse(&self.texts[i]).map(|spec| {
            let expanded = spec.expand();
            (spec, expanded)
        });
        tracer.end(span);
        let Ok((spec, expanded)) = parsed else {
            tracer.end(op);
            return failed_op(start);
        };
        let span = tracer.begin("canely-campaign.run_campaign");
        let result = run_campaign_with(&spec, &options);
        tracer.end(span);
        let span = tracer.begin("canely-campaign.report");
        let summary = result.report.render();
        tracer.end(span);
        tracer.end(op);
        let ns = start.elapsed().as_nanos() as u64;

        let ok = result.report.clean()
            && result.report.runs == expanded.len()
            && summary == self.reference[i];
        let sim = SimTotals {
            runs: result.report.runs as u64,
            events: result.report.events,
            violations: result.report.violating.len() as u64,
            ..SimTotals::default()
        };
        OpOut {
            ns,
            ok,
            digest: digest_of(&summary),
            sim,
            trace_bytes: 0,
        }
    }

    fn world_op(&mut self, i: usize, traced: bool, tracer: &mut Tracer) -> OpOut {
        let arena = if traced {
            &mut self.traced_arena
        } else {
            &mut self.arena
        };
        let run = &self.runs[i];
        let start = Instant::now();
        let op = tracer.begin("op");
        let span = tracer.begin("canely-campaign.execute_in");
        let outcome = execute_in(arena, run, false);
        tracer.end(span);
        tracer.end(op);
        let ns = start.elapsed().as_nanos() as u64;

        let mut sim = SimTotals::default();
        sim.add(run, &outcome);
        OpOut {
            ns,
            ok: outcome.violations.is_empty(),
            digest: outcome_digest(&outcome),
            sim,
            trace_bytes: 0,
        }
    }

    fn triage_op(&mut self, i: usize, traced: bool, tracer: &mut Tracer) -> OpOut {
        let run = &self.runs[i];
        let start = Instant::now();
        let op = tracer.begin("op");
        let span = tracer.begin("canely-campaign.shrink");
        let minimal = shrink::minimize(run);
        tracer.end(span);
        let span = tracer.begin("canely-campaign.execute");
        let outcome = if traced {
            execute_in(
                &mut WorldArena::with_registry(&self.registry),
                &minimal,
                true,
            )
        } else {
            execute(&minimal, true)
        };
        tracer.end(span);
        let trace = outcome.trace_jsonl.as_deref().unwrap_or("");
        let span = tracer.begin("canely-trace.parse");
        let model = TraceModel::parse(trace);
        tracer.end(span);
        let Ok(model) = model else {
            tracer.end(op);
            return failed_op(start);
        };
        let span = tracer.begin("canely-trace.chain");
        let chains: Vec<Option<usize>> = suspicions(&model)
            .into_iter()
            .map(|(seg, suspect, observer, _)| {
                chain_for_in(&model, seg, suspect, Some(observer)).map(|c| c.steps.len())
            })
            .collect();
        tracer.end(span);
        let span = tracer.begin("canely-trace.phases");
        let profile = PhaseProfile::of(&model);
        tracer.end(span);
        tracer.end(op);
        let ns = start.elapsed().as_nanos() as u64;

        let ok = !outcome.violations.is_empty()
            && chains.iter().all(|steps| steps.is_some_and(|n| n > 0));
        let phases: Vec<(&str, u64, u64)> = profile
            .summaries()
            .into_iter()
            .map(|(name, s)| (name, s.count as u64, s.max))
            .collect();
        let mut sim = SimTotals::default();
        sim.add(&minimal, &outcome);
        OpOut {
            ns,
            ok,
            digest: digest_of(&(
                minimal.to_scenario(),
                outcome_digest(&outcome),
                chains,
                phases,
            )),
            sim,
            trace_bytes: trace.len() as u64,
        }
    }
}

fn failed_op(start: Instant) -> OpOut {
    OpOut {
        ns: start.elapsed().as_nanos() as u64,
        ok: false,
        digest: 0,
        sim: SimTotals::default(),
        trace_bytes: 0,
    }
}
