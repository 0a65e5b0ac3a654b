//! The `.canely` scenario language: one parser and one document type
//! behind every consumer — `canelyctl run`, `tq --scenario`,
//! `campaign replay` and the counterexample round-trip.
//!
//! ```text
//! # factory cell with a failing sensor and a hot spare
//! nodes 7
//! tm 30ms
//! th 5ms
//! traffic 0 2ms      # node 0: 2 ms cyclic traffic
//! traffic 1 5ms
//! crash 2 400ms
//! join 9 600ms
//! leave 6 700ms
//! restart 2 900ms
//! until 1200ms
//! expect-view {0,1,3,4,5,9}
//! ```
//!
//! Lines are `keyword args…`; `#` starts a comment. Every diagnostic
//! is anchored as `line N: …` (see [`locate`] for the `file:N:` form).
//! The full grammar is tabulated in `docs/CAMPAIGN_SPEC.md`.
//!
//! A [`Scenario`] describes one concrete world. The CLI builds a
//! single-bus simulator from it directly; [`Scenario::to_run_spec`]
//! projects it onto the campaign's [`RunSpec`], rejecting what the
//! invariant oracle cannot model.

use crate::spec::{FederationSpec, RunSpec};
use can_types::{BitTime, NodeId, NodeSet, MAX_NODES};
use canely::tags::MAX_SEGMENTS;
use canely::{CanelyConfig, DetectorKind};
use canely_federation::{BridgeKind, RelayFilter};

/// Parses `30ms` / `2500us` / raw bit-times (1 µs = 1 bit-time at the
/// simulated 1 Mbps). The one duration grammar of `.canely`,
/// `.campaign` and the CLI flags: `None` for anything else, including
/// a value that overflows 64 bits.
pub fn parse_duration(word: &str) -> Option<BitTime> {
    let (digits, scale) = match word.strip_suffix("ms") {
        Some(d) => (d, 1_000),
        None => (word.strip_suffix("us").unwrap_or(word), 1),
    };
    digits
        .parse::<u64>()
        .ok()?
        .checked_mul(scale)
        .map(BitTime::new)
}

/// The `keyword args…` lines of a `.canely` or `.campaign` document:
/// `(line number, keyword, arguments)`, with comments and blank lines
/// dropped.
pub(crate) fn lines(text: &str) -> impl Iterator<Item = (usize, &str, Vec<&str>)> {
    text.lines().enumerate().filter_map(|(idx, raw)| {
        let mut words = raw.split('#').next().unwrap_or("").split_whitespace();
        let keyword = words.next()?;
        Some((idx + 1, keyword, words.collect()))
    })
}

pub(crate) fn err<T>(line: usize, msg: impl std::fmt::Display) -> Result<T, String> {
    Err(format!("line {line}: {msg}"))
}

/// Prefixes a parse diagnostic with the source file's name, turning
/// `line 12: bad duration` into `smoke.campaign:12: bad duration` (the
/// `file:line:` shape editors and CI annotate). Diagnostics without a
/// line anchor get a plain `name: ` prefix.
pub fn locate(name: &str, diagnostic: String) -> String {
    if let Some((line, msg)) = diagnostic
        .strip_prefix("line ")
        .and_then(|rest| rest.split_once(": "))
    {
        if !line.is_empty() && line.bytes().all(|b| b.is_ascii_digit()) {
            return format!("{name}:{line}: {msg}");
        }
    }
    format!("{name}: {diagnostic}")
}

pub(crate) fn parse_relay(rest: &[&str]) -> Option<RelayFilter> {
    match rest {
        ["none"] => Some(RelayFilter::none()),
        ["all"] => Some(RelayFilter::pass_through()),
        ["below", bound] => bound.parse().ok().map(RelayFilter::app_below),
        _ => None,
    }
}

/// One scheduled per-node action: `node` acts at `at`, as written on
/// source line `line` (0 when filled from command-line flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled {
    /// The node concerned.
    pub node: u8,
    /// The instant (or, for `traffic`, the period).
    pub at: BitTime,
    /// Source line, for diagnostics.
    pub line: usize,
}

/// A parsed `.canely` document: one concrete world. Fields a document
/// leaves unset keep the [`Default`] values, except `until`, whose
/// default differs per consumer (600 ms for `run`, 300 ms for
/// `campaign replay`).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Population booted at `t = 0` (nodes `0..nodes`, minus joiners).
    pub nodes: u8,
    /// Membership cycle period `Tm`.
    pub tm: BitTime,
    /// Heartbeat period `Th`.
    pub th: BitTime,
    /// Run horizon.
    pub until: Option<BitTime>,
    /// Fault-injector seed.
    pub seed: u64,
    /// Consistent omission probability per transmission.
    pub error_rate: f64,
    /// Inconsistent omission probability per transmission.
    pub inconsistent_rate: f64,
    /// MCAN3 omission degree bound `k`.
    pub omission_degree: u32,
    /// LCAN4 inconsistent omission degree bound `j`.
    pub inconsistent_degree: u32,
    /// Run against the weakened failure-detection mutant.
    pub weaken_fda: bool,
    /// Failure-detector backend.
    pub detector: DetectorKind,
    /// Cyclic traffic: `at` is the node's period.
    pub traffic: Vec<Scheduled>,
    /// Fail-silent crashes.
    pub crashes: Vec<Scheduled>,
    /// Late joiners (powered on at `at` instead of at boot).
    pub joins: Vec<Scheduled>,
    /// Voluntary leaves.
    pub leaves: Vec<Scheduled>,
    /// Power-cycles.
    pub restarts: Vec<Scheduled>,
    /// Bus inaccessibility windows `[from, until)`.
    pub inaccessibility: Vec<(BitTime, BitTime)>,
    /// The view every alive participant must hold at the horizon.
    pub expect_view: Option<NodeSet>,
    /// Oracle quiescence margin.
    pub settle: BitTime,
    /// Oracle slack on the latency bounds.
    pub latency_slack: BitTime,
    /// Oracle slack on the federation rejoin bound.
    pub rejoin_slack: BitTime,
    /// Bridged segments and their fault schedule (`segments` > 1).
    pub federation: Option<FederationSpec>,
    /// Lines of `nodes` and of the last `tm`/`th`, for diagnostics.
    nodes_line: usize,
    config_line: usize,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            nodes: 4,
            tm: BitTime::new(30_000),
            th: BitTime::new(5_000),
            until: None,
            seed: 0,
            error_rate: 0.0,
            inconsistent_rate: 0.0,
            omission_degree: 16,
            inconsistent_degree: 2,
            weaken_fda: false,
            detector: DetectorKind::Surveillance,
            traffic: Vec::new(),
            crashes: Vec::new(),
            joins: Vec::new(),
            leaves: Vec::new(),
            restarts: Vec::new(),
            inaccessibility: Vec::new(),
            expect_view: None,
            settle: BitTime::new(150_000),
            latency_slack: BitTime::new(4_000),
            rejoin_slack: BitTime::new(30_000),
            federation: None,
            nodes_line: 0,
            config_line: 0,
        }
    }
}

impl Scenario {
    /// Parses a `.canely` document.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic starting `line N:` that names the
    /// offending line.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        let mut doc = Scenario::default();
        // Federation lines, checked once the segment count is known.
        let (mut segments, mut segments_line) = (1u8, 0);
        let (mut gateway, mut gateway_line) = (0u8, 0);
        let mut topology = BridgeKind::Ring;
        let mut relay = RelayFilter::none();
        let mut seg_crashes = Vec::new();
        let mut gateway_crashes = Vec::new();
        let mut gateway_restarts = Vec::new();
        let mut partitions = Vec::new();
        let mut asymmetric = Vec::new();
        for (line, keyword, rest) in lines(text) {
            let bad = |what: &str| format!("line {line}: {what}");
            let arity = |n: usize, shape: &str| {
                if rest.len() == n {
                    Ok(())
                } else {
                    err(line, format_args!("expected `{shape}`"))
                }
            };
            let duration = |w: &str| parse_duration(w).ok_or_else(|| bad("bad duration"));
            let first_duration = || duration(rest.first().copied().unwrap_or(""));
            let first = |what: &str| rest.first().copied().ok_or_else(|| bad(what));
            let node = |w: &str| match w.parse::<u8>() {
                Err(_) => Err(bad("bad node id")),
                Ok(n) if usize::from(n) >= MAX_NODES => Err(bad("node id out of range")),
                Ok(n) => Ok(n),
            };
            let seg = |w: &str| w.parse::<u8>().map_err(|_| bad("bad segment index"));
            let window = |from: &str, until: &str, what: &str| {
                let (from, until) = (duration(from)?, duration(until)?);
                if until <= from {
                    return err(line, format_args!("empty {what} window"));
                }
                Ok((from, until))
            };
            let scheduled = || -> Result<Scheduled, String> {
                arity(2, "<node> <time>")?;
                Ok(Scheduled {
                    node: node(rest[0])?,
                    at: duration(rest[1])?,
                    line,
                })
            };
            let seg_time = || -> Result<((u8, BitTime), usize), String> {
                arity(2, "<segment> <time>")?;
                Ok(((seg(rest[0])?, duration(rest[1])?), line))
            };
            let probability = || {
                first("bad probability")?
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| bad("bad probability"))
            };
            let degree = || first("bad degree")?.parse().map_err(|_| bad("bad degree"));
            match keyword {
                "nodes" => {
                    let n: usize = first("bad node count")?
                        .parse()
                        .map_err(|_| bad("bad node count"))?;
                    if n == 0 || n > MAX_NODES {
                        return err(line, "node count out of range");
                    }
                    doc.nodes = n as u8;
                    doc.nodes_line = line;
                }
                "tm" => (doc.tm, doc.config_line) = (first_duration()?, line),
                "th" => (doc.th, doc.config_line) = (first_duration()?, line),
                "until" => doc.until = Some(first_duration()?),
                "settle" => doc.settle = first_duration()?,
                "latency-slack" => doc.latency_slack = first_duration()?,
                "rejoin-slack" => doc.rejoin_slack = first_duration()?,
                "seed" => doc.seed = first("bad seed")?.parse().map_err(|_| bad("bad seed"))?,
                "error-rate" => doc.error_rate = probability()?,
                "inconsistent-rate" => doc.inconsistent_rate = probability()?,
                "omission-degree" => doc.omission_degree = degree()?,
                "inconsistent-degree" => doc.inconsistent_degree = degree()?,
                "weaken-fda" => doc.weaken_fda = true,
                "detector" => {
                    doc.detector = rest
                        .first()
                        .and_then(|w| DetectorKind::from_key(w))
                        .ok_or_else(|| {
                            bad("unknown detector backend (surveillance, swim or add-phi)")
                        })?;
                }
                "traffic" => {
                    let traffic = scheduled()?;
                    if traffic.at.is_zero() {
                        return err(line, "traffic period must be positive");
                    }
                    doc.traffic.push(traffic);
                }
                "crash" => doc.crashes.push(scheduled()?),
                "join" => doc.joins.push(scheduled()?),
                "leave" => doc.leaves.push(scheduled()?),
                "restart" => doc.restarts.push(scheduled()?),
                "inaccessible" => {
                    arity(2, "<from> <until>")?;
                    doc.inaccessibility
                        .push(window(rest[0], rest[1], "inaccessibility")?);
                }
                "expect-view" => {
                    let spec = rest.concat();
                    let inner = spec
                        .strip_prefix('{')
                        .and_then(|s| s.strip_suffix('}'))
                        .ok_or_else(|| bad("expected {ids,…}"))?;
                    let mut view = NodeSet::EMPTY;
                    for part in inner.split(',').filter(|p| !p.is_empty()) {
                        if part.parse::<u8>().is_err() {
                            return err(line, format_args!("bad node id `{part}`"));
                        }
                        view.insert(NodeId::new(node(part)?));
                    }
                    doc.expect_view = Some(view);
                }
                "segments" => {
                    segments = first("bad segment count")?
                        .parse::<u8>()
                        .ok()
                        .filter(|&k| k >= 1 && usize::from(k) <= MAX_SEGMENTS)
                        .ok_or_else(|| bad("bad segment count"))?;
                    segments_line = line;
                }
                "gateway" => {
                    gateway = first("bad gateway node id")?
                        .parse()
                        .map_err(|_| bad("bad gateway node id"))?;
                    gateway_line = line;
                }
                "bridge" => {
                    topology = rest
                        .first()
                        .and_then(|w| BridgeKind::from_key(w))
                        .ok_or_else(|| {
                            bad("unknown bridge topology (expected line/ring/star/full)")
                        })?;
                }
                "relay" => {
                    relay = parse_relay(&rest).ok_or_else(|| {
                        bad("bad relay filter (expected `none`, `all` or `below <ref>`)")
                    })?;
                }
                "seg-crash" => {
                    arity(3, "<segment> <node> <time>")?;
                    let crash = (seg(rest[0])?, node(rest[1])?, duration(rest[2])?);
                    seg_crashes.push((crash, line));
                }
                "gateway-crash" => gateway_crashes.push(seg_time()?),
                "gateway-restart" => gateway_restarts.push(seg_time()?),
                "segment-partition" => {
                    arity(2, "<from> <until>")?;
                    partitions.push((window(rest[0], rest[1], "partition")?, line));
                }
                "asymmetric" => {
                    arity(4, "<from_seg> <to_seg> <from> <until>")?;
                    let (from, until) = window(rest[2], rest[3], "asymmetric")?;
                    asymmetric.push(((seg(rest[0])?, seg(rest[1])?, from, until), line));
                }
                other => return err(line, format_args!("unknown keyword `{other}`")),
            }
        }
        doc.validate()
            .or_else(|(line, e)| err(line, e))?;
        let fed_line = [
            seg_crashes.first().map(|f| f.1),
            gateway_crashes.first().map(|f| f.1),
            gateway_restarts.first().map(|f| f.1),
            partitions.first().map(|f| f.1),
            asymmetric.first().map(|f| f.1),
        ]
        .into_iter()
        .flatten()
        .min();
        if segments == 1 {
            if let Some(line) = fed_line {
                return err(
                    line,
                    "federation fault lines need a `segments` line with a value > 1",
                );
            }
            return Ok(doc);
        }
        if doc.nodes > 32 {
            return err(
                segments_line,
                format_args!(
                    "federated segment populations cap at 32 nodes, got {}",
                    doc.nodes
                ),
            );
        }
        if gateway >= doc.nodes {
            return err(
                gateway_line,
                format_args!(
                    "gateway node {gateway} outside a {}-node segment",
                    doc.nodes
                ),
            );
        }
        for &((seg, node, _), line) in &seg_crashes {
            if seg == 0 || seg >= segments {
                return err(
                    line,
                    format_args!(
                        "seg-crash segment {seg} outside 1..{segments} \
                         (segment-0 crashes use plain `crash` lines)"
                    ),
                );
            }
            if node >= doc.nodes || node == gateway {
                return err(line, format_args!("seg-crash victim {node} invalid"));
            }
        }
        for &((seg, _), line) in &gateway_crashes {
            if seg >= segments {
                return err(
                    line,
                    format_args!("gateway-crash segment {seg} outside population"),
                );
            }
        }
        for &((seg, at), line) in &gateway_restarts {
            if seg >= segments {
                return err(
                    line,
                    format_args!("gateway-restart segment {seg} outside population"),
                );
            }
            if !gateway_crashes
                .iter()
                .any(|&((s, tc), _)| s == seg && tc < at)
            {
                return err(
                    line,
                    format_args!(
                        "gateway-restart of segment {seg} has no earlier \
                         gateway-crash to restart from"
                    ),
                );
            }
        }
        let bridged = topology.bridges(segments);
        for &((from_seg, to_seg, ..), line) in &asymmetric {
            let key = (from_seg.min(to_seg), from_seg.max(to_seg));
            if from_seg == to_seg || !bridged.contains(&key) {
                return err(
                    line,
                    format_args!("asymmetric window names unbridged segments {from_seg} {to_seg}"),
                );
            }
        }
        if let Some(crash) = doc.crashes.iter().find(|c| c.node == gateway) {
            return err(
                crash.line,
                format_args!(
                    "crash victim {} is the gateway (use `gateway-crash 0 <time>` instead)",
                    crash.node
                ),
            );
        }
        fn strip<T>(lines: Vec<(T, usize)>) -> Vec<T> {
            lines.into_iter().map(|(entry, _)| entry).collect()
        }
        doc.federation = Some(FederationSpec {
            segments,
            gateway,
            topology,
            relay,
            seg_crashes: strip(seg_crashes),
            gateway_crashes: strip(gateway_crashes),
            gateway_restarts: strip(gateway_restarts),
            partitions: strip(partitions),
            asymmetric: strip(asymmetric),
        });
        Ok(doc)
    }

    /// Checks that the world can be built: a consistent stack
    /// configuration, no node joining twice, and no restart of a node
    /// that never boots or joins.
    ///
    /// # Errors
    ///
    /// Returns the offending source line (0 for values that came from
    /// command-line flags) and the diagnostic.
    pub fn validate(&self) -> Result<(), (usize, String)> {
        self.config().map_err(|e| (self.config_line, e))?;
        let mut booted: Vec<u8> = (0..self.nodes).collect();
        for join in &self.joins {
            if booted[usize::from(self.nodes)..].contains(&join.node) {
                return Err((join.line, format!("node {} joins twice", join.node)));
            }
            booted.push(join.node);
        }
        match self.restarts.iter().find(|r| !booted.contains(&r.node)) {
            Some(r) => Err((
                r.line,
                format!("restart of node {}, which never boots or joins", r.node),
            )),
            None => Ok(()),
        }
    }

    /// The stack configuration of every node: the defaults overridden
    /// by `tm`, `th`, `inconsistent-degree`, `detector` and
    /// `weaken-fda`, with `join_wait = 2·Tm + 10 ms`.
    ///
    /// # Errors
    ///
    /// Returns `invalid configuration: …` when the periods are
    /// inconsistent.
    pub fn config(&self) -> Result<CanelyConfig, String> {
        let mut config = CanelyConfig::default()
            .with_membership_cycle(self.tm)
            .with_heartbeat_period(self.th)
            .with_inconsistent_degree(self.inconsistent_degree)
            .with_detector(self.detector);
        config.join_wait = self
            .tm
            .as_u64()
            .checked_mul(2)
            .and_then(|t| t.checked_add(10_000))
            .map(BitTime::new)
            .ok_or("invalid configuration: membership cycle (Tm) out of range")?;
        if self.weaken_fda {
            config = config.with_weakened_fda();
        }
        config
            .validate()
            .map_err(|e| format!("invalid configuration: {e}"))?;
        Ok(config)
    }

    /// Projects the document onto the campaign's run model, the world
    /// `campaign replay` executes and judges.
    ///
    /// # Errors
    ///
    /// Rejects, with a `line N:` diagnostic, what the invariant oracle
    /// cannot model: fewer than two nodes, `join`/`leave`/`restart`
    /// schedules, crash victims outside the population, and traffic
    /// other than one period on every node (or none at all).
    pub fn to_run_spec(&self) -> Result<RunSpec, String> {
        if self.nodes < 2 {
            return err(self.nodes_line, "bad node count");
        }
        let unmodelled = [
            ("join", &self.joins),
            ("leave", &self.leaves),
            ("restart", &self.restarts),
        ]
        .into_iter()
        .filter_map(|(keyword, list)| list.first().map(|s| (s.line, keyword)))
        .min();
        if let Some((line, keyword)) = unmodelled {
            return err(
                line,
                format_args!("`{keyword}` schedules have no campaign-oracle model"),
            );
        }
        if let Some(crash) = self.crashes.iter().find(|c| c.node >= self.nodes) {
            return err(
                crash.line,
                format_args!("crash victim {} outside population", crash.node),
            );
        }
        let traffic = match self.traffic.first() {
            None => None,
            Some(first) => {
                for t in &self.traffic {
                    if t.node >= self.nodes {
                        return err(
                            t.line,
                            format_args!("traffic node {} outside population", t.node),
                        );
                    }
                    if t.at != first.at {
                        return err(
                            t.line,
                            format_args!(
                                "traffic period differs from line {}: campaign replay \
                                 drives every node with one period",
                                first.line
                            ),
                        );
                    }
                }
                if let Some(id) =
                    (0..self.nodes).find(|&id| self.traffic.iter().all(|t| t.node != id))
                {
                    return err(
                        first.line,
                        format_args!(
                            "no traffic line for node {id}: campaign replay drives \
                             every node with one period"
                        ),
                    );
                }
                Some(first.at)
            }
        };
        Ok(RunSpec {
            id: 0,
            detector: self.detector,
            nodes: self.nodes,
            tm: self.tm,
            th: self.th,
            until: self.until.unwrap_or(BitTime::new(300_000)),
            settle: self.settle,
            seed: self.seed,
            consistent_rate: self.error_rate,
            inconsistent_rate: self.inconsistent_rate,
            omission_degree: self.omission_degree,
            inconsistent_degree: self.inconsistent_degree,
            traffic,
            crashes: self.crashes.iter().map(|c| (c.node, c.at)).collect(),
            inaccessibility: self.inaccessibility.clone(),
            weaken_fda: self.weaken_fda,
            latency_slack: self.latency_slack,
            rejoin_slack: self.rejoin_slack,
            federation: self.federation.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_blank_lines_ignored() {
        let scenario = Scenario::parse("\n# only comments\n\nnodes 3 # trailing\n").unwrap();
        assert_eq!(scenario.nodes, 3);
    }

    #[test]
    fn diagnostics_name_the_line() {
        for (text, needle) in [
            ("nodes zero", "line 1"),
            ("nodes 3\ncrash 99 10ms", "line 2"),
            ("frobnicate 1", "unknown keyword"),
            ("crash 1", "expected"),
            ("expect-view 0,1", "expected {"),
            ("error-rate 7", "probability"),
            ("detector frobnicate", "unknown detector"),
            ("traffic 0 0ms", "must be positive"),
        ] {
            let err = Scenario::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn empty_inaccessibility_window_is_rejected() {
        let err = Scenario::parse("inaccessible 20ms 10ms").unwrap_err();
        assert!(err.contains("empty"), "{err}");
    }

    #[test]
    fn durations_are_checked() {
        assert_eq!(parse_duration("30ms"), Some(BitTime::new(30_000)));
        assert_eq!(parse_duration("2500us"), Some(BitTime::new(2_500)));
        assert_eq!(parse_duration("1234"), Some(BitTime::new(1_234)));
        assert_eq!(parse_duration("3.5ms"), None);
        assert_eq!(parse_duration("-1ms"), None);
        assert_eq!(parse_duration("99999999999999999ms"), None);
        assert_eq!(
            parse_duration("18446744073709551615us"),
            Some(BitTime::new(u64::MAX))
        );
        let e = Scenario::parse("nodes 4\nuntil 99999999999999999ms\n").unwrap_err();
        assert_eq!(e, "line 2: bad duration");
    }

    #[test]
    fn restarts_and_joins_name_a_real_node() {
        let e = Scenario::parse("nodes 4\nrestart 10 100ms\n").unwrap_err();
        assert_eq!(e, "line 2: restart of node 10, which never boots or joins");
        let e = Scenario::parse("nodes 4\njoin 3 10ms\njoin 3 20ms\n").unwrap_err();
        assert_eq!(e, "line 3: node 3 joins twice");
        assert!(Scenario::parse("nodes 4\njoin 9 10ms\nrestart 9 50ms\n").is_ok());
    }

    #[test]
    fn single_segment_federation_lines_describe_a_plain_world() {
        for text in [
            "nodes 4\nsegments 1\nuntil 300ms",
            "bridge ring",
            "gateway 7\nrelay all",
        ] {
            let doc = Scenario::parse(text).unwrap();
            assert!(doc.federation.is_none(), "{text}");
        }
        let e = Scenario::parse("nodes 4\nsegments 1\ngateway-crash 0 100ms").unwrap_err();
        assert!(e.starts_with("line 3: federation fault lines"), "{e}");
    }

    #[test]
    fn projection_requires_one_period_on_every_node() {
        let e = Scenario::parse("traffic 0 2ms")
            .unwrap()
            .to_run_spec()
            .unwrap_err();
        assert_eq!(
            e,
            "line 1: no traffic line for node 1: campaign replay drives every node with one period"
        );
        let e = Scenario::parse("nodes 2\ntraffic 0 2ms\ntraffic 1 4ms")
            .unwrap()
            .to_run_spec()
            .unwrap_err();
        assert!(
            e.starts_with("line 3: traffic period differs from line 2"),
            "{e}"
        );
        let run = Scenario::parse("nodes 2\ntraffic 1 2ms\ntraffic 0 2ms")
            .unwrap()
            .to_run_spec()
            .unwrap();
        assert_eq!(run.traffic, Some(BitTime::new(2_000)));
        let e = Scenario::parse("nodes 4\ncrash 7 100ms")
            .unwrap()
            .to_run_spec()
            .unwrap_err();
        assert_eq!(e, "line 2: crash victim 7 outside population");
        let e = Scenario::parse("nodes 4\nleave 1 10ms\njoin 9 5ms")
            .unwrap()
            .to_run_spec()
            .unwrap_err();
        assert_eq!(e, "line 2: `leave` schedules have no campaign-oracle model");
    }
}
