//! Test runners: execute one case configuration across delays ×
//! repetitions with a fresh simulation per run (the paper's container
//! reset), and analyze captures into samples.
//!
//! Each case has one single-run entry point — [`run_cad`], [`run_rd`],
//! [`run_selection`], [`run_resolver`] — and [`sweep`] runs one over a
//! case's `(delay, rep)` grid. Given a trace label, a run also emits a
//! structured [`Trace`]: the client-side engine events merged with the
//! server-side query arrivals, ready for `lazyeye-infer`. The trace
//! (string-heavy event records) is only built when asked for: campaign
//! sweeps make hundreds of thousands of untraced runs.

use lazyeye_authns::{AuthServer, DelayTarget, QueryLogEntry};
use lazyeye_clients::{Client, ClientProfile};
use lazyeye_core::HeLog;
use lazyeye_dns::{Name, RrType};
use lazyeye_net::{Family, Netem, NetemRule};
use lazyeye_resolver::{RecursiveConfig, RecursiveResolver, ResolverProfile};
use lazyeye_sim::SimTime;
use lazyeye_trace::{Trace, TraceEvent, TraceEventKind, TraceMeta};

use crate::cases::{
    CadCaseConfig, DelayedRecord, RdCaseConfig, ResolverCaseConfig, SelectionCaseConfig, SweepSpec,
};
use crate::topology::{
    default_local_topology, resolver_addr, resolver_topology_for_delay, test_domain_topology, www,
};

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Domain-separation tag for CAD sweep seeds.
pub const CAD_SEED_TAG: u64 = 0x9E37_79B9_7F4A_7C15;
/// Domain-separation tag for RD sweep seeds.
pub const RD_SEED_TAG: u64 = 0x2545_F491_4F6C_DD1D;
/// Domain-separation tag for resolver sweep seeds.
pub const RESOLVER_SEED_TAG: u64 = 0xDA94_2042_E4DD_58B5;

/// Derives the seed of one `(delay, rep)` run in a sweep from the case
/// seed via SplitMix64 mixing.
///
/// The legacy packing `delay_ms * 1000 + rep` overflow-panicked in debug
/// builds for delays near `u64::MAX` and collided across `(delay, rep)`
/// pairs once repetitions reached 1000 (`(0 ms, rep 1000)` = `(1 ms,
/// rep 0)`). Mixing each word through SplitMix64 with wrapping arithmetic
/// only removes both failure modes.
pub fn derive_case_seed(seed: u64, case_tag: u64, delay_ms: u64, rep: u32) -> u64 {
    rand::mix_words(seed ^ case_tag, &[delay_ms, u64::from(rep)])
}

/// Median of an ascending-sorted slice, averaging the two middle elements
/// for even sizes. Taking `v[len / 2]` alone — the upper-middle element —
/// biased even-sized medians upward by up to one inter-sample gap.
fn median_of_sorted(v: &[f64]) -> Option<f64> {
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Server-side query arrivals as trace events (the wire-order vantage
/// point of Table 2's "AAAA first" and Table 3's family columns).
fn query_arrival_events(log: &[QueryLogEntry]) -> Vec<TraceEvent> {
    log.iter()
        .map(|e| TraceEvent {
            at_ns: e.time.as_nanos(),
            kind: TraceEventKind::QueryArrived {
                qtype: format!("{:?}", e.qtype).to_uppercase(),
                family: Family::of(e.src.ip()),
            },
        })
        .collect()
}

/// A client run's trace, built only when its label `condition` is given:
/// the engine log's events under the run's metadata, merged with the
/// query arrivals at the authoritative server.
fn client_trace(
    case: &str,
    profile: &ClientProfile,
    condition: Option<&str>,
    (delay_ms, rep, seed): (u64, u32, u64),
    log: &HeLog,
    auth: &AuthServer,
) -> Option<Trace> {
    condition.map(|condition| {
        let meta = TraceMeta {
            subject: profile.id(),
            case: case.to_string(),
            condition: condition.to_string(),
            configured_delay_ms: delay_ms,
            rep,
            seed,
        };
        let mut trace = Trace::from_he_log(meta, log);
        trace.merge_events(query_arrival_events(&auth.query_log()));
        trace
    })
}

/// Whether the AAAA query reached the DNS server before the A query
/// (Table 2's "AAAA first"); `None` when either never arrived.
pub(crate) fn aaaa_before_a(log: &[QueryLogEntry]) -> Option<bool> {
    let first = |qtype: RrType| log.iter().position(|e| e.qtype == qtype);
    Some(first(RrType::Aaaa)? < first(RrType::A)?)
}

/// The open switchover bracket `(last_v6, first_v4)` of a sweep, when the
/// sweep detected one: the switchover lies strictly between the largest
/// delay won by IPv6 and the smallest delay at which IPv4 was used. The
/// campaign engine's second, fine pass sweeps inside this bracket.
pub fn switchover_bracket(
    last_v6_delay_ms: Option<u64>,
    first_v4_delay_ms: Option<u64>,
) -> Option<(u64, u64)> {
    match (last_v6_delay_ms, first_v4_delay_ms) {
        (Some(lo), Some(hi)) if lo < hi => Some((lo, hi)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// CAD case
// ---------------------------------------------------------------------------

/// One CAD measurement run.
#[derive(Clone, Debug, PartialEq)]
pub struct CadSample {
    /// Configured IPv6 delay (ms).
    pub configured_delay_ms: u64,
    /// Repetition index.
    pub rep: u32,
    /// Family of the established connection (None = failed).
    pub family: Option<Family>,
    /// CAD from the client's packet capture: first IPv4 SYN − first IPv6
    /// SYN (the paper's §4.3 estimator). None when no fallback happened.
    pub observed_cad_ms: Option<f64>,
    /// Whether the AAAA query hit the DNS server before the A query
    /// (Table 2's "AAAA first"); `None` when either query never arrived.
    pub aaaa_first: Option<bool>,
}

lazyeye_json::impl_json_struct!(CadSample {
    configured_delay_ms,
    rep,
    family,
    observed_cad_ms,
    aaaa_first,
});

/// Runs a single CAD measurement: one fresh simulation (the paper's
/// container reset), one configured IPv6 delay, one connection. Extra
/// netem rules model additional path conditions (loss, jitter) and apply
/// to the server egress alongside the configured IPv6 delay.
///
/// `trace` labels the netem condition in the trace metadata; the trace is
/// built only when it is given. The raw engine event log is returned too:
/// the fast-path calibrator's ground truth for byte-equality checks.
pub fn run_cad(
    profile: &ClientProfile,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    trace: Option<&str>,
) -> (CadSample, Option<Trace>, HeLog) {
    let mut topo = default_local_topology(seed);
    // The paper shapes IPv6 on the server side with tc-netem.
    topo.server
        .add_egress(NetemRule::family(Family::V6, Netem::delay_ms(delay_ms)));
    for rule in extra_netem {
        topo.server.add_egress(rule.clone());
    }
    let client = Client::new(profile.clone(), topo.client.clone(), vec![resolver_addr()]);
    let res = topo
        .sim
        .block_on(async move { client.connect_only(&www(), 80).await });
    let family = res.connection.as_ref().ok().map(|c| c.family());
    let observed_cad_ms = topo
        .client
        .capture()
        .connection_attempt_delay()
        .map(|d| d.as_secs_f64() * 1000.0);
    let trace = client_trace(
        "cad",
        profile,
        trace,
        (delay_ms, rep, seed),
        &res.log,
        &topo.auth,
    );
    let sample = CadSample {
        configured_delay_ms: delay_ms,
        rep,
        family,
        observed_cad_ms,
        aaaa_first: aaaa_before_a(&topo.auth.query_log()),
    };
    (sample, trace, res.log)
}

/// Counts one testbed case sweep in the metrics registry and opens a
/// wall-clock span over it when the span recorder is armed.
fn case_span(case: &'static str) -> Option<lazyeye_obs::trace::SpanGuard> {
    lazyeye_obs::counter("testbed.cases", lazyeye_obs::Clock::Virtual).inc();
    lazyeye_obs::trace::wall_span(format!("testbed.{case}"))
}

/// Runs `run(delay_ms, rep, run_seed)` over a sweep's `(delay, rep)`
/// grid, delay-major, and counts it as one `case` sweep. Run seeds derive
/// from `seed` under the case's domain-separation `tag` (see
/// [`derive_case_seed`]).
pub fn sweep<T>(
    case: &'static str,
    tag: u64,
    grid: &SweepSpec,
    repetitions: u32,
    seed: u64,
    mut run: impl FnMut(u64, u32, u64) -> T,
) -> Vec<T> {
    let _span = case_span(case);
    let mut out = Vec::new();
    for delay_ms in grid.values() {
        for rep in 0..repetitions {
            out.push(run(
                delay_ms,
                rep,
                derive_case_seed(seed, tag, delay_ms, rep),
            ));
        }
    }
    out
}

/// Runs the CAD case for one client profile.
pub fn run_cad_case(profile: &ClientProfile, cfg: &CadCaseConfig, seed: u64) -> Vec<CadSample> {
    sweep(
        "cad",
        CAD_SEED_TAG,
        &cfg.sweep,
        cfg.repetitions,
        seed,
        |d, rep, s| run_cad(profile, d, rep, s, &[], None).0,
    )
}

/// Aggregate view of a CAD sweep (one Figure 2 row + the Table 2 columns).
#[derive(Clone, Debug, PartialEq)]
pub struct CadSummary {
    /// Largest configured delay at which IPv6 was still used.
    pub last_v6_delay_ms: Option<u64>,
    /// Smallest configured delay at which IPv4 was used.
    pub first_v4_delay_ms: Option<u64>,
    /// Median of capture-observed CADs (ms).
    pub measured_cad_ms: Option<f64>,
    /// Whether any fallback to IPv4 was observed at all (CAD implemented).
    pub implements_cad: bool,
    /// Whether every run established *some* connection.
    pub always_connected: bool,
}

impl CadSummary {
    /// The open switchover bracket `(last_v6, first_v4)`, when detected —
    /// see [`switchover_bracket`].
    pub fn switchover_bracket(&self) -> Option<(u64, u64)> {
        switchover_bracket(self.last_v6_delay_ms, self.first_v4_delay_ms)
    }
}

/// Summarises CAD samples.
pub fn summarize_cad(samples: &[CadSample]) -> CadSummary {
    let last_v6_delay_ms = samples
        .iter()
        .filter(|s| s.family == Some(Family::V6))
        .map(|s| s.configured_delay_ms)
        .max();
    let first_v4_delay_ms = samples
        .iter()
        .filter(|s| s.family == Some(Family::V4))
        .map(|s| s.configured_delay_ms)
        .min();
    let mut cads: Vec<f64> = samples.iter().filter_map(|s| s.observed_cad_ms).collect();
    cads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let measured_cad_ms = median_of_sorted(&cads);
    CadSummary {
        last_v6_delay_ms,
        first_v4_delay_ms,
        measured_cad_ms,
        implements_cad: first_v4_delay_ms.is_some(),
        always_connected: samples.iter().all(|s| s.family.is_some()),
    }
}

// ---------------------------------------------------------------------------
// RD case
// ---------------------------------------------------------------------------

/// One Resolution Delay measurement run.
#[derive(Clone, Debug, PartialEq)]
pub struct RdSample {
    /// Configured DNS answer delay (ms).
    pub configured_delay_ms: u64,
    /// Repetition index.
    pub rep: u32,
    /// Established family.
    pub family: Option<Family>,
    /// When the first TCP SYN left the client (ms since run start) —
    /// the stall observable of §5.2.
    pub first_attempt_ms: Option<f64>,
    /// Whether the engine armed a Resolution Delay timer.
    pub used_rd: bool,
}

lazyeye_json::impl_json_struct!(RdSample {
    configured_delay_ms,
    rep,
    family,
    first_attempt_ms,
    used_rd,
});

/// The canonical cell label of a delayed record type (also the trace
/// metadata condition).
pub fn delayed_record_label(delayed: DelayedRecord) -> &'static str {
    match delayed {
        DelayedRecord::Aaaa => "delayed-aaaa",
        DelayedRecord::A => "delayed-a",
    }
}

/// The delayed record type a cell label names: the inverse of
/// [`delayed_record_label`].
pub fn delayed_record_of(label: &str) -> Option<DelayedRecord> {
    [DelayedRecord::Aaaa, DelayedRecord::A]
        .into_iter()
        .find(|r| delayed_record_label(*r) == label)
}

/// Runs a single Resolution-Delay measurement: one fresh simulation, one
/// delayed record type, one configured DNS answer delay, extra netem rules
/// on the server egress. Traces and logs as [`run_cad`] does.
pub fn run_rd(
    profile: &ClientProfile,
    delayed: DelayedRecord,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    trace: Option<&str>,
) -> (RdSample, Option<Trace>, HeLog) {
    let target = match delayed {
        DelayedRecord::Aaaa => DelayTarget::Aaaa,
        DelayedRecord::A => DelayTarget::A,
    };
    // Live addresses (the server host's own) — RD tests measure
    // connection timing, not fallback between dead addresses.
    let mut topo = test_domain_topology(
        seed,
        "rd.test",
        vec!["192.0.2.1".parse().expect("literal address")],
        vec!["2001:db8::1".parse().expect("literal address")],
    );
    for rule in extra_netem {
        topo.server.add_egress(rule.clone());
    }
    // The rep nonce keeps the name unique per run; the engine log
    // carries no names, so it never shows in a sample.
    let params = lazyeye_authns::TestParams::delay(delay_ms, target, format!("r{rep}"));
    let qname = Name::parse(&format!("{}.rd.test", params.to_label()))
        .expect("test-parameter labels are valid DNS labels");
    let client = Client::new(profile.clone(), topo.client.clone(), vec![resolver_addr()]);
    let res = topo
        .sim
        .block_on(async move { client.connect_only(&qname, 80).await });
    let family = res.connection.as_ref().ok().map(|c| c.family());
    let first_attempt_ms = topo
        .client
        .capture()
        .first_syn(Family::V6)
        .into_iter()
        .chain(topo.client.capture().first_syn(Family::V4))
        .min()
        .map(|t: SimTime| t.as_nanos() as f64 / 1e6);
    let trace = client_trace(
        "rd",
        profile,
        trace,
        (delay_ms, rep, seed),
        &res.log,
        &topo.auth,
    );
    let used_rd = res.log.used_resolution_delay();
    let sample = RdSample {
        configured_delay_ms: delay_ms,
        rep,
        family,
        first_attempt_ms,
        used_rd,
    };
    (sample, trace, res.log)
}

/// Runs the RD case (delaying AAAA or A per config) for one client.
pub fn run_rd_case(profile: &ClientProfile, cfg: &RdCaseConfig, seed: u64) -> Vec<RdSample> {
    sweep(
        "rd",
        RD_SEED_TAG,
        &cfg.sweep,
        cfg.repetitions,
        seed,
        |d, rep, s| run_rd(profile, cfg.delayed, d, rep, s, &[], None).0,
    )
}

/// Aggregate view of an RD sweep.
#[derive(Clone, Debug)]
pub struct RdSummary {
    /// Whether any run armed the RD timer (Table 2 "RD Impl.").
    pub implements_rd: bool,
    /// Largest delay at which the client still connected via IPv6.
    pub last_v6_delay_ms: Option<u64>,
    /// Median first-SYN time at the largest configured delay (ms) — large
    /// values expose the "waits for the A answer" stall.
    pub stall_at_max_delay_ms: Option<f64>,
}

/// Summarises RD samples.
pub fn summarize_rd(samples: &[RdSample]) -> RdSummary {
    let implements_rd = samples.iter().any(|s| s.used_rd);
    let last_v6_delay_ms = samples
        .iter()
        .filter(|s| s.family == Some(Family::V6))
        .map(|s| s.configured_delay_ms)
        .max();
    let max_delay = samples.iter().map(|s| s.configured_delay_ms).max();
    let stall_at_max_delay_ms = max_delay.and_then(|d| {
        let mut v: Vec<f64> = samples
            .iter()
            .filter(|s| s.configured_delay_ms == d)
            .filter_map(|s| s.first_attempt_ms)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        median_of_sorted(&v)
    });
    RdSummary {
        implements_rd,
        last_v6_delay_ms,
        stall_at_max_delay_ms,
    }
}

// ---------------------------------------------------------------------------
// Address-selection case
// ---------------------------------------------------------------------------

/// Result of an address-selection run: the family of each distinct
/// connection attempt, in order (one Figure 5 row).
#[derive(Clone, Debug)]
pub struct SelectionResult {
    /// Attempt families in order.
    pub order: Vec<Family>,
    /// Distinct IPv6 addresses attempted (Table 2 "IPv6 Addrs. Used").
    pub v6_used: usize,
    /// Distinct IPv4 addresses attempted (Table 2 "IPv4 Addrs. Used").
    pub v4_used: usize,
}

lazyeye_json::impl_json_struct!(SelectionResult {
    order: with lazyeye_net::strip,
    v6_used,
    v4_used,
});

/// Runs the selection case: N dead addresses per family, watch the order.
pub fn run_selection_case(
    profile: &ClientProfile,
    cfg: &SelectionCaseConfig,
    seed: u64,
) -> SelectionResult {
    let _span = case_span("selection");
    run_selection(profile, cfg, 0, seed, &[], None).0
}

/// Runs a single address-selection measurement with extra netem rules on
/// the server egress; traces as [`run_cad`] does.
pub fn run_selection(
    profile: &ClientProfile,
    cfg: &SelectionCaseConfig,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    trace: Option<&str>,
) -> (SelectionResult, Option<Trace>) {
    let dead_v4: Vec<std::net::Ipv4Addr> = (1..=cfg.v4_addresses)
        .map(|i| format!("203.0.113.{i}").parse().unwrap())
        .collect();
    let dead_v6: Vec<std::net::Ipv6Addr> = (1..=cfg.v6_addresses)
        .map(|i| format!("2001:db8:dead::{i}").parse().unwrap())
        .collect();
    let mut topo = test_domain_topology(seed, "sel.test", dead_v4, dead_v6);
    for rule in extra_netem {
        topo.server.add_egress(rule.clone());
    }
    let mut client_profile = profile.clone();
    client_profile.he.attempt_timeout = std::time::Duration::from_millis(cfg.attempt_timeout_ms);
    client_profile.he.overall_deadline = std::time::Duration::from_secs(300);
    let qname = Name::parse("d0-tnone-nsel.sel.test").expect("literal name");
    let client = Client::new(client_profile, topo.client.clone(), vec![resolver_addr()]);
    let res = topo
        .sim
        .block_on(async move { client.connect_only(&qname, 80).await });
    let trace = client_trace(
        "selection",
        profile,
        trace,
        (0, rep, seed),
        &res.log,
        &topo.auth,
    );
    let result = SelectionResult {
        order: res.log.attempt_families(),
        v6_used: res.log.addrs_used(Family::V6),
        v4_used: res.log.addrs_used(Family::V4),
    };
    (result, trace)
}

// ---------------------------------------------------------------------------
// Resolver case
// ---------------------------------------------------------------------------

/// One resolver run against a shaped authoritative server.
#[derive(Clone, Debug)]
pub struct ResolverSample {
    /// Configured IPv6-path delay (ms).
    pub configured_delay_ms: u64,
    /// Repetition index.
    pub rep: u32,
    /// Family of the first query the auth server received.
    pub first_query_family: Option<Family>,
    /// Number of IPv6 queries the auth server received.
    pub v6_packets: usize,
    /// Observed resolver CAD at the auth server: first v4 query − first v6
    /// query (ms), when both happened.
    pub observed_cad_ms: Option<f64>,
    /// Gap between the first two IPv6 queries (ms) — the per-try timeout
    /// of retrying resolvers (Unbound's 376 ms, Yandex's 300 ms).
    pub v6_retry_gap_ms: Option<f64>,
    /// Whether the resolution ultimately succeeded.
    pub resolved: bool,
    /// Whether the *answer used* came over IPv6 (the v6 exchange
    /// completed before any fallback).
    pub served_over_v6: bool,
}

lazyeye_json::impl_json_struct!(ResolverSample {
    configured_delay_ms,
    rep,
    first_query_family,
    v6_packets,
    observed_cad_ms,
    v6_retry_gap_ms,
    resolved,
    served_over_v6,
});

/// Runs a single resolver measurement: one fresh simulation with a
/// per-run unique zone (served from the `(tag, delay)` zone cache), one
/// configured IPv6-path delay towards the authoritative NS, extra netem
/// rules on its egress. The trace, when asked for, holds the server-side
/// query arrivals at the authoritative NS.
pub fn run_resolver(
    rprofile: &ResolverProfile,
    delay_ms: u64,
    rep: u32,
    seed: u64,
    extra_netem: &[NetemRule],
    trace: Option<&str>,
) -> (ResolverSample, Option<Trace>) {
    let tag = format!("d{delay_ms}r{rep}");
    let mut topo = resolver_topology_for_delay(seed, &tag, delay_ms);
    // Shape the auth NS's IPv6 responses (the paper applies the
    // shaping to the name server's addresses).
    topo.auth
        .add_egress(NetemRule::family(Family::V6, Netem::delay_ms(delay_ms)));
    for rule in extra_netem {
        topo.auth.add_egress(rule.clone());
    }
    let mut rcfg = RecursiveConfig::new(topo.roots.clone());
    rcfg.policy = rprofile.policy.clone();
    let resolver = RecursiveResolver::new(topo.resolver_host.clone(), rcfg);
    let qname = topo.qname.clone();
    let resolved = topo.sim.block_on(async move {
        resolver
            .resolve(&qname, RrType::A)
            .await
            .map(|r| !r.records.is_empty())
            .unwrap_or(false)
    });

    // Server-side observation (the paper's Table 3 vantage point).
    let cap = topo.auth.capture();
    let mut v6_queries: Vec<SimTime> = Vec::new();
    let mut v4_queries: Vec<SimTime> = Vec::new();
    for r in cap.udp_rx() {
        match r.family() {
            Family::V6 => v6_queries.push(r.time),
            Family::V4 => v4_queries.push(r.time),
        }
    }
    // Capture order is arrival order, which breaks same-instant
    // ties correctly (parallel resolvers send both queries in the
    // same tick).
    let first_query_family = cap.udp_rx().next().map(|r| r.family());
    let observed_cad_ms = match (v6_queries.first(), v4_queries.first()) {
        (Some(a), Some(b)) if b > a => Some(b.saturating_duration_since(*a).as_secs_f64() * 1000.0),
        _ => None,
    };
    let v6_retry_gap_ms = if v6_queries.len() >= 2 {
        Some(
            v6_queries[1]
                .saturating_duration_since(v6_queries[0])
                .as_secs_f64()
                * 1000.0,
        )
    } else {
        None
    };
    let served_over_v6 =
        resolved && first_query_family == Some(Family::V6) && v4_queries.is_empty();
    let trace = trace.map(|condition| Trace {
        meta: TraceMeta {
            subject: rprofile.name.to_string(),
            case: "resolver".to_string(),
            condition: condition.to_string(),
            configured_delay_ms: delay_ms,
            rep,
            seed,
        },
        events: query_arrival_events(&topo.auth_server.query_log()),
    });
    let sample = ResolverSample {
        configured_delay_ms: delay_ms,
        rep,
        first_query_family,
        v6_packets: v6_queries.len(),
        observed_cad_ms,
        v6_retry_gap_ms,
        resolved,
        served_over_v6,
    };
    (sample, trace)
}

/// Runs the resolver case for one resolver profile.
pub fn run_resolver_case(
    rprofile: &ResolverProfile,
    cfg: &ResolverCaseConfig,
    seed: u64,
) -> Vec<ResolverSample> {
    sweep(
        "resolver",
        RESOLVER_SEED_TAG,
        &cfg.sweep,
        cfg.repetitions,
        seed,
        |d, rep, s| run_resolver(rprofile, d, rep, s, &[], None).0,
    )
}

/// Aggregate resolver statistics — one row of the paper's Table 3.
#[derive(Clone, Debug)]
pub struct ResolverStats {
    /// Share of runs whose first auth query used IPv6 (%), measured at the
    /// *smallest* configured delay in the sweep (pure preference when the
    /// sweep includes delay 0). `None` when the sweep produced no samples
    /// at all — previously this collapsed to `0.0`, indistinguishable
    /// from a resolver that genuinely never prefers IPv6.
    pub v6_share_pct: Option<f64>,
    /// Largest configured delay at which resolution was still served over
    /// IPv6 (the "Max. IPv6 Delay Used" column).
    pub max_v6_delay_ms: Option<u64>,
    /// Median observed per-try timeout (ms): the gap between consecutive
    /// IPv6 retries when the resolver retries, otherwise first-v4 −
    /// first-v6 — the paper's per-resolver delay column.
    pub observed_cad_ms: Option<f64>,
    /// Maximum number of IPv6 queries in one resolution ("# IPv6 Packets").
    pub max_v6_packets: usize,
    /// Share of runs that resolved at all.
    pub success_pct: f64,
}

/// Summarises resolver samples.
pub fn summarize_resolver(samples: &[ResolverSample]) -> ResolverStats {
    let min_delay = samples.iter().map(|s| s.configured_delay_ms).min();
    let v6_share_pct = min_delay.map(|d| {
        let at_min: Vec<&ResolverSample> = samples
            .iter()
            .filter(|s| s.configured_delay_ms == d)
            .collect();
        100.0
            * at_min
                .iter()
                .filter(|s| s.first_query_family == Some(Family::V6))
                .count() as f64
            / at_min.len() as f64
    });
    let max_v6_delay_ms = samples
        .iter()
        .filter(|s| s.served_over_v6)
        .map(|s| s.configured_delay_ms)
        .max();
    // Per-try timeout: prefer retry gaps (retrying resolvers), fall back
    // to the v6→v4 switch time.
    let mut cads: Vec<f64> = samples.iter().filter_map(|s| s.v6_retry_gap_ms).collect();
    if cads.is_empty() {
        cads = samples.iter().filter_map(|s| s.observed_cad_ms).collect();
    }
    cads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let observed_cad_ms = median_of_sorted(&cads);
    ResolverStats {
        v6_share_pct,
        max_v6_delay_ms,
        observed_cad_ms,
        max_v6_packets: samples.iter().map(|s| s.v6_packets).max().unwrap_or(0),
        success_pct: 100.0 * samples.iter().filter(|s| s.resolved).count() as f64
            / samples.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cad_sample(delay_ms: u64, cad: Option<f64>) -> CadSample {
        CadSample {
            configured_delay_ms: delay_ms,
            rep: 0,
            family: Some(Family::V4),
            observed_cad_ms: cad,
            aaaa_first: None,
        }
    }

    fn resolver_sample(delay_ms: u64, v6_first: bool) -> ResolverSample {
        ResolverSample {
            configured_delay_ms: delay_ms,
            rep: 0,
            first_query_family: Some(if v6_first { Family::V6 } else { Family::V4 }),
            v6_packets: 1,
            observed_cad_ms: None,
            v6_retry_gap_ms: None,
            resolved: true,
            served_over_v6: v6_first,
        }
    }

    #[test]
    fn median_averages_even_sample_counts() {
        // Odd count: the middle element, exactly.
        let odd: Vec<CadSample> = [100.0, 200.0, 300.0]
            .iter()
            .map(|&c| cad_sample(0, Some(c)))
            .collect();
        assert_eq!(summarize_cad(&odd).measured_cad_ms, Some(200.0));

        // Even count: the average of the two middle elements — the old
        // upper-middle pick reported 300 here, biased a full gap upward.
        let even: Vec<CadSample> = [100.0, 200.0, 300.0, 400.0]
            .iter()
            .map(|&c| cad_sample(0, Some(c)))
            .collect();
        assert_eq!(summarize_cad(&even).measured_cad_ms, Some(250.0));

        // Two samples: plain midpoint.
        let two: Vec<CadSample> = [100.0, 200.0]
            .iter()
            .map(|&c| cad_sample(0, Some(c)))
            .collect();
        assert_eq!(summarize_cad(&two).measured_cad_ms, Some(150.0));
    }

    #[test]
    fn rd_stall_median_averages_even_counts() {
        let sample = |stall: f64| RdSample {
            configured_delay_ms: 400,
            rep: 0,
            family: Some(Family::V6),
            first_attempt_ms: Some(stall),
            used_rd: false,
        };
        let samples: Vec<RdSample> = [10.0, 20.0, 30.0, 40.0]
            .iter()
            .map(|&s| sample(s))
            .collect();
        assert_eq!(summarize_rd(&samples).stall_at_max_delay_ms, Some(25.0));
    }

    #[test]
    fn resolver_share_is_none_without_samples_and_measured_at_min_delay() {
        // No samples at all: absent, not a fake 0.0.
        assert_eq!(summarize_resolver(&[]).v6_share_pct, None);

        // Sweep without a zero-delay cell: the share comes from the
        // smallest configured delay instead of silently reporting 0.0.
        let samples = vec![
            resolver_sample(200, true),
            resolver_sample(200, true),
            resolver_sample(400, false),
        ];
        assert_eq!(summarize_resolver(&samples).v6_share_pct, Some(100.0));

        // A genuine never-IPv6 resolver still reads 0.0 — now
        // distinguishable from the no-data case.
        let never = vec![resolver_sample(0, false), resolver_sample(0, false)];
        assert_eq!(summarize_resolver(&never).v6_share_pct, Some(0.0));

        // Even-sized CAD lists are averaged here too.
        let mut gaps = vec![resolver_sample(0, true), resolver_sample(0, true)];
        gaps[0].v6_retry_gap_ms = Some(100.0);
        gaps[1].v6_retry_gap_ms = Some(300.0);
        assert_eq!(summarize_resolver(&gaps).observed_cad_ms, Some(200.0));
    }

    #[test]
    fn case_seed_mixing_has_no_overflow_and_no_collisions() {
        // The legacy packing panicked in debug builds on delay_ms * 1000
        // overflow; the SplitMix64 mix must not.
        let _ = derive_case_seed(7, CAD_SEED_TAG, u64::MAX, u32::MAX);

        // The legacy packing collided: (0 ms, rep 1000) == (1 ms, rep 0).
        let mut seen = std::collections::BTreeSet::new();
        for delay_ms in [0u64, 1, 2, 5, 200, 1000, 100_000, u64::MAX / 1000] {
            for rep in [0u32, 1, 2, 999, 1000, 1001, 50_000] {
                assert!(
                    seen.insert(derive_case_seed(42, CAD_SEED_TAG, delay_ms, rep)),
                    "seed collision at ({delay_ms}, {rep})"
                );
            }
        }
        // Case tags separate the sweeps even for identical (delay, rep).
        assert_ne!(
            derive_case_seed(42, CAD_SEED_TAG, 100, 0),
            derive_case_seed(42, RD_SEED_TAG, 100, 0)
        );
        assert_ne!(
            derive_case_seed(42, RD_SEED_TAG, 100, 0),
            derive_case_seed(42, RESOLVER_SEED_TAG, 100, 0)
        );
    }

    #[test]
    fn switchover_bracket_requires_both_ends_in_order() {
        assert_eq!(switchover_bracket(Some(200), Some(300)), Some((200, 300)));
        assert_eq!(switchover_bracket(Some(300), Some(300)), None);
        assert_eq!(switchover_bracket(Some(300), Some(200)), None);
        assert_eq!(switchover_bracket(None, Some(300)), None);
        assert_eq!(switchover_bracket(Some(200), None), None);
        let summary = summarize_cad(&[cad_sample(300, None)]);
        assert_eq!(summary.switchover_bracket(), None, "v4-only sweep");
    }
}
