//! The measurement loops: untraced for the end-to-end metrics, traced
//! for the per-layer ones. Every pass is checked; a pass that panics or
//! fails its check counts all its items as failed and is not timed.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lazyeye_obs::registry::{render_prometheus, reset_all};
use lazyeye_obs::Clock;

use crate::check::verify;
use crate::host::peak_heap_during;
use crate::ledger::Ledger;
use crate::metrics::{median, Outcome};
use crate::pipeline::{self, Outputs, Pass};
use crate::workload::{Target, Workload};

/// What one benchmark run measures.
pub struct Config {
    /// The workload (selects the paper-truth checks).
    pub workload: Workload,
    /// Its generated input.
    pub target: Target,
    /// How long to measure.
    pub seconds: f64,
    /// The parallel worker count, N.
    pub jobs: usize,
    /// The CLI's report for the same spec, or why there is none.
    pub reference: Result<Outputs, String>,
}

/// Each round times set-up at least this often and for at least this
/// long, so set-up samples spread over the run like the passes do.
const SETUP_REPS_PER_ROUND: usize = 3;
const SETUP_TIME_PER_ROUND: Duration = Duration::from_millis(50);

/// Runs passes and keeps the tally of items attempted and failed.
struct Checker<'a> {
    cfg: &'a Config,
    attempted: u64,
    failed: u64,
    /// Items of the last pass, charged in full to a pass that panics.
    last_items: u64,
    /// The virtual-clock exposition of the first checked pass; every
    /// later sim-path pass must repeat it byte for byte.
    virtual_counters: Option<String>,
}

impl<'a> Checker<'a> {
    fn new(cfg: &'a Config) -> Checker<'a> {
        let last_items = match &cfg.target {
            Target::Campaign(spec) => lazyeye_campaign::expand(spec).map_or(1, |r| r.len()),
            Target::Fleet(spec) => lazyeye_fleet::expand(spec).map_or(1, |p| p.sessions.len()),
        } as u64;
        Checker {
            cfg,
            attempted: 0,
            failed: 0,
            last_items,
            virtual_counters: None,
        }
    }

    /// One pass over `jobs` workers from fresh counters and caches, as a
    /// new CLI process would start. `None` if it panicked or failed its
    /// check.
    fn pass(&mut self, jobs: usize, fast_path: bool, led: &mut Ledger) -> Option<Pass> {
        reset_all();
        lazyeye_testbed::reset_zone_cache();
        let cfg = self.cfg;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pipeline::run(&cfg.target, jobs, fast_path, led)
        }));
        let Ok(pass) = outcome else {
            self.attempted += self.last_items;
            self.failed += self.last_items;
            eprintln!("perfbench: a pass at jobs {jobs} panicked");
            return None;
        };
        self.attempted += pass.items;
        self.last_items = pass.items;
        let verdict = match &cfg.reference {
            Ok(reference) => verify(cfg.workload, reference, &pass.outputs),
            Err(e) => Err(e.clone()),
        }
        .and_then(|()| {
            // The fast path counts its own model runs, so only sim-path
            // passes share one exposition.
            if fast_path {
                return Ok(());
            }
            let counters = render_prometheus(Some(Clock::Virtual));
            match &self.virtual_counters {
                None => self.virtual_counters = Some(counters),
                Some(first) if *first != counters => {
                    return Err("virtual-clock counters differ between passes".to_string())
                }
                Some(_) => {}
            }
            Ok(())
        });
        if let Err(e) = verdict {
            self.failed += pass.items;
            eprintln!("perfbench: pass at jobs {jobs} failed its check: {e}");
            return None;
        }
        Some(pass)
    }

    fn outcome(self, values: Vec<(&'static str, f64)>) -> Outcome {
        Outcome {
            attempted: self.attempted.max(1),
            failed: self.failed,
            values,
        }
    }
}

/// Wall times of the passes on one side of a comparison.
#[derive(Default)]
struct Walls {
    seconds: Vec<f64>,
    items: u64,
}

impl Walls {
    fn push(&mut self, pass: &Pass) {
        self.seconds.push(pass.wall.as_secs_f64());
        self.items = pass.items;
    }

    fn median(&self) -> f64 {
        median(&self.seconds)
    }

    /// Items per second at the median wall time.
    fn rate(&self) -> f64 {
        let wall = self.median();
        if wall > 0.0 {
            self.items as f64 / wall
        } else {
            0.0
        }
    }
}

/// Calls `round` until `seconds` are up, at least once, starting no
/// round that the previous one's length says would end after that.
fn rounds(seconds: f64, mut round: impl FnMut(usize)) -> usize {
    let started = Instant::now();
    let mut last = Duration::ZERO;
    let mut n = 0;
    while n == 0 || (started.elapsed() + last).as_secs_f64() <= seconds {
        let t = Instant::now();
        round(n);
        last = t.elapsed();
        n += 1;
    }
    n
}

/// The untraced run: rounds of set-up timing and a pass each at jobs N
/// and jobs 1, then one untimed pass at jobs N for the peak heap.
pub fn end_to_end(cfg: &Config) -> Outcome {
    let mut checker = Checker::new(cfg);
    let mut setup = Vec::new();
    // [jobs N, jobs 1]; the order alternates so drift hits both alike.
    let mut walls: [Walls; 2] = Default::default();
    let n = rounds(cfg.seconds, |round| {
        time_setup(&cfg.target, &mut setup);
        for side in [round % 2, 1 - round % 2] {
            let jobs = if side == 0 { cfg.jobs } else { 1 };
            if let Some(pass) = checker.pass(jobs, false, &mut Ledger::off()) {
                walls[side].push(&pass);
            }
        }
    });
    // Empty the caches first, so freeing them does not offset the peak.
    reset_all();
    lazyeye_testbed::reset_zone_cache();
    let (_, peak_heap) = peak_heap_during(|| checker.pass(cfg.jobs, false, &mut Ledger::off()));
    let [par, one] = &walls;
    let (rate_n, rate_1) = (par.rate(), one.rate());
    let eff = if rate_1 > 0.0 {
        rate_n / (cfg.jobs as f64 * rate_1)
    } else {
        0.0
    };
    eprintln!(
        "perfbench: {n} rounds; jobs {} {:?}, jobs 1 {:?}",
        cfg.jobs, par.seconds, one.seconds
    );
    checker.outcome(vec![
        ("setup_s", median(&setup)),
        ("wall_s", par.median()),
        ("items_per_s", rate_n),
        ("wall_s_j1", one.median()),
        ("items_per_s_j1", rate_1),
        ("parallel_eff", eff),
        ("peak_heap_mb", peak_heap),
    ])
}

/// Times set-up (`expand` plus context build) for one round.
fn time_setup(target: &Target, times: &mut Vec<f64>) {
    let started = Instant::now();
    let mut reps = 0;
    while reps < SETUP_REPS_PER_ROUND || started.elapsed() < SETUP_TIME_PER_ROUND {
        times.push(pipeline::setup(target).as_secs_f64());
        reps += 1;
    }
}

/// The traced run: alternating untraced and traced passes at jobs N,
/// then, on `cad-sweep`, one traced pass with the fast path on.
pub fn per_layer(cfg: &Config) -> Outcome {
    let mut checker = Checker::new(cfg);
    let mut untraced = Walls::default();
    let mut traced = Walls::default();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last = Ledger::off();
    rounds(cfg.seconds, |round| {
        for tracing in [round % 2 == 1, round % 2 == 0] {
            let mut led = if tracing { Ledger::on() } else { Ledger::off() };
            let Some(pass) = checker.pass(cfg.jobs, false, &mut led) else {
                continue;
            };
            if tracing {
                for (name, value) in layer_values(&led, pass.items, cfg.jobs) {
                    samples.entry(name).or_default().push(value);
                }
                traced.push(&pass);
                last = led;
            } else {
                untraced.push(&pass);
            }
        }
    });
    let mut values: Vec<(&'static str, f64)> = samples
        .into_iter()
        .map(|(name, v)| (name, median(&v)))
        .collect();
    let (wall_t, wall_u) = (traced.median(), untraced.median());
    let overhead = if wall_u > 0.0 {
        wall_t / wall_u - 1.0
    } else {
        0.0
    };
    values.push(("trace.overhead", overhead));
    values.extend(fastpath_values(cfg, &mut checker, &last));
    print_ledger(&last);
    let failed_frac = checker.failed as f64 / checker.attempted.max(1) as f64;
    values.push(("failed_frac", failed_frac));
    if traced.seconds.is_empty() {
        // No traced pass survived its check: report every layer as 0.
        values.extend(layer_values(&Ledger::off(), 0, cfg.jobs));
    }
    checker.outcome(values)
}

/// The value of the first sample of a metric in a Prometheus exposition
/// (`lazyeye_sim_polls{clock="virtual"} 123`), 0 when absent.
pub fn exposition_value(exposition: &str, metric: &str) -> f64 {
    exposition
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(key, _)| {
            key.strip_prefix(metric)
                .is_some_and(|labels| labels.starts_with("{clock=") && !labels.contains(','))
        })
        .and_then(|(_, value)| value.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Per-layer values of one traced pass. Inner layers (`sim`, the
/// executor's stealing) are read by name from the obs exposition.
fn layer_values(led: &Ledger, items: u64, jobs: usize) -> Vec<(&'static str, f64)> {
    let exposition = render_prometheus(None);
    let items = items.max(1) as f64;
    let per_item = |metric: &str| exposition_value(&exposition, metric) / items;
    let exec = led.busy_s("exec");
    let idle = if exec > 0.0 {
        1.0 - led.item_total().as_secs_f64() / (jobs as f64 * exec)
    } else {
        0.0
    };
    vec![
        ("plan.busy_s", led.busy_s("plan")),
        ("setup.busy_s", led.busy_s("setup")),
        ("exec.busy_s", exec),
        ("exec.idle_frac", idle),
        (
            "exec.steal_hits",
            exposition_value(&exposition, "lazyeye_exec_steal_hits"),
        ),
        ("exec.allocs_per_item", led.noted("exec.allocs") / items),
        (
            "testbed.cad_us_p50",
            led.item_quantile_us("testbed.cad", 0.5),
        ),
        (
            "testbed.cad_us_p99",
            led.item_quantile_us("testbed.cad", 0.99),
        ),
        ("testbed.rd_us_p50", led.item_quantile_us("testbed.rd", 0.5)),
        (
            "testbed.selection_us_p50",
            led.item_quantile_us("testbed.selection", 0.5),
        ),
        (
            "testbed.resolver_us_p50",
            led.item_quantile_us("testbed.resolver", 0.5),
        ),
        (
            "testbed.resolver_us_p99",
            led.item_quantile_us("testbed.resolver", 0.99),
        ),
        (
            "session.cad_us_p50",
            led.item_quantile_us("session.cad", 0.5),
        ),
        ("session.rd_us_p50", led.item_quantile_us("session.rd", 0.5)),
        (
            "session.rd_a_us_p50",
            led.item_quantile_us("session.rd_a", 0.5),
        ),
        (
            "session.resolver_us_p50",
            led.item_quantile_us("session.resolver", 0.5),
        ),
        ("sim.polls_per_item", per_item("lazyeye_sim_polls")),
        ("sim.tasks_per_item", per_item("lazyeye_sim_tasks_spawned")),
        (
            "sim.timers_armed_per_item",
            per_item("lazyeye_sim_timers_armed"),
        ),
        (
            "sim.timers_fired_per_item",
            per_item("lazyeye_sim_timers_fired"),
        ),
        ("refine.busy_s", led.busy_s("refine")),
        ("refine.runs", led.noted("refine.runs")),
        ("aggregate.busy_s", led.busy_s("aggregate")),
        ("infer.busy_s", led.busy_s("infer")),
        ("report.busy_s", led.busy_s("report")),
        ("serialise.busy_s", led.busy_s("serialise")),
        ("serialise.bytes", led.noted("serialise.bytes")),
        ("trace.coverage", led.coverage()),
    ]
}

/// The fast-path side pass of `cad-sweep`: the same campaign with the
/// compiled CAD/RD fast path on, its per-CAD-run time against the sim
/// path's `testbed.cad_us_p50`. Other workloads report 0.
fn fastpath_values(
    cfg: &Config,
    checker: &mut Checker<'_>,
    sim_path: &Ledger,
) -> Vec<(&'static str, f64)> {
    let mut led = Ledger::on();
    let pass = if cfg.workload == Workload::CadSweep {
        checker.pass(cfg.jobs, true, &mut led)
    } else {
        None
    };
    let Some(pass) = pass else {
        return vec![
            ("fastpath.fast_share", 0.0),
            ("fastpath.calibrate_s", 0.0),
            ("fastpath.cad_us_p50", 0.0),
        ];
    };
    let fast_runs = exposition_value(&render_prometheus(None), "lazyeye_fastpath_runs");
    eprintln!(
        "perfbench: fast path {:.1} us/CAD run vs sim path {:.1}",
        led.item_quantile_us("testbed.cad", 0.5),
        sim_path.item_quantile_us("testbed.cad", 0.5)
    );
    vec![
        ("fastpath.fast_share", fast_runs / pass.items.max(1) as f64),
        ("fastpath.calibrate_s", led.busy_s("setup")),
        (
            "fastpath.cad_us_p50",
            led.item_quantile_us("testbed.cad", 0.5),
        ),
    ]
}

/// Prints one traced pass's span tree with busy and self time.
fn print_ledger(led: &Ledger) {
    let spans = led.spans();
    let depth = |mut i: usize| {
        let mut d = 0;
        while let Some(p) = spans[i].parent {
            d += 1;
            i = p;
        }
        d
    };
    eprintln!("perfbench: span            busy_s     self_s");
    for (i, span) in spans.iter().enumerate() {
        let name = format!("{}{}", "  ".repeat(depth(i)), span.name);
        eprintln!(
            "perfbench: {name:<14} {:>9.4} {:>10.4}",
            span.dur.as_secs_f64(),
            led.self_time(i).as_secs_f64()
        );
    }
    eprintln!("perfbench: coverage {:.4}", led.coverage());
}
