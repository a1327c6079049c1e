//! The traced run's span ledger.
//!
//! Spans are recorded only here, in the benchmark, around its calls into
//! each layer's public functions; the layers themselves are not touched.
//! Spans nest on the calling thread (one tree per pipeline iteration);
//! per-item timings from the worker threads are kept apart, by kind, as
//! exact samples. A ledger that is off records nothing, so the untraced
//! run goes through the same code.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One span on the calling thread.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    start: Instant,
    /// Length; zero until the span closes.
    pub dur: Duration,
}

/// Spans, per-item timings and counts of one traced pipeline iteration.
#[derive(Debug, Default)]
pub struct Ledger {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    items: BTreeMap<&'static str, Vec<Duration>>,
    notes: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// A ledger that records nothing (the untraced run).
    pub fn off() -> Ledger {
        Ledger::default()
    }

    /// A recording ledger (the traced run).
    pub fn on() -> Ledger {
        Ledger {
            on: true,
            ..Ledger::default()
        }
    }

    /// Whether this ledger records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            dur: Duration::ZERO,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].dur = self.spans[i].start.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records the wall time of one item (a run or a session) by kind.
    pub fn item(&mut self, kind: &'static str, dur: Duration) {
        if self.on {
            self.items.entry(kind).or_default().push(dur);
        }
    }

    /// Adds `value` to a named count (runs refined, bytes written, ...).
    pub fn note(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.notes.entry(name).or_default() += value;
        }
    }

    /// A named count, 0 when never noted.
    pub fn noted(&self, name: &str) -> f64 {
        self.notes.get(name).copied().unwrap_or(0.0)
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.dur.as_secs_f64())
    }

    /// A span's length minus the part its child spans cover.
    pub fn self_time(&self, index: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.dur)
            .sum();
        self.spans[index].dur.saturating_sub(children)
    }

    /// Σ layer self time ÷ traced wall: the share of the root spans'
    /// time that some layer below them accounts for.
    pub fn coverage(&self) -> f64 {
        let (mut wall, mut layers) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                wall += s.dur.as_secs_f64();
            } else {
                layers += self.self_time(i).as_secs_f64();
            }
        }
        if wall > 0.0 {
            layers / wall
        } else {
            0.0
        }
    }

    /// Σ item time over every kind.
    pub fn item_total(&self) -> Duration {
        self.items.values().flatten().sum()
    }

    /// The `q` quantile (nearest rank) of one kind's item times, in µs;
    /// 0 when the iteration ran no item of that kind.
    pub fn item_quantile_us(&self, kind: &str, q: f64) -> f64 {
        let Some(samples) = self.items.get(kind) else {
            return 0.0;
        };
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1].as_secs_f64() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut led = Ledger::off();
        led.enter("a");
        led.item("k", Duration::from_millis(1));
        led.note("n", 1.0);
        led.exit();
        assert!(led.spans().is_empty());
        assert_eq!(led.item_total(), Duration::ZERO);
        assert_eq!(led.noted("n"), 0.0);
    }

    #[test]
    fn self_time_and_coverage_follow_the_tree() {
        let mut led = Ledger::on();
        led.enter("root");
        led.stage("a", || std::thread::sleep(Duration::from_millis(20)));
        led.enter("b");
        led.stage("c", || std::thread::sleep(Duration::from_millis(20)));
        led.exit();
        led.exit();
        let root = &led.spans()[0];
        assert_eq!(root.name, "root");
        // b's own time excludes c.
        assert!(led.self_time(2) < Duration::from_millis(5));
        let cov = led.coverage();
        assert!(cov > 0.9 && cov <= 1.0, "{cov}");
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut led = Ledger::on();
        for us in 1..=100u64 {
            led.item("k", Duration::from_micros(us));
        }
        assert_eq!(led.item_quantile_us("k", 0.5).round(), 50.0);
        assert_eq!(led.item_quantile_us("k", 0.99).round(), 99.0);
        assert_eq!(led.item_quantile_us("missing", 0.5), 0.0);
    }
}
