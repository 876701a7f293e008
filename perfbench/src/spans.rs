//! In-memory span capture for the traced run.
//!
//! Two sources feed one [`SpanStore`] on one clock: spans the benchmark
//! opens itself around each call it makes into a layer, and the spans
//! and counters the program emits through its own telemetry
//! [`Recorder`], which the store receives by acting as the recorder's
//! [`Sink`]. Nothing is written until [`SpanStore::write_jsonl`] runs
//! after the measured run.

use pollux_telemetry::{Event, Recorder, Sink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers. The declaration order is the attribution
/// priority of [`SpanStore::self_times`]: where spans overlap, the
/// instant belongs to the first label in this list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// `agent/refit`: one θsys fit (program span).
    Refit,
    /// A `JobHandle`/`ClusterService` call made by the benchmark.
    Call(Op),
    /// `sched/table_build`: the dense speedup table (program span).
    TableBuild,
    /// `sched/ga_evolve` (or the racked GA's spans): the genetic search.
    GaEvolve,
    /// A `SchedulingPolicy` call made through the timing wrapper.
    Policy,
    /// `control/plan`: the service's round planner (program span).
    Plan,
    /// `service/round`: one service scheduling round (program span).
    ServiceRound,
    /// `engine/report_round`: the simulator's agent report round.
    ReportRound,
    /// `engine/reschedule`: the simulator's scheduling interval.
    Reschedule,
    /// The benchmark client spinning until a service round is applied.
    Wait,
}

/// The `ClusterService`/`JobHandle` calls the live-service client makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    Trigger,
    RecordIteration,
    Refit,
    GradientStats,
    Tuning,
    Placement,
    Submit,
    Complete,
}

impl Label {
    /// Stable name used in the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Label::Refit => "agent/refit",
            Label::Call(op) => match op {
                Op::Trigger => "call/trigger_schedule",
                Op::RecordIteration => "call/record_iteration",
                Op::Refit => "call/refit",
                Op::GradientStats => "call/record_gradient_stats",
                Op::Tuning => "call/tuning",
                Op::Placement => "call/placement",
                Op::Submit => "call/submit",
                Op::Complete => "call/complete",
            },
            Label::TableBuild => "sched/table_build",
            Label::GaEvolve => "sched/ga_evolve",
            Label::Policy => "call/policy",
            Label::Plan => "control/plan",
            Label::ServiceRound => "service/round",
            Label::ReportRound => "engine/report_round",
            Label::Reschedule => "engine/reschedule",
            Label::Wait => "bench/wait_round",
        }
    }

    fn of_program_span(subsystem: &str, name: &str) -> Option<Label> {
        Some(match (subsystem, name) {
            ("agent", "refit") => Label::Refit,
            ("sched", "table_build") => Label::TableBuild,
            ("sched", "ga_evolve" | "rack_evolve" | "rack_assign") => Label::GaEvolve,
            ("control", "plan") => Label::Plan,
            ("service", "round") => Label::ServiceRound,
            ("engine", "report_round") => Label::ReportRound,
            ("engine", "reschedule") => Label::Reschedule,
            _ => return None,
        })
    }
}

/// One closed span on the store's clock (ns since the store's epoch).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub label: Label,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    counters: BTreeMap<String, u64>,
    /// Index of a `sched/table_build` span awaiting its `ga_evolve`.
    pending_table_build: Option<usize>,
}

/// The traced run's span and counter capture.
#[derive(Debug)]
pub struct SpanStore {
    epoch: Instant,
    /// Offset of the attached recorder's epoch on this store's clock.
    recorder_offset: AtomicU64,
    inner: Mutex<Inner>,
}

impl SpanStore {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            recorder_offset: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
        })
    }

    /// A program recorder draining into this store, with its clock
    /// aligned to the store's (to within the construction call).
    pub fn recorder(self: &Arc<Self>) -> Recorder {
        let before = self.now();
        let rec = Recorder::new(Arc::clone(self) as Arc<dyn Sink>);
        let after = self.now();
        self.recorder_offset
            .store(before + (after - before) / 2, Ordering::Relaxed);
        rec
    }

    /// Nanoseconds since the store's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span the benchmark measured itself.
    pub fn push(&self, label: Label, start: u64, end: u64) {
        self.inner
            .lock()
            .expect("span lock")
            .spans
            .push(Span { label, start, end });
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().expect("span lock").spans.clone()
    }

    /// The latest snapshot of a program counter (`"engine/chunks"`), 0
    /// when it was never emitted. Call after `Recorder::flush`.
    pub fn counter(&self, key: &str) -> u64 {
        self.inner
            .lock()
            .expect("span lock")
            .counters
            .get(key)
            .copied()
            .unwrap_or(0)
    }

    /// Total duration (s), count, and durations (ms) of spans with `label`.
    pub fn busy(&self, label: Label) -> (f64, usize, Vec<f64>) {
        let inner = self.inner.lock().expect("span lock");
        let durs: Vec<f64> = inner
            .spans
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.dur() as f64 / 1e6)
            .collect();
        // `+ 0.0` keeps an empty sum from printing as -0.
        (durs.iter().sum::<f64>() / 1e3 + 0.0, durs.len(), durs)
    }

    /// Splits `[start, end)` by label: each instant goes to the
    /// highest-priority label (see [`Label`]) whose span covers it;
    /// instants no span covers are returned separately. The parts sum
    /// to `end - start`. Returns seconds.
    pub fn self_times(&self, start: u64, end: u64) -> (BTreeMap<Label, f64>, f64) {
        let spans = self.spans();
        let mut labels: Vec<Label> = spans.iter().map(|s| s.label).collect();
        labels.sort();
        labels.dedup();
        let slot = |l: Label| labels.binary_search(&l).expect("label present");
        // (time, +1/-1, slot): ends sort before starts at equal times.
        let mut edges: Vec<(u64, i8, usize)> = Vec::with_capacity(spans.len() * 2);
        for s in &spans {
            let (a, b) = (s.start.max(start), s.end.min(end));
            if a < b {
                edges.push((a, 1, slot(s.label)));
                edges.push((b, -1, slot(s.label)));
            }
        }
        edges.sort_unstable();
        let mut open = vec![0i64; labels.len()];
        let mut acc = vec![0u64; labels.len()];
        let mut uncovered = 0u64;
        let mut t = start;
        for (at, delta, k) in edges {
            if at > t {
                match open.iter().position(|&c| c > 0) {
                    Some(top) => acc[top] += at - t,
                    None => uncovered += at - t,
                }
                t = at;
            }
            open[k] += i64::from(delta);
        }
        uncovered += end.saturating_sub(t);
        let parts = labels
            .iter()
            .zip(acc)
            .map(|(&l, ns)| (l, ns as f64 / 1e9))
            .collect();
        (parts, uncovered as f64 / 1e9)
    }

    /// Writes every span as one JSON line (`{"span":..,"start_ns":..,
    /// "dur_ns":..}`), then every counter (`{"counter":..,"value":..}`).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let inner = self.inner.lock().expect("span lock");
        let mut out = String::with_capacity(inner.spans.len() * 64);
        for s in &inner.spans {
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.label.name(),
                s.start,
                s.dur()
            );
        }
        for (k, v) in &inner.counters {
            let _ = writeln!(out, "{{\"counter\":\"{k}\",\"value\":{v}}}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Sink for SpanStore {
    fn record(&self, event: Event) {
        match event {
            Event::Span {
                subsystem,
                name,
                start_ns,
                dur_ns,
            } => {
                let Some(label) = Label::of_program_span(&subsystem, &name) else {
                    return;
                };
                let offset = self.recorder_offset.load(Ordering::Relaxed);
                let start = start_ns + offset;
                let mut inner = self.inner.lock().expect("span lock");
                // The scheduler reports table build and GA evolve as
                // back-to-back durations stamped at the same end; move
                // the build so it ends where the evolve starts.
                match label {
                    Label::TableBuild => inner.pending_table_build = Some(inner.spans.len()),
                    Label::GaEvolve => {
                        if let Some(i) = inner.pending_table_build.take() {
                            let build = &mut inner.spans[i];
                            let d = build.dur();
                            build.end = start;
                            build.start = start.saturating_sub(d);
                        }
                    }
                    _ => {}
                }
                inner.spans.push(Span {
                    label,
                    start,
                    end: start + dur_ns,
                });
            }
            Event::Count {
                subsystem,
                name,
                value,
            } => {
                self.inner
                    .lock()
                    .expect("span lock")
                    .counters
                    .insert(format!("{subsystem}/{name}"), value);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_by_priority() {
        let store = SpanStore::new();
        store.push(Label::Reschedule, 0, 100);
        store.push(Label::Policy, 10, 90);
        store.push(Label::GaEvolve, 20, 50);
        store.push(Label::Refit, 150, 170);
        store.push(Label::Refit, 160, 180);
        let (parts, uncovered) = store.self_times(0, 200);
        let ns = |l| (parts[&l] * 1e9).round() as u64;
        assert_eq!(ns(Label::Reschedule), 20);
        assert_eq!(ns(Label::Policy), 50);
        assert_eq!(ns(Label::GaEvolve), 30);
        assert_eq!(ns(Label::Refit), 30);
        assert_eq!((uncovered * 1e9).round() as u64, 70);
    }
}
