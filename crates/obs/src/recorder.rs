//! The flight recorder proper: bounded per-lane event capture, plus the
//! forensics dump produced when a chaos seed fails.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{ObsEvent, ObsKind};
use crate::json::{self, JsonObject};
use crate::time::TimeSource;

/// Per-lane storage. Semantic (canonical) and auxiliary events are
/// bounded independently: auxiliary traffic (idle polls, rule windows)
/// varies run-to-run, and sharing one buffer would let that noise evict
/// different semantic events on each replay — breaking byte-identity of
/// canonical dumps. The shared `next_index` keeps a single interleaved
/// ordering across both classes for human-readable text dumps.
#[derive(Debug, Default)]
struct LaneBuf {
    sem: VecDeque<ObsEvent>,
    aux: VecDeque<ObsEvent>,
    next_index: u64,
}

/// Fixed-capacity, per-variant event recorder.
///
/// Each lane keeps the newest `capacity` semantic events and the newest
/// `capacity` auxiliary events; older ones are evicted FIFO. Recording
/// is a short mutex-guarded push — the recorder is only ever enabled in
/// harness/debug runs, and the disabled path (see [`Obs`]) never takes
/// the lock or constructs the event.
pub struct FlightRecorder {
    capacity: usize,
    time: Arc<dyn TimeSource>,
    lanes: Mutex<BTreeMap<u32, LaneBuf>>,
    recorded: AtomicU64,
    evicted: AtomicU64,
    rule_matches: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("recorded", &self.recorded.load(Ordering::Relaxed))
            .field("evicted", &self.evicted.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// Create a recorder keeping the newest `capacity` events per class
    /// per lane, timestamped by `time`.
    pub fn new(capacity: usize, time: Arc<dyn TimeSource>) -> Arc<Self> {
        Arc::new(Self {
            capacity: capacity.max(1),
            time,
            lanes: Mutex::new(BTreeMap::new()),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            rule_matches: AtomicU64::new(0),
        })
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append one event to `lane`, evicting the oldest event of the
    /// same class if the lane is full.
    pub fn record(&self, lane: u32, kind: ObsKind) {
        if let ObsKind::RuleMatch { .. } = kind {
            self.rule_matches.fetch_add(1, Ordering::Relaxed);
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let at_nanos = self.time.now_nanos();
        let canonical = kind.canonical();
        let mut lanes = self.lanes.lock();
        let buf = lanes.entry(lane).or_default();
        let index = buf.next_index;
        buf.next_index += 1;
        let queue = if canonical {
            &mut buf.sem
        } else {
            &mut buf.aux
        };
        if queue.len() == self.capacity {
            queue.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(ObsEvent {
            lane,
            index,
            at_nanos,
            kind,
        });
    }

    /// Total events recorded (both classes, all lanes, incl. evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events dropped to make room for newer ones.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    pub fn rule_matches(&self) -> u64 {
        self.rule_matches.load(Ordering::Relaxed)
    }

    /// Snapshot the surviving canonical events of one lane, oldest
    /// first. Test/diagnostic helper.
    pub fn lane_canonical(&self, lane: u32) -> Vec<ObsEvent> {
        let lanes = self.lanes.lock();
        lanes
            .get(&lane)
            .map(|buf| buf.sem.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Snapshot all surviving events of one lane interleaved by record
    /// order, oldest first.
    pub fn lane_all(&self, lane: u32) -> Vec<ObsEvent> {
        let lanes = self.lanes.lock();
        let Some(buf) = lanes.get(&lane) else {
            return Vec::new();
        };
        let mut all: Vec<ObsEvent> = buf.sem.iter().chain(buf.aux.iter()).cloned().collect();
        all.sort_by_key(|e| e.index);
        all
    }

    /// Build the forensics view: per-variant last-`last_n` canonical
    /// events, aligned by semantic stream position, with the first
    /// recorded divergence (if any) identified.
    pub fn forensics(&self, last_n: usize) -> Forensics {
        let lanes = self.lanes.lock();
        let mut divergence: Option<DivergencePoint> = None;
        let mut variants = Vec::new();
        for (&lane, buf) in lanes.iter() {
            let events: Vec<ObsEvent> = buf.sem.iter().rev().take(last_n).rev().cloned().collect();
            if divergence.is_none() {
                for ev in &events {
                    if let ObsKind::Divergence {
                        pos,
                        expected,
                        attempted,
                        detail,
                    } = &ev.kind
                    {
                        divergence = Some(DivergencePoint {
                            lane,
                            pos: *pos,
                            expected: expected.clone(),
                            attempted: attempted.clone(),
                            detail: detail.clone(),
                        });
                        break;
                    }
                }
            }
            variants.push(VariantDump { lane, events });
        }
        Forensics {
            divergence,
            variants,
        }
    }

    /// Human-readable dump of every lane (both event classes), for
    /// terminal output. Not replay-stable — includes auxiliary events,
    /// raw sequence numbers, and timestamps.
    pub fn render_text(&self, last_n: usize) -> String {
        let lanes = self.lanes.lock();
        let mut out = String::new();
        for (&lane, buf) in lanes.iter() {
            out.push_str(&format!("=== lane: variant {lane} ===\n"));
            let mut all: Vec<&ObsEvent> = buf.sem.iter().chain(buf.aux.iter()).collect();
            all.sort_by_key(|e| e.index);
            let skip = all.len().saturating_sub(last_n);
            for ev in all.into_iter().skip(skip) {
                out.push_str(&ev.render());
                out.push('\n');
            }
        }
        out
    }
}

/// A reference to the first divergence the recorder captured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergencePoint {
    /// Lane (variant id) of the diverging follower.
    pub lane: u32,
    /// Semantic stream position of the mismatch.
    pub pos: u64,
    pub expected: String,
    pub attempted: String,
    pub detail: String,
}

/// The canonical last-N events of one variant lane.
#[derive(Debug, Clone)]
pub struct VariantDump {
    pub lane: u32,
    pub events: Vec<ObsEvent>,
}

/// The full forensics view: one dump per variant, plus the divergence
/// point if one was recorded.
#[derive(Debug, Clone)]
pub struct Forensics {
    pub divergence: Option<DivergencePoint>,
    pub variants: Vec<VariantDump>,
}

impl Forensics {
    /// Render the canonical (replay-stable) JSON forensics object.
    ///
    /// Includes only semantic events, keyed by semantic stream
    /// position. Events in *other* lanes that share the divergence
    /// position are flagged `"at_divergence":true` so a reader can see
    /// what the leader logged where the follower disagreed.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        match &self.divergence {
            Some(d) => {
                let mut dv = JsonObject::new();
                dv.field_u64("variant", d.lane as u64);
                dv.field_u64("pos", d.pos);
                dv.field_str("expected", &d.expected);
                dv.field_str("attempted", &d.attempted);
                dv.field_str("detail", &d.detail);
                obj.field_raw("divergence", &dv.finish());
            }
            None => {
                obj.field_raw("divergence", "null");
            }
        }
        let variants = self.variants.iter().map(|v| {
            let mut vo = JsonObject::new();
            vo.field_u64("variant", v.lane as u64);
            let events = v.events.iter().map(|ev| {
                let mut eo = JsonObject::new();
                ev.kind.canonical_json(&mut eo);
                if let (Some(d), Some(p)) = (&self.divergence, ev.kind.pos()) {
                    if p == d.pos && v.lane != d.lane {
                        eo.field_bool("at_divergence", true);
                    }
                }
                eo.finish()
            });
            vo.field_raw("events", &json::array(events));
            vo.finish()
        });
        obj.field_raw("variants", &json::array(variants));
        obj.finish()
    }
}

/// The handle threaded through the stack. Cloning is cheap (an
/// `Option<Arc>`); the disabled handle records nothing and never
/// constructs events.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    rec: Option<Arc<FlightRecorder>>,
}

impl Obs {
    /// A recording handle backed by `rec`.
    pub fn enabled(rec: Arc<FlightRecorder>) -> Self {
        Self { rec: Some(rec) }
    }

    /// The no-op handle. [`Obs::emit`] on it is a single branch.
    pub fn disabled() -> Self {
        Self { rec: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// The backing recorder, when enabled.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.rec.as_ref()
    }

    /// Record an event on `lane`. The event is built lazily: when the
    /// handle is disabled, `make` is never called, so the hot path pays
    /// one branch and zero allocations.
    #[inline]
    pub fn emit(&self, lane: u32, make: impl FnOnce() -> ObsKind) {
        if let Some(rec) = &self.rec {
            rec.record(lane, make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ManualClock;

    fn recorder(cap: usize) -> Arc<FlightRecorder> {
        FlightRecorder::new(cap, Arc::new(ManualClock::new()))
    }

    fn sem(i: u64) -> ObsKind {
        ObsKind::Syscall {
            role: "leader",
            call: format!("write({i})"),
            ret: "Size(1)".into(),
            semantic: true,
            pos: Some(i),
            raw_pos: None,
        }
    }

    fn aux() -> ObsKind {
        ObsKind::Syscall {
            role: "leader",
            call: "epoll_wait".into(),
            ret: "Fds([])".into(),
            semantic: false,
            pos: None,
            raw_pos: None,
        }
    }

    #[test]
    fn eviction_keeps_newest_per_class() {
        let rec = recorder(3);
        for i in 0..5 {
            rec.record(0, sem(i));
        }
        let kept: Vec<u64> = rec
            .lane_canonical(0)
            .iter()
            .map(|e| e.kind.pos().unwrap())
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(rec.evicted(), 2);
    }

    #[test]
    fn aux_pressure_cannot_evict_semantic_events() {
        let rec = recorder(2);
        rec.record(0, sem(1));
        rec.record(0, sem(2));
        for _ in 0..100 {
            rec.record(0, aux());
        }
        let kept: Vec<u64> = rec
            .lane_canonical(0)
            .iter()
            .map(|e| e.kind.pos().unwrap())
            .collect();
        assert_eq!(kept, vec![1, 2]);
    }

    #[test]
    fn disabled_handle_never_builds_events() {
        let obs = Obs::disabled();
        let mut called = false;
        obs.emit(0, || {
            called = true;
            aux()
        });
        assert!(!called);
    }

    #[test]
    fn forensics_finds_divergence_and_marks_peers() {
        let rec = recorder(16);
        rec.record(0, sem(1));
        rec.record(0, sem(2));
        rec.record(1, sem(1));
        rec.record(
            1,
            ObsKind::Divergence {
                pos: 2,
                expected: "write(2)".into(),
                attempted: "write(9)".into(),
                detail: "payload mismatch".into(),
            },
        );
        let f = rec.forensics(8);
        let d = f.divergence.as_ref().expect("divergence found");
        assert_eq!((d.lane, d.pos), (1, 2));
        assert_eq!(f.variants.len(), 2);
        let json = f.to_json();
        assert!(
            json.contains("\"divergence\":{\"variant\":1,\"pos\":2"),
            "{json}"
        );
        // Variant 0's event at pos 2 is flagged as the peer record.
        assert!(json.contains("\"at_divergence\":true"), "{json}");
    }

    #[test]
    fn canonical_json_is_stable_across_timestamp_noise() {
        let build = |clock_skew: u64| {
            let clock = Arc::new(ManualClock::new());
            let rec = FlightRecorder::new(8, clock.clone() as Arc<dyn TimeSource>);
            for i in 0..4 {
                clock.advance(clock_skew);
                rec.record(0, sem(i));
                rec.record(0, aux());
            }
            rec.forensics(8).to_json()
        };
        assert_eq!(build(0), build(9999));
    }
}
