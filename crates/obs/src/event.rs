//! The event taxonomy captured by the flight recorder.
//!
//! Each [`ObsEvent`] belongs to a *lane* (one per variant) and carries
//! an [`ObsKind`] payload describing that variant's stream. Session-level
//! facts (stage changes, role changes, retirements) live in the core
//! timeline, not here. Kinds are split into a **canonical** class — a
//! pure function of the scenario plan, included in replay-stable JSON
//! exports — and an **auxiliary** class that depends on real-time
//! interleaving (idle polls, rule windows over idle traffic) and is kept
//! for human forensics only. See the crate docs for the full determinism
//! contract.

use crate::json::JsonObject;

/// One recorded observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Which per-variant buffer this event belongs to.
    pub lane: u32,
    /// Monotonic per-lane event index, assigned at record time. Counts
    /// all events in the lane (both classes), so gaps in a filtered
    /// view reveal how much auxiliary traffic was interleaved.
    pub index: u64,
    /// Timestamp from the recorder's [`TimeSource`](crate::TimeSource).
    /// The kernel clock follows wall time, so canonical dumps leave it
    /// out.
    pub at_nanos: u64,
    pub kind: ObsKind,
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsKind {
    /// A syscall issued by a variant, with its result.
    Syscall {
        /// Role at issue time (`"single"`, `"leader"`, `"follower"`).
        /// Excluded from canonical exports: near a role flip the same
        /// semantic call may execute under either label depending on
        /// wall-clock timing, while its content stays identical.
        role: &'static str,
        /// Rendered call, e.g. `write(5, 11 bytes)`.
        call: String,
        /// Rendered result, e.g. `Size(11)` or `Err(WouldBlock)`.
        ret: String,
        /// Whether the call/result pair is part of the semantic request
        /// stream (true) or timing/poll noise (false).
        semantic: bool,
        /// Semantic ring-stream position (1-based), present when the
        /// record entered or was replayed from the leader/follower
        /// ring. This is the cross-variant alignment key.
        pos: Option<u64>,
        /// Raw ring sequence number, when known. Not replay-stable
        /// (idle traffic also consumes sequence numbers), so it is
        /// shown in text dumps but excluded from canonical JSON.
        raw_pos: Option<u64>,
    },
    /// An in-band control record crossed the ring (e.g. `Demote`).
    Control {
        /// `"demote-push"` on the leader side, `"demote-pop"` on the
        /// follower side.
        what: &'static str,
        /// Semantic stream position at which the record sits.
        pos: u64,
    },
    /// A DSL rewrite rule matched in the follower's expectation window.
    RuleMatch {
        rule: String,
        consumed: usize,
        emitted: usize,
        pos: u64,
    },
    /// A DSU state transformer ran during follower boot.
    Transform {
        description: String,
        ok: bool,
        /// Wall or virtual duration depending on the wrapping layer's
        /// time source. Excluded from canonical JSON (durations are
        /// timing-dependent); surfaced through metrics instead.
        nanos: u64,
    },
    /// The follower detected a divergence from the leader's stream.
    Divergence {
        /// Semantic stream position of the mismatching record.
        pos: u64,
        expected: String,
        attempted: String,
        detail: String,
    },
    /// A variant's thread died with a panic that was not a typed
    /// retirement signal.
    Crashed { message: String },
}

impl ObsKind {
    /// Whether this event is part of the canonical, replay-stable
    /// export. See the crate-level determinism contract.
    pub fn canonical(&self) -> bool {
        match self {
            ObsKind::Syscall { semantic, .. } => *semantic,
            ObsKind::Control { .. }
            | ObsKind::Transform { .. }
            | ObsKind::Divergence { .. }
            | ObsKind::Crashed { .. } => true,
            ObsKind::RuleMatch { .. } => false,
        }
    }

    /// Short tag used in text dumps and JSON `"kind"` fields.
    pub fn tag(&self) -> &'static str {
        match self {
            ObsKind::Syscall { .. } => "syscall",
            ObsKind::Control { .. } => "control",
            ObsKind::RuleMatch { .. } => "rule",
            ObsKind::Transform { .. } => "transform",
            ObsKind::Divergence { .. } => "divergence",
            ObsKind::Crashed { .. } => "crashed",
        }
    }

    /// The semantic stream position this event is anchored at, if any.
    pub fn pos(&self) -> Option<u64> {
        match self {
            ObsKind::Syscall { pos, .. } => *pos,
            ObsKind::Control { pos, .. } => Some(*pos),
            ObsKind::RuleMatch { pos, .. } => Some(*pos),
            ObsKind::Divergence { pos, .. } => Some(*pos),
            _ => None,
        }
    }

    /// Render the canonical JSON object for this kind. Only fields that
    /// are a pure function of the scenario plan are included; callers
    /// must have already filtered on [`canonical`](Self::canonical).
    pub(crate) fn canonical_json(&self, out: &mut JsonObject) {
        out.field_str("kind", self.tag());
        match self {
            ObsKind::Syscall { call, ret, pos, .. } => {
                out.field_str("call", call);
                out.field_str("ret", ret);
                if let Some(p) = pos {
                    out.field_u64("pos", *p);
                }
            }
            ObsKind::Control { what, pos } => {
                out.field_str("what", what);
                out.field_u64("pos", *pos);
            }
            ObsKind::Transform {
                description, ok, ..
            } => {
                out.field_str("description", description);
                out.field_bool("ok", *ok);
            }
            ObsKind::Divergence {
                pos,
                expected,
                attempted,
                detail,
            } => {
                out.field_u64("pos", *pos);
                out.field_str("expected", expected);
                out.field_str("attempted", attempted);
                out.field_str("detail", detail);
            }
            ObsKind::Crashed { message } => {
                out.field_str("message", message);
            }
            // The auxiliary kind never reaches canonical rendering.
            ObsKind::RuleMatch { .. } => {}
        }
    }

    /// One-line human rendering for text dumps.
    pub fn render(&self) -> String {
        match self {
            ObsKind::Syscall {
                role,
                call,
                ret,
                semantic,
                pos,
                raw_pos,
            } => {
                let mut line = format!("[{role}] {call} -> {ret}");
                if let Some(p) = pos {
                    line.push_str(&format!(" @pos {p}"));
                }
                if let Some(r) = raw_pos {
                    line.push_str(&format!(" (raw seq {r})"));
                }
                if !semantic {
                    line.push_str(" [aux]");
                }
                line
            }
            ObsKind::Control { what, pos } => format!("control {what} @pos {pos}"),
            ObsKind::RuleMatch {
                rule,
                consumed,
                emitted,
                pos,
            } => {
                format!("rule '{rule}' matched ({consumed} consumed, {emitted} emitted) @pos {pos}")
            }
            ObsKind::Transform {
                description,
                ok,
                nanos,
            } => {
                let status = if *ok { "ok" } else { "FAILED" };
                format!("transform '{description}' {status} ({nanos} ns)")
            }
            ObsKind::Divergence {
                pos,
                expected,
                attempted,
                detail,
            } => format!(
                "DIVERGENCE @pos {pos}: expected {expected}, attempted {attempted} ({detail})"
            ),
            ObsKind::Crashed { message } => format!("crashed: {message}"),
        }
    }
}

impl ObsEvent {
    /// Render this event's canonical JSON object (kind payload only;
    /// index and timestamps are intentionally omitted — event indexes
    /// count auxiliary traffic and are not replay-stable).
    pub fn canonical_json(&self) -> String {
        let mut obj = JsonObject::new();
        self.kind.canonical_json(&mut obj);
        obj.finish()
    }

    /// One-line human rendering, prefixed with index and timestamp.
    pub fn render(&self) -> String {
        format!(
            "#{:<5} t={:<12} {}",
            self.index,
            self.at_nanos,
            self.kind.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_classes() {
        let sem = ObsKind::Syscall {
            role: "leader",
            call: "write(5, 3 bytes)".into(),
            ret: "Size(3)".into(),
            semantic: true,
            pos: Some(7),
            raw_pos: Some(42),
        };
        assert!(sem.canonical());
        let aux = ObsKind::Syscall {
            role: "leader",
            call: "epoll_wait".into(),
            ret: "Fds([])".into(),
            semantic: false,
            pos: None,
            raw_pos: None,
        };
        assert!(!aux.canonical());
        assert!(ObsKind::Divergence {
            pos: 1,
            expected: String::new(),
            attempted: String::new(),
            detail: String::new(),
        }
        .canonical());
        assert!(!ObsKind::RuleMatch {
            rule: "r".into(),
            consumed: 1,
            emitted: 1,
            pos: 1,
        }
        .canonical());
    }

    #[test]
    fn canonical_json_omits_role_and_raw_seq() {
        let ev = ObsEvent {
            lane: 0,
            index: 9,
            at_nanos: 123,
            kind: ObsKind::Syscall {
                role: "leader",
                call: "write(5, 3 bytes)".into(),
                ret: "Size(3)".into(),
                semantic: true,
                pos: Some(7),
                raw_pos: Some(42),
            },
        };
        let json = ev.canonical_json();
        assert!(json.contains("\"pos\":7"), "{json}");
        assert!(!json.contains("leader"), "{json}");
        assert!(!json.contains("42"), "{json}");
        assert!(!json.contains("123"), "{json}");
    }
}
