//! Projection between syscall records and the DSL's generic events.
//!
//! Each syscall kind has a fixed event schema combining its *request*
//! fields (known before execution) and its *response* fields (the
//! leader's result). The paper's rules match on both — e.g. Figure 4
//! treats the buffer a `read` returned as matchable. [`syscall_event`]
//! projects a logged record into its event; [`record_of_event`] is its
//! inverse, which turns an event a rule template computed into the
//! record the follower checks its call against ([`record_matches`],
//! request fields only) and whose result it replays.
//!
//! Schemas (`*` marks request fields used for comparison):
//!
//! | event | fields |
//! |---|---|
//! | `listen(port*, fd)` | port, returned listener fd |
//! | `accept(listener*, conn)` | listener fd, returned connection fd |
//! | `read(fd*, data, n)` | fd, returned bytes (Latin-1 projected), length |
//! | `write(fd*, data*, n)` | fd, payload, bytes written |
//! | `close(fd*)` | fd |
//! | `epoll_create(fd)` | returned fd |
//! | `epoll_ctl(ep*, op*, fd*)` | epoll fd, `"add"`/`"del"`, target fd |
//! | `epoll_wait(ep*, fds)` | epoll fd, ready fd list |
//! | `open(path*, mode*, fd)` | path, mode name, returned fd |
//! | `unlink(path*)` | path |
//! | `stat(path*, kind, size)` | path, `"file"`/`"dir"`, size |
//! | `list(path*, names)` | path, entry list |
//! | `mkdir(path*)` | path |
//! | `rename(from*, to*)` | paths |
//! | `now(t)` | leader timestamp |
//! | `pid(p)` | leader logical pid |
//!
//! Protocol payloads are projected as strings through a **lossless
//! Latin-1 byte↔char mapping** (`0x00..=0xFF` ↔ `U+0000..=U+00FF`): every
//! byte sequence round-trips exactly, so binary payloads never produce
//! spurious divergences, while ASCII protocol text reads naturally in
//! rules. Rule-synthesized strings containing characters above `U+00FF`
//! cannot be encoded back into bytes and are reported as malformed.

use dsl::{ArgKind, Event, Value};
use vos::{Buf, Errno, Fd, FileStat, NodeKind, OpenMode, SysRet, Syscall, SyscallKind};

use crate::event::SyscallRecord;

/// The argument kinds of each syscall's event: the one schema that
/// [`event_signatures`], [`event_arity`] and [`record_of_event`] read.
fn event_args(kind: SyscallKind) -> &'static [ArgKind] {
    use ArgKind::{Int, List, Str};
    match kind {
        SyscallKind::Listen | SyscallKind::Accept => &[Int, Int],
        SyscallKind::Read | SyscallKind::Write | SyscallKind::EpollCtl => &[Int, Str, Int],
        SyscallKind::Close | SyscallKind::EpollCreate | SyscallKind::Now | SyscallKind::Pid => {
            &[Int]
        }
        SyscallKind::EpollWait => &[Int, List],
        SyscallKind::FsOpen | SyscallKind::FsStat => &[Str, Str, Int],
        SyscallKind::FsUnlink | SyscallKind::FsMkdir => &[Str],
        SyscallKind::FsList => &[Str, List],
        SyscallKind::FsRename => &[Str, Str],
    }
}

fn fd_val(fd: Fd) -> Value {
    Value::Int(fd.as_raw() as i64)
}

const MODES: [OpenMode; 4] = [
    OpenMode::Read,
    OpenMode::Write,
    OpenMode::Append,
    OpenMode::CreateNew,
];

fn mode_name(mode: OpenMode) -> &'static str {
    match mode {
        OpenMode::Read => "read",
        OpenMode::Write => "write",
        OpenMode::Append => "append",
        OpenMode::CreateNew => "create_new",
    }
}

fn op_name(op: vos::CtlOp) -> &'static str {
    match op {
        vos::CtlOp::Add => "add",
        vos::CtlOp::Del => "del",
    }
}

fn node_name(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::File => "file",
        NodeKind::Dir => "dir",
    }
}

/// The one of `all` that `name_of` calls `name`: the inverse of the
/// naming functions above.
fn named<T: Copy>(all: &[T], name_of: fn(T) -> &'static str, name: &str) -> Option<T> {
    all.iter().copied().find(|&v| name_of(v) == name)
}

/// Lossless byte→string projection (Latin-1: each byte is one char).
fn bytes_val(data: &[u8]) -> Value {
    Value::Str(data.iter().map(|b| char::from(*b)).collect())
}

/// Inverse of [`bytes_val`].
///
/// # Errors
/// Fails when the string contains characters above `U+00FF`, which no
/// byte sequence projects to (a rule-authoring mistake).
fn str_to_bytes(s: &str) -> Result<Buf, String> {
    s.chars()
        .map(|c| {
            let code = c as u32;
            u8::try_from(code).map_err(|_| {
                format!("character {c:?} (U+{code:04X}) cannot appear in a byte payload")
            })
        })
        .collect()
}

/// The syscall event vocabulary as a rule-checker signature table: one
/// [`dsl::EventSig`] per projected event, kinds matching what
/// [`syscall_event`] actually emits. This is what the deployment gate
/// and `harness lint` check pattern/template events against.
pub fn event_signatures() -> Vec<dsl::EventSig> {
    SyscallKind::ALL
        .into_iter()
        .map(|kind| dsl::EventSig::new(kind.name(), event_args(kind)))
        .collect()
}

/// Projects a logged `(call, result)` pair into the DSL event the rule
/// engine sees.
///
/// Result fields are *borrowed* from `ret` (the [`SysRet::as_data`]
/// family); nothing about the logged record is cloned beyond the values
/// the event itself carries.
pub fn syscall_event(call: &Syscall, ret: &SysRet) -> Event {
    let error = ret.as_err().map(|e| e.as_str().to_string());
    let ok = error.is_none();
    let ret_fd = || ret.as_fd().map(fd_val).unwrap_or(Value::Int(-1));
    let args = match call {
        Syscall::Listen { port } => vec![
            Value::Int(*port as i64),
            if ok { ret_fd() } else { Value::Int(-1) },
        ],
        Syscall::Accept { listener } => vec![
            fd_val(*listener),
            if ok { ret_fd() } else { Value::Int(-1) },
        ],
        Syscall::Read { fd, .. } | Syscall::ReadTimeout { fd, .. } => {
            let data: &[u8] = if ok {
                ret.as_data().map(|d| d.as_slice()).unwrap_or(&[])
            } else {
                &[]
            };
            vec![
                fd_val(*fd),
                bytes_val(data),
                if ok {
                    Value::Int(data.len() as i64)
                } else {
                    Value::Int(-1)
                },
            ]
        }
        Syscall::Write { fd, data } => vec![
            fd_val(*fd),
            bytes_val(data),
            if ok {
                Value::Int(ret.as_size().unwrap_or(0) as i64)
            } else {
                Value::Int(-1)
            },
        ],
        Syscall::Close { fd } => vec![fd_val(*fd)],
        Syscall::EpollCreate => vec![if ok { ret_fd() } else { Value::Int(-1) }],
        Syscall::EpollCtl { ep, op, fd } => vec![
            fd_val(*ep),
            Value::Str(op_name(*op).to_string()),
            fd_val(*fd),
        ],
        Syscall::EpollWait { ep, .. } => {
            let fds = if ok { ret.as_fds().unwrap_or(&[]) } else { &[] };
            vec![
                fd_val(*ep),
                Value::List(fds.iter().copied().map(fd_val).collect()),
            ]
        }
        Syscall::FsOpen { path, mode } => vec![
            Value::Str(path.clone()),
            Value::Str(mode_name(*mode).to_string()),
            if ok { ret_fd() } else { Value::Int(-1) },
        ],
        Syscall::FsUnlink { path } => vec![Value::Str(path.clone())],
        Syscall::FsStat { path } => {
            let (kind, size) = if ok {
                match ret.as_stat() {
                    Some(st) => (node_name(st.kind), st.size as i64),
                    None => ("", -1),
                }
            } else {
                ("", -1)
            };
            vec![
                Value::Str(path.clone()),
                Value::Str(kind.to_string()),
                Value::Int(size),
            ]
        }
        Syscall::FsList { path } => {
            let names = if ok {
                ret.as_names().unwrap_or(&[])
            } else {
                &[]
            };
            vec![
                Value::Str(path.clone()),
                Value::List(names.iter().cloned().map(Value::Str).collect()),
            ]
        }
        Syscall::FsMkdir { path } => vec![Value::Str(path.clone())],
        Syscall::FsRename { from, to } => {
            vec![Value::Str(from.clone()), Value::Str(to.clone())]
        }
        Syscall::Now => vec![if ok {
            Value::Int(ret.as_time().unwrap_or(0) as i64)
        } else {
            Value::Int(-1)
        }],
        Syscall::Pid => vec![if ok {
            Value::Int(ret.as_pid().unwrap_or(0) as i64)
        } else {
            Value::Int(-1)
        }],
    };
    match error {
        Some(e) => Event::with_error(call.kind().name(), args, e),
        None => Event::new(call.kind().name(), args),
    }
}

/// Argument count of the event [`syscall_event`] projects `call` into,
/// known without projecting it.
pub(crate) fn event_arity(call: &Syscall) -> usize {
    event_args(call.kind()).len()
}

fn int_of(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn str_of(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Does the follower's *attempted* syscall agree with an expected
/// record's call on the request fields? Response fields come from the
/// leader and are not compared, nor are a read's or a poll's `max` and
/// timeout.
///
/// The follower checks every call it replays with it: against a record
/// no rule rewrote, one a rule template copies verbatim, or the record
/// of an event a template computed ([`record_of_event`]). Payloads
/// compare as bytes, which for shared [`Buf`]s short-circuits on
/// pointer identity without touching the payload at all.
pub fn record_matches(expected: &Syscall, attempted: &Syscall) -> bool {
    // `Read` and `ReadTimeout` share a kind (and an event name): a
    // leader `read` may legitimately be replayed as `read_timeout`.
    if expected.kind() != attempted.kind() {
        return false;
    }
    match (expected, attempted) {
        (Syscall::Listen { port: a }, Syscall::Listen { port: b }) => a == b,
        (Syscall::Accept { listener: a }, Syscall::Accept { listener: b }) => a == b,
        (
            Syscall::Read { fd: a, .. } | Syscall::ReadTimeout { fd: a, .. },
            Syscall::Read { fd: b, .. } | Syscall::ReadTimeout { fd: b, .. },
        ) => a == b,
        (
            Syscall::Write {
                fd: a, data: da, ..
            },
            Syscall::Write {
                fd: b, data: db, ..
            },
        ) => a == b && da == db,
        (Syscall::Close { fd: a }, Syscall::Close { fd: b }) => a == b,
        (Syscall::EpollCreate, Syscall::EpollCreate) => true,
        (
            Syscall::EpollCtl {
                ep: ea,
                op: oa,
                fd: fa,
            },
            Syscall::EpollCtl {
                ep: eb,
                op: ob,
                fd: fb,
            },
        ) => ea == eb && oa == ob && fa == fb,
        (Syscall::EpollWait { ep: a, .. }, Syscall::EpollWait { ep: b, .. }) => a == b,
        (Syscall::FsOpen { path: pa, mode: ma }, Syscall::FsOpen { path: pb, mode: mb }) => {
            pa == pb && ma == mb
        }
        (Syscall::FsUnlink { path: a }, Syscall::FsUnlink { path: b })
        | (Syscall::FsStat { path: a }, Syscall::FsStat { path: b })
        | (Syscall::FsList { path: a }, Syscall::FsList { path: b })
        | (Syscall::FsMkdir { path: a }, Syscall::FsMkdir { path: b }) => a == b,
        (Syscall::FsRename { from: fa, to: ta }, Syscall::FsRename { from: fb, to: tb }) => {
            fa == fb && ta == tb
        }
        (Syscall::Now, Syscall::Now) | (Syscall::Pid, Syscall::Pid) => true,
        _ => false,
    }
}

/// Turns an event back into the record it projects from: the inverse of
/// [`syscall_event`]. The follower calls it where a rule template
/// computes an event, so a computed expectation is checked and replayed
/// exactly as a logged record is.
///
/// Fields that no event carries (a read's `max`, a poll's `max` and
/// timeout) come back as 0: [`record_matches`] does not compare them.
/// A failed event's response fields are placeholders and are not read,
/// nor is a read's length, which its data already gives.
///
/// # Errors
/// Describes the event when it names no syscall, has another number of
/// arguments than its schema, has an argument of the wrong shape, or
/// carries an unknown errno: an update-spec (rule) bug, which the
/// follower reports as a divergence.
pub fn record_of_event(event: &Event) -> Result<SyscallRecord, String> {
    let kind = SyscallKind::from_name(&event.name)
        .ok_or_else(|| format!("expected event {event} names no syscall"))?;
    let arity = event_args(kind).len();
    if event.arity() != arity {
        return Err(format!(
            "expected event {event} is malformed: `{}` takes {arity} arguments",
            event.name
        ));
    }
    let a = &event.args;
    let bad = |i: usize| format!("expected event {event} has malformed argument {}", i + 1);
    let int = |i: usize| int_of(&a[i]).ok_or_else(|| bad(i));
    let string = |i: usize| str_of(&a[i]).ok_or_else(|| bad(i));
    let list = |i: usize| match &a[i] {
        Value::List(items) => Ok(items.as_slice()),
        _ => Err(bad(i)),
    };
    let fd_of = |v: &Value| {
        int_of(v)
            .and_then(|n| u64::try_from(n).ok())
            .map(Fd::from_raw)
    };
    let fd = |i: usize| fd_of(&a[i]).ok_or_else(|| bad(i));
    let path = |i: usize| string(i).map(str::to_string);
    let bytes = |i: usize| str_to_bytes(string(i)?).map_err(|e| format!("{}: {e}", bad(i)));
    let call = match kind {
        SyscallKind::Listen => Syscall::Listen {
            port: u16::try_from(int(0)?).map_err(|_| bad(0))?,
        },
        SyscallKind::Accept => Syscall::Accept { listener: fd(0)? },
        SyscallKind::Read => Syscall::Read { fd: fd(0)?, max: 0 },
        SyscallKind::Write => Syscall::Write {
            fd: fd(0)?,
            data: bytes(1)?,
        },
        SyscallKind::Close => Syscall::Close { fd: fd(0)? },
        SyscallKind::EpollCreate => Syscall::EpollCreate,
        SyscallKind::EpollCtl => Syscall::EpollCtl {
            ep: fd(0)?,
            op: named(&[vos::CtlOp::Add, vos::CtlOp::Del], op_name, string(1)?)
                .ok_or_else(|| bad(1))?,
            fd: fd(2)?,
        },
        SyscallKind::EpollWait => Syscall::EpollWait {
            ep: fd(0)?,
            max: 0,
            timeout_ms: 0,
        },
        SyscallKind::FsOpen => Syscall::FsOpen {
            path: path(0)?,
            mode: named(&MODES, mode_name, string(1)?).ok_or_else(|| bad(1))?,
        },
        SyscallKind::FsUnlink => Syscall::FsUnlink { path: path(0)? },
        SyscallKind::FsStat => Syscall::FsStat { path: path(0)? },
        SyscallKind::FsList => Syscall::FsList { path: path(0)? },
        SyscallKind::FsMkdir => Syscall::FsMkdir { path: path(0)? },
        SyscallKind::FsRename => Syscall::FsRename {
            from: path(0)?,
            to: path(1)?,
        },
        SyscallKind::Now => Syscall::Now,
        SyscallKind::Pid => Syscall::Pid,
    };
    if let Some(name) = &event.error {
        let errno = Errno::from_name(name)
            .ok_or_else(|| format!("unknown errno {name:?} in expected event {event}"))?;
        return Ok(SyscallRecord {
            call,
            ret: SysRet::Err(errno),
        });
    }
    let ret = match kind {
        SyscallKind::Listen | SyscallKind::Accept => SysRet::Fd(fd(1)?),
        SyscallKind::Read => SysRet::Data(bytes(1)?),
        SyscallKind::Write => SysRet::Size(int(2)?.max(0) as usize),
        SyscallKind::Close
        | SyscallKind::EpollCtl
        | SyscallKind::FsUnlink
        | SyscallKind::FsMkdir
        | SyscallKind::FsRename => SysRet::Unit,
        SyscallKind::EpollCreate => SysRet::Fd(fd(0)?),
        SyscallKind::EpollWait => SysRet::Fds(
            list(1)?
                .iter()
                .map(|v| fd_of(v).ok_or_else(|| bad(1)))
                .collect::<Result<_, _>>()?,
        ),
        SyscallKind::FsOpen => SysRet::Fd(fd(2)?),
        SyscallKind::FsStat => SysRet::Stat(FileStat {
            kind: named(&[NodeKind::File, NodeKind::Dir], node_name, string(1)?)
                .ok_or_else(|| bad(1))?,
            size: int(2)?.max(0) as u64,
        }),
        SyscallKind::FsList => SysRet::Names(
            list(1)?
                .iter()
                .map(|v| str_of(v).map(str::to_string).ok_or_else(|| bad(1)))
                .collect::<Result<_, _>>()?,
        ),
        SyscallKind::Now => SysRet::Time(int(0)?.max(0) as u64),
        SyscallKind::Pid => SysRet::Pid(u32::try_from(int(0)?).map_err(|_| bad(0))?),
    };
    Ok(SyscallRecord { call, ret })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd(n: u64) -> Fd {
        Fd::from_raw(n)
    }

    /// The signature table stays in lock-step with the syscall
    /// vocabulary: every declared event names a real syscall kind, and
    /// every kind is declared.
    #[test]
    fn event_signatures_cover_the_syscall_vocabulary() {
        let sigs = event_signatures();
        for sig in &sigs {
            assert!(
                vos::SyscallKind::from_name(&sig.name).is_some(),
                "signature for unknown syscall `{}`",
                sig.name
            );
        }
        let mut names: Vec<&str> = sigs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), sigs.len(), "duplicate signature");
        assert_eq!(sigs.len(), 16);
    }

    /// Projection followed by [`record_of_event`] gives back the
    /// original result, and a call that agrees with the original one,
    /// for every syscall kind, failed or not.
    #[test]
    fn project_reconstruct_round_trip() {
        let cases: Vec<(Syscall, SysRet)> = vec![
            (Syscall::Listen { port: 80 }, SysRet::Fd(fd(3))),
            (Syscall::Accept { listener: fd(3) }, SysRet::Fd(fd(9))),
            (
                Syscall::Read { fd: fd(9), max: 64 },
                SysRet::Data(b"GET k\r\n".to_vec().into()),
            ),
            (
                Syscall::ReadTimeout {
                    fd: fd(9),
                    max: 64,
                    timeout_ms: 5,
                },
                SysRet::Data(b"x".to_vec().into()),
            ),
            (
                Syscall::Write {
                    fd: fd(9),
                    data: b"+OK\r\n".to_vec().into(),
                },
                SysRet::Size(5),
            ),
            (Syscall::Close { fd: fd(9) }, SysRet::Unit),
            (Syscall::EpollCreate, SysRet::Fd(fd(4))),
            (
                Syscall::EpollCtl {
                    ep: fd(4),
                    op: vos::CtlOp::Add,
                    fd: fd(9),
                },
                SysRet::Unit,
            ),
            (
                Syscall::EpollWait {
                    ep: fd(4),
                    max: 8,
                    timeout_ms: 10,
                },
                SysRet::Fds(vec![fd(9), fd(3)]),
            ),
            (
                Syscall::FsOpen {
                    path: "/f".into(),
                    mode: OpenMode::Read,
                },
                SysRet::Fd(fd(11)),
            ),
            (Syscall::FsUnlink { path: "/f".into() }, SysRet::Unit),
            (
                Syscall::FsStat { path: "/f".into() },
                SysRet::Stat(FileStat {
                    kind: NodeKind::File,
                    size: 42,
                }),
            ),
            (
                Syscall::FsList { path: "/".into() },
                SysRet::Names(vec!["a".into(), "b".into()]),
            ),
            (Syscall::FsMkdir { path: "/d".into() }, SysRet::Unit),
            (
                Syscall::FsRename {
                    from: "/a".into(),
                    to: "/b".into(),
                },
                SysRet::Unit,
            ),
            (Syscall::Now, SysRet::Time(123_456)),
            (Syscall::Pid, SysRet::Pid(101)),
        ];
        for (call, ret) in cases {
            let failed = SysRet::Err(Errno::ConnReset);
            for ret in [ret, failed] {
                let event = syscall_event(&call, &ret);
                assert_eq!(event_arity(&call), event.arity(), "arity of {event}");
                let back = record_of_event(&event).unwrap();
                assert_eq!(back.ret, ret, "round trip failed for {event}");
                assert!(
                    record_matches(&back.call, &call),
                    "self-match failed for {event}"
                );
            }
        }
    }

    #[test]
    fn error_results_round_trip() {
        let call = Syscall::Read { fd: fd(5), max: 16 };
        let ret = SysRet::Err(Errno::TimedOut);
        let event = syscall_event(&call, &ret);
        assert_eq!(event.error.as_deref(), Some("timed out"));
        let back = record_of_event(&event).unwrap();
        assert!(record_matches(&back.call, &call));
        assert_eq!(back.ret, ret);
    }

    #[test]
    fn read_matches_on_fd_only() {
        let leader = Syscall::Read { fd: fd(5), max: 64 };
        let event = syscall_event(&leader, &SysRet::Data(b"data".to_vec().into()));
        let expected = record_of_event(&event).unwrap().call;
        // Follower may use a different max / timeout form.
        let follower = Syscall::ReadTimeout {
            fd: fd(5),
            max: 128,
            timeout_ms: 50,
        };
        assert!(record_matches(&expected, &follower));
        let other_fd = Syscall::Read { fd: fd(6), max: 64 };
        assert!(!record_matches(&expected, &other_fd));
    }

    #[test]
    fn write_matches_on_fd_and_payload() {
        let leader = Syscall::Write {
            fd: fd(5),
            data: b"+OK\r\n".to_vec().into(),
        };
        let event = syscall_event(&leader, &SysRet::Size(5));
        let expected = record_of_event(&event).unwrap().call;
        let same = Syscall::Write {
            fd: fd(5),
            data: b"+OK\r\n".to_vec().into(),
        };
        assert!(record_matches(&expected, &same));
        let different_payload = Syscall::Write {
            fd: fd(5),
            data: b"+NO\r\n".to_vec().into(),
        };
        assert!(
            !record_matches(&expected, &different_payload),
            "payload divergence must be caught"
        );
    }

    #[test]
    fn kind_mismatch_never_matches() {
        let event = syscall_event(&Syscall::Now, &SysRet::Time(1));
        let expected = record_of_event(&event).unwrap().call;
        assert!(!record_matches(&expected, &Syscall::Pid));
    }

    #[test]
    fn rule_synthesized_read_event_reconstructs() {
        // What Figure 4 Rule 1 emits: read(fd, "bad-cmd", 7).
        let event = Event::new(
            "read",
            vec![Value::Int(5), Value::Str("bad-cmd".into()), Value::Int(7)],
        );
        let attempted = Syscall::ReadTimeout {
            fd: fd(5),
            max: 64,
            timeout_ms: 10,
        };
        let record = record_of_event(&event).unwrap();
        assert!(record_matches(&record.call, &attempted));
        assert_eq!(record.ret, SysRet::Data(b"bad-cmd".to_vec().into()));
    }

    #[test]
    fn malformed_rule_event_is_reported() {
        let int = Value::Int;
        let s = |v: &str| Value::Str(v.into());
        for event in [
            // A read's data must be a string.
            Event::new("read", vec![int(5), int(99), int(7)]),
            // Fewer arguments than the schema: a `write(fd)` template.
            Event::new("write", vec![int(5)]),
            // More arguments than the schema.
            Event::new("close", vec![int(5), int(6)]),
            // A payload no byte string projects to.
            Event::new("write", vec![int(5), s("caf\u{e9}\u{2603}"), int(5)]),
            // Names that are not in the vocabulary.
            Event::new("epoll_ctl", vec![int(4), s("mod"), int(5)]),
            Event::new("open", vec![s("/f"), s("exec"), int(3)]),
            Event::new("stat", vec![s("/f"), s("link"), int(0)]),
            // Numbers out of range: a port, a negative fd, a pid.
            Event::new("listen", vec![int(70_000), int(3)]),
            Event::new("close", vec![int(-1)]),
            Event::new("pid", vec![int(1 << 40)]),
            // A ready list holding a string.
            Event::new("epoll_wait", vec![int(4), Value::List(vec![s("9")])]),
        ] {
            let err = record_of_event(&event).unwrap_err();
            assert!(err.contains("malformed"), "{event}: {err}");
        }
        let err = record_of_event(&Event::new("fork", vec![])).unwrap_err();
        assert!(err.contains("names no syscall"), "{err}");
    }

    #[test]
    fn unknown_errno_in_event_is_reported() {
        let args = vec![Value::Int(5), Value::Str(String::new()), Value::Int(-1)];
        let event = Event::with_error("read", args, "made-up failure");
        let err = record_of_event(&event).unwrap_err();
        assert!(err.contains("unknown errno"), "{err}");
    }
}
