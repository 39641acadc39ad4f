//! Projection between syscall records and the DSL's generic events.
//!
//! Each syscall kind has a fixed event schema combining its *request*
//! fields (known before execution) and its *response* fields (the
//! leader's result). The paper's rules match on both — e.g. Figure 4
//! treats the buffer a `read` returned as matchable — so the follower
//! compares only the request fields ([`request_matches`]) and then takes
//! the response fields as its own result ([`reconstruct_result`]).
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

use dsl::{Event, Value};
use vos::{Buf, Errno, Fd, FileStat, NodeKind, OpenMode, SysRet, Syscall};

fn fd_val(fd: Fd) -> Value {
    Value::Int(fd.as_raw() as i64)
}

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

/// Lossless byte→string projection (Latin-1: each byte is one char).
fn bytes_val(data: &[u8]) -> Value {
    Value::Str(data.iter().map(|b| char::from(*b)).collect())
}

/// Inverse of [`bytes_val`].
///
/// # Errors
/// Fails when the string contains characters above `U+00FF`, which no
/// byte sequence projects to (a rule-authoring mistake).
fn str_to_bytes(s: &str) -> Result<Vec<u8>, String> {
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
    use dsl::ArgKind::{Int, List, Str};
    use dsl::EventSig;
    vec![
        EventSig::new("listen", &[Int, Int]),
        EventSig::new("accept", &[Int, Int]),
        EventSig::new("read", &[Int, Str, Int]),
        EventSig::new("write", &[Int, Str, Int]),
        EventSig::new("close", &[Int]),
        EventSig::new("epoll_create", &[Int]),
        EventSig::new("epoll_ctl", &[Int, Str, Int]),
        EventSig::new("epoll_wait", &[Int, List]),
        EventSig::new("open", &[Str, Str, Int]),
        EventSig::new("unlink", &[Str]),
        EventSig::new("stat", &[Str, Str, Int]),
        EventSig::new("list", &[Str, List]),
        EventSig::new("mkdir", &[Str]),
        EventSig::new("rename", &[Str, Str]),
        EventSig::new("now", &[Int]),
        EventSig::new("pid", &[Int]),
    ]
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
                    Some(st) => (
                        match st.kind {
                            NodeKind::File => "file",
                            NodeKind::Dir => "dir",
                        },
                        st.size as i64,
                    ),
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
    match call {
        Syscall::Close { .. }
        | Syscall::EpollCreate
        | Syscall::FsUnlink { .. }
        | Syscall::FsMkdir { .. }
        | Syscall::Now
        | Syscall::Pid => 1,
        Syscall::Listen { .. }
        | Syscall::Accept { .. }
        | Syscall::EpollWait { .. }
        | Syscall::FsList { .. }
        | Syscall::FsRename { .. } => 2,
        Syscall::Read { .. }
        | Syscall::ReadTimeout { .. }
        | Syscall::Write { .. }
        | Syscall::EpollCtl { .. }
        | Syscall::FsOpen { .. }
        | Syscall::FsStat { .. } => 3,
    }
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

fn fd_eq(v: &Value, fd: Fd) -> bool {
    int_of(v) == Some(fd.as_raw() as i64)
}

/// Raw-record twin of [`request_matches`]: does the follower's
/// *attempted* syscall agree with the leader's *logged* call on the
/// request fields, compared record-to-record with no event projection?
///
/// The follower uses it for every record it replays as logged: one no
/// rule rewrote, or one a rule template copies verbatim. It is
/// equivalent to
/// `request_matches(&syscall_event(expected, ret), attempted)` for every
/// directly-projected record: the Latin-1 byte↔char projection is
/// injective, so payload equality on the projected strings is payload
/// equality on the bytes — which for shared [`Buf`]s short-circuits on
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

/// Does the follower's *attempted* syscall agree with the expected event
/// on the request fields? (Response fields come from the leader and are
/// not compared.)
pub fn request_matches(expected: &Event, attempted: &Syscall) -> bool {
    if expected.name != attempted.kind().name() {
        return false;
    }
    let a = &expected.args;
    match attempted {
        Syscall::Listen { port } => int_of(&a[0]) == Some(*port as i64),
        Syscall::Accept { listener } => fd_eq(&a[0], *listener),
        Syscall::Read { fd, .. } | Syscall::ReadTimeout { fd, .. } => fd_eq(&a[0], *fd),
        Syscall::Write { fd, data } => {
            fd_eq(&a[0], *fd)
                && str_of(&a[1]).is_some_and(|s| matches!(str_to_bytes(s), Ok(b) if b == *data))
        }
        Syscall::Close { fd } => fd_eq(&a[0], *fd),
        Syscall::EpollCreate => true,
        Syscall::EpollCtl { ep, op, fd } => {
            fd_eq(&a[0], *ep) && str_of(&a[1]) == Some(op_name(*op)) && fd_eq(&a[2], *fd)
        }
        Syscall::EpollWait { ep, .. } => fd_eq(&a[0], *ep),
        Syscall::FsOpen { path, mode } => {
            str_of(&a[0]) == Some(path) && str_of(&a[1]) == Some(mode_name(*mode))
        }
        Syscall::FsUnlink { path } | Syscall::FsStat { path } | Syscall::FsList { path } => {
            str_of(&a[0]) == Some(path)
        }
        Syscall::FsMkdir { path } => str_of(&a[0]) == Some(path),
        Syscall::FsRename { from, to } => str_of(&a[0]) == Some(from) && str_of(&a[1]) == Some(to),
        Syscall::Now | Syscall::Pid => true,
    }
}

/// Rebuilds the [`SysRet`] the follower should observe from an expected
/// event (possibly rule-synthesized).
///
/// # Errors
/// Returns a description when the event's fields have the wrong shape —
/// an update-spec (rule) bug, surfaced as a divergence by the caller.
pub fn reconstruct_result(expected: &Event, attempted: &Syscall) -> Result<SysRet, String> {
    if let Some(err_name) = &expected.error {
        let e = Errno::from_name(err_name)
            .ok_or_else(|| format!("unknown errno {err_name:?} in expected event"))?;
        return Ok(SysRet::Err(e));
    }
    let a = &expected.args;
    let bad = |what: &str| format!("expected event {expected} has malformed {what}");
    Ok(match attempted {
        Syscall::Listen { .. } | Syscall::Accept { .. } => SysRet::Fd(Fd::from_raw(
            int_of(&a[1]).ok_or_else(|| bad("fd result"))? as u64,
        )),
        Syscall::Read { .. } | Syscall::ReadTimeout { .. } => SysRet::Data(Buf::from_vec(
            str_to_bytes(str_of(&a[1]).ok_or_else(|| bad("read data"))?)?,
        )),
        Syscall::Write { .. } => {
            SysRet::Size(int_of(&a[2]).ok_or_else(|| bad("write size"))?.max(0) as usize)
        }
        Syscall::Close { .. }
        | Syscall::EpollCtl { .. }
        | Syscall::FsUnlink { .. }
        | Syscall::FsMkdir { .. }
        | Syscall::FsRename { .. } => SysRet::Unit,
        Syscall::EpollCreate => SysRet::Fd(Fd::from_raw(
            int_of(&a[0]).ok_or_else(|| bad("fd result"))? as u64,
        )),
        Syscall::EpollWait { .. } => {
            let list = match &a[1] {
                Value::List(items) => items,
                _ => return Err(bad("ready list")),
            };
            let mut fds = Vec::with_capacity(list.len());
            for item in list {
                fds.push(Fd::from_raw(
                    int_of(item).ok_or_else(|| bad("ready fd"))? as u64
                ));
            }
            SysRet::Fds(fds)
        }
        Syscall::FsOpen { .. } => SysRet::Fd(Fd::from_raw(
            int_of(&a[2]).ok_or_else(|| bad("fd result"))? as u64,
        )),
        Syscall::FsStat { .. } => {
            let kind = match str_of(&a[1]) {
                Some("file") => NodeKind::File,
                Some("dir") => NodeKind::Dir,
                _ => return Err(bad("stat kind")),
            };
            SysRet::Stat(FileStat {
                kind,
                size: int_of(&a[2]).ok_or_else(|| bad("stat size"))?.max(0) as u64,
            })
        }
        Syscall::FsList { .. } => {
            let list = match &a[1] {
                Value::List(items) => items,
                _ => return Err(bad("name list")),
            };
            let mut names = Vec::with_capacity(list.len());
            for item in list {
                names.push(str_of(item).ok_or_else(|| bad("name"))?.to_string());
            }
            SysRet::Names(names)
        }
        Syscall::Now => SysRet::Time(int_of(&a[0]).ok_or_else(|| bad("time"))?.max(0) as u64),
        Syscall::Pid => SysRet::Pid(int_of(&a[0]).ok_or_else(|| bad("pid"))?.max(0) as u32),
    })
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

    /// Projection followed by reconstruction gives the original result,
    /// for every syscall kind the servers use.
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
            let event = syscall_event(&call, &ret);
            assert_eq!(event_arity(&call), event.arity(), "arity of {event}");
            let failed = syscall_event(&call, &SysRet::Err(Errno::ConnReset));
            assert_eq!(event_arity(&call), failed.arity(), "arity of {failed}");
            assert!(
                request_matches(&event, &call),
                "self-match failed for {event}"
            );
            let back = reconstruct_result(&event, &call).unwrap();
            assert_eq!(back, ret, "round trip failed for {event}");
        }
    }

    #[test]
    fn error_results_round_trip() {
        let call = Syscall::Read { fd: fd(5), max: 16 };
        let ret = SysRet::Err(Errno::TimedOut);
        let event = syscall_event(&call, &ret);
        assert_eq!(event.error.as_deref(), Some("timed out"));
        assert!(request_matches(&event, &call));
        assert_eq!(reconstruct_result(&event, &call).unwrap(), ret);
    }

    #[test]
    fn read_matches_on_fd_only() {
        let leader = Syscall::Read { fd: fd(5), max: 64 };
        let event = syscall_event(&leader, &SysRet::Data(b"data".to_vec().into()));
        // Follower may use a different max / timeout form.
        let follower = Syscall::ReadTimeout {
            fd: fd(5),
            max: 128,
            timeout_ms: 50,
        };
        assert!(request_matches(&event, &follower));
        let other_fd = Syscall::Read { fd: fd(6), max: 64 };
        assert!(!request_matches(&event, &other_fd));
    }

    #[test]
    fn write_matches_on_fd_and_payload() {
        let leader = Syscall::Write {
            fd: fd(5),
            data: b"+OK\r\n".to_vec().into(),
        };
        let event = syscall_event(&leader, &SysRet::Size(5));
        let same = Syscall::Write {
            fd: fd(5),
            data: b"+OK\r\n".to_vec().into(),
        };
        assert!(request_matches(&event, &same));
        let different_payload = Syscall::Write {
            fd: fd(5),
            data: b"+NO\r\n".to_vec().into(),
        };
        assert!(
            !request_matches(&event, &different_payload),
            "payload divergence must be caught"
        );
    }

    #[test]
    fn kind_mismatch_never_matches() {
        let event = syscall_event(&Syscall::Now, &SysRet::Time(1));
        assert!(!request_matches(&event, &Syscall::Pid));
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
        assert!(request_matches(&event, &attempted));
        assert_eq!(
            reconstruct_result(&event, &attempted).unwrap(),
            SysRet::Data(b"bad-cmd".to_vec().into())
        );
    }

    #[test]
    fn malformed_rule_event_is_reported() {
        let event = Event::new("read", vec![Value::Int(5), Value::Int(99), Value::Int(7)]);
        let attempted = Syscall::Read { fd: fd(5), max: 8 };
        let err = reconstruct_result(&event, &attempted).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
    }

    #[test]
    fn unknown_errno_in_event_is_reported() {
        let event = Event::with_error("read", vec![Value::Int(5)], "made-up failure");
        let err = reconstruct_result(&event, &Syscall::Read { fd: fd(5), max: 8 }).unwrap_err();
        assert!(err.contains("unknown errno"), "{err}");
    }
}
