//! The MVE soundness property: a follower running *identical* code over
//! the leader's log never diverges and observes identical results, for
//! arbitrary syscall workloads.

use std::sync::Arc;

use dsl::{Builtins, RuleSet};
use mve::{EventRing, FollowerConfig, LeaderConfig, VariantOs};
use proptest::prelude::*;
use vos::{CtlOp, Fd, OpenMode, Os, SysRet, Syscall, VirtualKernel};

/// A scripted syscall workload both variants will run.
#[derive(Clone, Debug)]
enum Op {
    Write(Vec<u8>),
    Read { max: usize },
    Now,
    Pid,
    FsRoundTrip { name: u8, payload: Vec<u8> },
    Stat { name: u8 },
    List,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 1..64).prop_map(Op::Write),
        (1usize..64).prop_map(|max| Op::Read { max }),
        Just(Op::Now),
        Just(Op::Pid),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(name, payload)| Op::FsRoundTrip { name, payload }),
        any::<u8>().prop_map(|name| Op::Stat { name }),
        Just(Op::List),
    ]
}

/// Runs the script against an Os; returns a transcript of results.
fn run_script(
    os: &mut dyn Os,
    port: u16,
    kernel: &Arc<VirtualKernel>,
    ops: &[Op],
    feed_reads: bool,
) -> Vec<String> {
    let mut log = Vec::new();
    let listener = os.listen(port).unwrap();
    let client = if feed_reads {
        Some(kernel.connect(port).unwrap())
    } else {
        None
    };
    // The follower replays `listen`/`accept` rather than executing them,
    // so only the leader connects a real client.
    let conn = os.accept(listener).unwrap();
    log.push(format!("conn={conn}"));
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Write(data) => {
                log.push(format!("write={:?}", os.write(conn, data)));
            }
            Op::Read { max } => {
                if let Some(client) = client {
                    // Give the leader something deterministic to read.
                    kernel
                        .client_send(client, format!("req-{i}").as_bytes())
                        .unwrap();
                }
                log.push(format!("read={:?}", os.read_timeout(conn, *max, 200)));
            }
            Op::Now => {
                log.push(format!("now={}", os.now()));
            }
            Op::Pid => {
                log.push(format!("pid={}", os.pid()));
            }
            Op::FsRoundTrip { name, payload } => {
                let path = format!("/f{name}");
                let fd = os.fs_open(&path, OpenMode::Write).unwrap();
                log.push(format!("open={fd}"));
                log.push(format!("fwrite={:?}", os.write(fd, payload)));
                log.push(format!("close={:?}", os.close(fd)));
                let fd = os.fs_open(&path, OpenMode::Read).unwrap();
                log.push(format!("fread={:?}", os.read_timeout(fd, 128, 50)));
                log.push(format!("close={:?}", os.close(fd)));
            }
            Op::Stat { name } => {
                log.push(format!("stat={:?}", os.fs_stat(&format!("/f{name}"))));
            }
            Op::List => {
                log.push(format!("list={:?}", os.fs_list("/")));
            }
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Identical code never diverges: the follower completes the whole
    /// replay (no `RetiredSignal`), and its transcript of syscall
    /// results is byte-identical to the leader's.
    #[test]
    fn identical_replay_never_diverges(ops in proptest::collection::vec(arb_op(), 0..25)) {
        let kernel = VirtualKernel::new();
        let ring: EventRing = Arc::new(ring::Ring::with_capacity(1 << 14));

        let mut leader = VariantOs::single(0, kernel.clone(), None);
        leader.attach_follower(LeaderConfig { ring: ring.clone(), lockstep: None });
        let leader_log = run_script(&mut leader, 9200, &kernel, &ops, true);

        let mut follower = VariantOs::follower(
            1,
            kernel.clone(),
            FollowerConfig {
                ring,
                rules: Arc::new(RuleSet::empty()),
                builtins: Arc::new(Builtins::standard()),
                promote_to: None,
                lag: None,
            },
            None,
        );
        let follower_log = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_script(&mut follower, 9200, &kernel, &ops, false)
        }));
        match follower_log {
            Ok(log) => prop_assert_eq!(log, leader_log),
            Err(payload) => {
                let msg = mve::RetiredSignal::from_payload(&*payload)
                    .map(|s| format!("{:?}", s.0))
                    .unwrap_or_else(|| "crash".to_string());
                prop_assert!(false, "follower died: {}", msg);
            }
        }
    }
}

fn arb_fd() -> impl Strategy<Value = Fd> {
    (0u64..6).prop_map(Fd::from_raw)
}

fn arb_path() -> impl Strategy<Value = String> {
    "/[a-c]{1,3}"
}

/// Any syscall the boundary can record, with small argument domains so
/// that independently drawn pairs collide often (exercising both the
/// match and mismatch sides of the comparison).
fn arb_syscall() -> impl Strategy<Value = Syscall> {
    prop_oneof![
        (0u16..4).prop_map(|port| Syscall::Listen { port }),
        arb_fd().prop_map(|listener| Syscall::Accept { listener }),
        (arb_fd(), 1usize..64).prop_map(|(fd, max)| Syscall::Read { fd, max }),
        (arb_fd(), 1usize..64, 0u64..50).prop_map(|(fd, max, timeout_ms)| {
            Syscall::ReadTimeout {
                fd,
                max,
                timeout_ms,
            }
        }),
        (arb_fd(), proptest::collection::vec(any::<u8>(), 0..6)).prop_map(|(fd, data)| {
            Syscall::Write {
                fd,
                data: data.into(),
            }
        }),
        arb_fd().prop_map(|fd| Syscall::Close { fd }),
        Just(Syscall::EpollCreate),
        (
            arb_fd(),
            prop_oneof![Just(CtlOp::Add), Just(CtlOp::Del)],
            arb_fd()
        )
            .prop_map(|(ep, op, fd)| Syscall::EpollCtl { ep, op, fd }),
        (arb_fd(), 1usize..8, 0u64..50).prop_map(|(ep, max, timeout_ms)| Syscall::EpollWait {
            ep,
            max,
            timeout_ms,
        }),
        (
            arb_path(),
            prop_oneof![
                Just(OpenMode::Read),
                Just(OpenMode::Write),
                Just(OpenMode::Append),
                Just(OpenMode::CreateNew)
            ]
        )
            .prop_map(|(path, mode)| Syscall::FsOpen { path, mode }),
        arb_path().prop_map(|path| Syscall::FsUnlink { path }),
        arb_path().prop_map(|path| Syscall::FsStat { path }),
        arb_path().prop_map(|path| Syscall::FsList { path }),
        arb_path().prop_map(|path| Syscall::FsMkdir { path }),
        (arb_path(), arb_path()).prop_map(|(from, to)| Syscall::FsRename { from, to }),
        Just(Syscall::Now),
        Just(Syscall::Pid),
    ]
}

/// One candidate result of every shape a call can return, and maybe a
/// failure: `(fd, data, size, fds)`, `(stat, names, time, pid)`, errno.
type Results = (
    (Fd, Vec<u8>, usize, Vec<Fd>),
    (vos::FileStat, Vec<String>, u64, u32),
    Option<vos::Errno>,
);

fn arb_results() -> impl Strategy<Value = Results> {
    let stat = (
        prop_oneof![Just(vos::NodeKind::File), Just(vos::NodeKind::Dir)],
        0u64..1 << 20,
    )
        .prop_map(|(kind, size)| vos::FileStat { kind, size });
    let errno = prop_oneof![
        Just(vos::Errno::WouldBlock),
        Just(vos::Errno::ConnReset),
        Just(vos::Errno::TimedOut),
        Just(vos::Errno::NoEnt),
    ];
    (
        (
            arb_fd(),
            proptest::collection::vec(any::<u8>(), 0..6),
            0usize..64,
            proptest::collection::vec(arb_fd(), 0..4),
        ),
        (
            stat,
            proptest::collection::vec("[a-c]{0,3}", 0..4),
            0u64..1 << 40,
            any::<u32>(),
        ),
        proptest::option::of(errno),
    )
}

/// The result the leader logs for `call`: the failure if there is one,
/// else the candidate of the shape `call` returns.
fn ret_for(call: &Syscall, results: Results) -> SysRet {
    let ((fd, data, size, fds), (stat, names, time, pid), errno) = results;
    if let Some(errno) = errno {
        return SysRet::Err(errno);
    }
    match call {
        Syscall::Listen { .. }
        | Syscall::Accept { .. }
        | Syscall::EpollCreate
        | Syscall::FsOpen { .. } => SysRet::Fd(fd),
        Syscall::Read { .. } | Syscall::ReadTimeout { .. } => {
            SysRet::Data(vos::Buf::from_vec(data))
        }
        Syscall::Write { .. } => SysRet::Size(size),
        Syscall::EpollWait { .. } => SysRet::Fds(fds),
        Syscall::FsStat { .. } => SysRet::Stat(stat),
        Syscall::FsList { .. } => SysRet::Names(names),
        Syscall::Now => SysRet::Time(time),
        Syscall::Pid => SysRet::Pid(pid),
        Syscall::Close { .. }
        | Syscall::EpollCtl { .. }
        | Syscall::FsUnlink { .. }
        | Syscall::FsMkdir { .. }
        | Syscall::FsRename { .. } => SysRet::Unit,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A logged record survives projection and `record_of_event`: the
    /// follower replays the leader's exact result, and the call it gets
    /// back agrees with exactly the attempted calls the logged one
    /// agrees with. This is what lets the follower keep one kind of
    /// expectation, a record, whether the leader logged it or a rule
    /// computed its event.
    #[test]
    fn record_of_event_inverts_the_projection(
        call in arb_syscall(),
        results in arb_results(),
        attempted in arb_syscall(),
    ) {
        let ret = ret_for(&call, results);
        let event = mve::syscall_event(&call, &ret);
        let back = mve::record_of_event(&event)
            .unwrap_or_else(|e| panic!("{event} did not come back: {e}"));
        prop_assert_eq!(&back.ret, &ret, "{}", event);
        prop_assert_eq!(
            mve::record_matches(&back.call, &attempted),
            mve::record_matches(&call, &attempted),
            "call={:?} attempted={:?}",
            call,
            attempted
        );
    }

    /// Mutating nothing always matches: a record compared against itself
    /// (the common, non-divergent case) passes the fast path.
    #[test]
    fn record_matches_is_reflexive(call in arb_syscall()) {
        prop_assert!(mve::record_matches(&call, &call));
    }
}
