use std::collections::HashMap;

use dsu::{AppState, DsuApp, StepOutcome, Version};
use vos::{Fd, Os};

use crate::net::{NetCore, NetEvent};

/// The Memcached releases in the study, oldest first.
pub const MC_VERSIONS: &[&str] = &["1.2.2", "1.2.3", "1.2.4"];

/// One cached item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McEntry {
    pub flags: u32,
    pub data: Vec<u8>,
}

/// A connection mid-way through a two-line `set`/`add` command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PendingStore {
    key: String,
    flags: u32,
    bytes: usize,
    add_only: bool,
}

/// Memcached program state.
#[derive(Clone, Debug)]
pub struct McState {
    pub net: NetCore,
    pub store: HashMap<String, McEntry>,
    /// Connections awaiting the data line of a storage command; while
    /// non-empty the program refuses to quiesce.
    pub(crate) pending: HashMap<Fd, PendingStore>,
    /// Logical worker pool size (connection `fd % workers` affinity).
    pub workers: usize,
    /// Planted by a buggy state transformation (`PoisonLater`): the
    /// freed-but-referenced LibEvent memory gets reused after this many
    /// further event-loop iterations, and the server dies.
    pub poison_countdown: Option<u32>,
}

impl McState {
    /// Fresh state serving `port` with `workers` logical workers.
    pub fn new(port: u16, workers: usize) -> Self {
        McState {
            net: NetCore::new(port),
            store: HashMap::new(),
            pending: HashMap::new(),
            workers: workers.max(1),
            poison_countdown: None,
        }
    }

    /// Which logical worker owns a connection.
    pub fn worker_of(&self, fd: Fd) -> usize {
        (fd.as_raw() % self.workers as u64) as usize
    }
}

/// The Memcached engine, shared by all three versions.
#[derive(Debug)]
pub struct McApp {
    version: Version,
    state: McState,
}

impl McApp {
    /// Boots a fresh instance.
    ///
    /// # Panics
    /// Panics if `version` is not one of [`MC_VERSIONS`].
    pub fn new(version: Version, port: u16, workers: usize) -> Self {
        Self::from_state(version, McState::new(port, workers))
    }

    /// Resumes from migrated state.
    ///
    /// # Panics
    /// Panics if `version` is not one of [`MC_VERSIONS`].
    pub fn from_state(version: Version, state: McState) -> Self {
        assert!(
            MC_VERSIONS.iter().any(|v| dsu::v(v) == version),
            "unknown memcached version {version}"
        );
        McApp { version, state }
    }

    /// Handles one input line for `fd`; returns the reply (empty for the
    /// first half of a storage command) and whether to close.
    fn respond(&mut self, fd: Fd, line: &str) -> (Vec<u8>, bool) {
        // Second line of a two-line storage command?
        if let Some(pending) = self.state.pending.remove(&fd) {
            let mut data = line.as_bytes().to_vec();
            data.truncate(pending.bytes);
            if pending.add_only && self.state.store.contains_key(&pending.key) {
                return (b"NOT_STORED\r\n".to_vec(), false);
            }
            self.state.store.insert(
                pending.key,
                McEntry {
                    flags: pending.flags,
                    data,
                },
            );
            return (b"STORED\r\n".to_vec(), false);
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["set" | "add", key, flags, _exptime, bytes] => {
                let (Ok(flags), Ok(bytes)) = (flags.parse::<u32>(), bytes.parse::<usize>()) else {
                    return (b"CLIENT_ERROR bad command line format\r\n".to_vec(), false);
                };
                self.state.pending.insert(
                    fd,
                    PendingStore {
                        key: key.to_string(),
                        flags,
                        bytes,
                        add_only: parts[0] == "add",
                    },
                );
                (Vec::new(), false)
            }
            ["get", key] => match self.state.store.get(*key) {
                Some(entry) => {
                    let mut out = format!("VALUE {key} {} {}\r\n", entry.flags, entry.data.len())
                        .into_bytes();
                    out.extend_from_slice(&entry.data);
                    out.extend_from_slice(b"\r\nEND\r\n");
                    (out, false)
                }
                None => (b"END\r\n".to_vec(), false),
            },
            ["delete", key] => {
                if self.state.store.remove(*key).is_some() {
                    (b"DELETED\r\n".to_vec(), false)
                } else {
                    (b"NOT_FOUND\r\n".to_vec(), false)
                }
            }
            ["incr", key, by] => {
                let Ok(by) = by.parse::<u64>() else {
                    return (
                        b"CLIENT_ERROR invalid numeric delta argument\r\n".to_vec(),
                        false,
                    );
                };
                match self.state.store.get_mut(*key) {
                    Some(entry) => {
                        let current: u64 = String::from_utf8_lossy(&entry.data)
                            .trim()
                            .parse()
                            .unwrap_or(0);
                        let next = current.wrapping_add(by);
                        entry.data = next.to_string().into_bytes();
                        (format!("{next}\r\n").into_bytes(), false)
                    }
                    None => (b"NOT_FOUND\r\n".to_vec(), false),
                }
            }
            ["version"] => (format!("VERSION {}\r\n", self.version).into_bytes(), false),
            ["quit"] => (Vec::new(), true),
            [] => (Vec::new(), false),
            _ => (b"ERROR\r\n".to_vec(), false),
        }
    }
}

impl DsuApp for McApp {
    fn version(&self) -> &Version {
        &self.version
    }

    fn step(&mut self, os: &mut dyn Os) -> StepOutcome {
        // A poisoned heap (buggy state transformation, §6.2) blows up a
        // few iterations after the update completed.
        if let Some(countdown) = self.state.poison_countdown.as_mut() {
            if *countdown == 0 {
                panic!("use-after-free: LibEvent callback touched freed memory");
            }
            *countdown -= 1;
        }
        let events = match self.state.net.step(os) {
            Ok(events) => events,
            Err(_) => return StepOutcome::Shutdown,
        };
        if events.is_empty() {
            return StepOutcome::Idle;
        }
        for event in events {
            match event {
                NetEvent::Lines(fd, lines) => {
                    // One write answers the whole read, as Memcached 1.2
                    // flushes its output buffer once per event. `quit`
                    // ends the batch: the lines after it are never run.
                    let mut reply = Vec::new();
                    let mut close = false;
                    for line in &lines {
                        let (part, quit) = self.respond(fd, line);
                        // Moved, not copied, while nothing precedes it: a
                        // read with one command copies no reply.
                        if reply.is_empty() {
                            reply = part;
                        } else {
                            reply.extend_from_slice(&part);
                        }
                        if quit {
                            close = true;
                            break;
                        }
                    }
                    if !reply.is_empty() {
                        self.state.net.send(os, fd, &reply);
                    }
                    if close {
                        self.state.net.close_conn(os, fd);
                        self.state.pending.remove(&fd);
                    }
                }
                NetEvent::Closed(fd) => {
                    self.state.pending.remove(&fd);
                }
                NetEvent::Accepted(_) => {}
            }
        }
        StepOutcome::Progress
    }

    fn snapshot(&self) -> AppState {
        AppState::new(self.state.clone())
    }

    fn into_state(self: Box<Self>) -> AppState {
        AppState::new(self.state)
    }

    /// No update while any connection is mid-`set`: the pending data
    /// line lives in worker state that the transformer does not carry.
    fn quiescent(&self) -> bool {
        self.state.pending.is_empty()
    }

    /// The §5.3 fix: reset LibEvent's dispatch memory on the leader when
    /// an update forks.
    fn reset_ephemeral(&mut self) {
        self.state.net.reset_ephemeral();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vos::{DirectOs, VirtualKernel};

    struct Rig {
        kernel: std::sync::Arc<VirtualKernel>,
        os: DirectOs,
        app: McApp,
        client: Fd,
    }

    fn rig(port: u16) -> Rig {
        let kernel = VirtualKernel::new();
        let mut os = DirectOs::new(kernel.clone());
        let mut app = McApp::new(dsu::v("1.2.2"), port, 4);
        let _ = app.step(&mut os);
        let client = kernel.connect(port).unwrap();
        Rig {
            kernel,
            os,
            app,
            client,
        }
    }

    fn roundtrip(rig: &mut Rig, send: &[u8], expect_suffix: &[u8]) -> Vec<u8> {
        rig.kernel.client_send(rig.client, send).unwrap();
        let mut got = Vec::new();
        for _ in 0..50 {
            let _ = rig.app.step(&mut rig.os);
            if let Ok(data) =
                rig.kernel
                    .client_recv_timeout(rig.client, 4096, Duration::from_millis(2))
            {
                got.extend_from_slice(&data);
            }
            if got.ends_with(expect_suffix) {
                break;
            }
        }
        got
    }

    #[test]
    fn set_get_delete_cycle() {
        let mut r = rig(11211);
        let got = roundtrip(&mut r, b"set k 7 0 5\r\nhello\r\n", b"STORED\r\n");
        assert_eq!(got, b"STORED\r\n");
        let got = roundtrip(&mut r, b"get k\r\n", b"END\r\n");
        assert_eq!(got, b"VALUE k 7 5\r\nhello\r\nEND\r\n");
        let got = roundtrip(&mut r, b"delete k\r\n", b"DELETED\r\n");
        assert_eq!(got, b"DELETED\r\n");
        let got = roundtrip(&mut r, b"get k\r\n", b"END\r\n");
        assert_eq!(got, b"END\r\n");
    }

    #[test]
    fn add_respects_existing_keys() {
        let mut r = rig(11212);
        roundtrip(&mut r, b"set k 0 0 1\r\nx\r\n", b"STORED\r\n");
        let got = roundtrip(&mut r, b"add k 0 0 1\r\ny\r\n", b"NOT_STORED\r\n");
        assert_eq!(got, b"NOT_STORED\r\n");
    }

    #[test]
    fn incr_and_version_and_error() {
        let mut r = rig(11213);
        roundtrip(&mut r, b"set n 0 0 1\r\n5\r\n", b"STORED\r\n");
        assert_eq!(roundtrip(&mut r, b"incr n 3\r\n", b"8\r\n"), b"8\r\n");
        assert_eq!(
            roundtrip(&mut r, b"incr missing 1\r\n", b"NOT_FOUND\r\n"),
            b"NOT_FOUND\r\n"
        );
        assert_eq!(
            roundtrip(&mut r, b"version\r\n", b"\r\n"),
            b"VERSION 1.2.2\r\n"
        );
        assert_eq!(roundtrip(&mut r, b"bogus\r\n", b"ERROR\r\n"), b"ERROR\r\n");
    }

    #[test]
    fn quiescence_blocks_mid_set() {
        let mut r = rig(11214);
        assert!(r.app.quiescent());
        // Send only the first line of a set: the app must refuse to
        // quiesce until the data line arrives.
        r.kernel.client_send(r.client, b"set k 0 0 3\r\n").unwrap();
        for _ in 0..20 {
            let _ = r.app.step(&mut r.os);
            if !r.app.quiescent() {
                break;
            }
        }
        assert!(!r.app.quiescent(), "mid-set must be non-quiescent");
        let got = roundtrip(&mut r, b"abc\r\n", b"STORED\r\n");
        assert_eq!(got, b"STORED\r\n");
        assert!(r.app.quiescent());
    }

    #[test]
    fn data_is_truncated_to_declared_bytes() {
        let mut r = rig(11215);
        roundtrip(&mut r, b"set k 0 0 3\r\nabcdef\r\n", b"STORED\r\n");
        let got = roundtrip(&mut r, b"get k\r\n", b"END\r\n");
        assert_eq!(got, b"VALUE k 0 3\r\nabc\r\nEND\r\n");
    }

    #[test]
    fn quit_closes_connection() {
        let mut r = rig(11216);
        r.kernel.client_send(r.client, b"quit\r\n").unwrap();
        for _ in 0..20 {
            let _ = r.app.step(&mut r.os);
        }
        // Server closed its end: the client reads EOF.
        assert_eq!(r.kernel.client_recv(r.client, 8).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn lines_after_quit_leave_no_pending_store() {
        let mut r = rig(11219);
        r.kernel
            .client_send(r.client, b"get k\r\nquit\r\nset k 0 0 1\r\n")
            .unwrap();
        for _ in 0..20 {
            let _ = r.app.step(&mut r.os);
        }
        // The reply to the line before `quit` went out, then EOF.
        assert_eq!(r.kernel.client_recv(r.client, 64).unwrap(), b"END\r\n");
        assert_eq!(r.kernel.client_recv(r.client, 8).unwrap(), Vec::<u8>::new());
        assert_eq!(r.app.state.pending, HashMap::new());
        assert!(r.app.quiescent(), "a closed connection blocks no update");
    }

    #[test]
    fn poison_countdown_crashes_later() {
        let kernel = VirtualKernel::new();
        let mut os = DirectOs::new(kernel.clone());
        let mut state = McState::new(11217, 2);
        state.poison_countdown = Some(3);
        let mut app = McApp::from_state(dsu::v("1.2.3"), state);
        for _ in 0..3 {
            let _ = app.step(&mut os);
        }
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            app.step(&mut os);
        }));
        assert!(crashed.is_err(), "poisoned heap must crash after countdown");
    }

    #[test]
    fn worker_affinity_is_stable() {
        let state = McState::new(11218, 4);
        let fd = Fd::from_raw(10);
        assert_eq!(state.worker_of(fd), state.worker_of(fd));
        assert!(state.worker_of(fd) < 4);
    }
}
