//! Zero-copy `RETR`: Vsftpd sends a file as one write of the file's
//! snapshot, and that one buffer is what the leader logs, what the
//! client's reads are windows of and what the follower's replayed
//! `Write` passes on.

use std::sync::Arc;

use dsl::{Builtins, RuleSet};
use dsu::DsuApp;
use mve::{EventRecord, FollowerConfig, LeaderConfig, VariantOs};
use ring::Ring;
use servers::vsftpd::{VsftpdApp, VsftpdState};
use vos::{Buf, CtlOp, Fd, FileStat, OpenMode, Os, OsResult, Syscall, VirtualKernel};

const PORT: u16 = 7900;
const FILE_LEN: usize = 3 * 8192 + 1000;

/// Forwards every call to the wrapped variant and keeps each payload
/// written, so the test can see what the follower wrote.
struct Spy {
    inner: VariantOs,
    writes: Vec<(Fd, Buf)>,
}

impl Os for Spy {
    fn listen(&mut self, port: u16) -> OsResult<Fd> {
        self.inner.listen(port)
    }
    fn accept(&mut self, listener: Fd) -> OsResult<Fd> {
        self.inner.accept(listener)
    }
    fn read(&mut self, fd: Fd, max: usize) -> OsResult<Buf> {
        self.inner.read(fd, max)
    }
    fn read_timeout(&mut self, fd: Fd, max: usize, timeout_ms: u64) -> OsResult<Buf> {
        self.inner.read_timeout(fd, max, timeout_ms)
    }
    fn write(&mut self, fd: Fd, data: &[u8]) -> OsResult<usize> {
        self.writes.push((fd, Buf::copy_from_slice(data)));
        self.inner.write(fd, data)
    }
    fn write_buf(&mut self, fd: Fd, data: Buf) -> OsResult<usize> {
        self.writes.push((fd, data.clone()));
        self.inner.write_buf(fd, data)
    }
    fn close(&mut self, fd: Fd) -> OsResult<()> {
        self.inner.close(fd)
    }
    fn epoll_create(&mut self) -> OsResult<Fd> {
        self.inner.epoll_create()
    }
    fn epoll_ctl(&mut self, ep: Fd, op: CtlOp, fd: Fd) -> OsResult<()> {
        self.inner.epoll_ctl(ep, op, fd)
    }
    fn epoll_wait(&mut self, ep: Fd, max: usize, timeout_ms: u64) -> OsResult<Vec<Fd>> {
        self.inner.epoll_wait(ep, max, timeout_ms)
    }
    fn fs_open(&mut self, path: &str, mode: OpenMode) -> OsResult<Fd> {
        self.inner.fs_open(path, mode)
    }
    fn fs_unlink(&mut self, path: &str) -> OsResult<()> {
        self.inner.fs_unlink(path)
    }
    fn fs_stat(&mut self, path: &str) -> OsResult<FileStat> {
        self.inner.fs_stat(path)
    }
    fn fs_list(&mut self, path: &str) -> OsResult<Vec<String>> {
        self.inner.fs_list(path)
    }
    fn fs_mkdir(&mut self, path: &str) -> OsResult<()> {
        self.inner.fs_mkdir(path)
    }
    fn fs_rename(&mut self, from: &str, to: &str) -> OsResult<()> {
        self.inner.fs_rename(from, to)
    }
    fn now(&mut self) -> u64 {
        self.inner.now()
    }
    fn pid(&mut self) -> u32 {
        self.inner.pid()
    }
}

/// The payloads strictly between the `150` and `226` replies: the file
/// data of one `RETR`.
fn data_writes(writes: &[Buf]) -> &[Buf] {
    let start = writes
        .iter()
        .position(|w| w.starts_with(b"150 "))
        .expect("150 reply");
    let end = writes
        .iter()
        .position(|w| w.as_slice() == b"226 Transfer complete.\r\n")
        .expect("226 reply");
    &writes[start + 1..end]
}

#[test]
fn retr_chunks_are_windows_of_the_file_snapshot_end_to_end() {
    let kernel = VirtualKernel::new();
    let content: Vec<u8> = (0..FILE_LEN).map(|i| (i * 7 % 251) as u8).collect();
    kernel.fs().write_file("/big.bin", &content).unwrap();
    let version = dsu::v("2.0.5");

    // Boot single, then fork: the follower starts from the leader's state.
    let mut leader = VariantOs::single(0, kernel.clone(), None);
    let mut leader_app = VsftpdApp::new(version.clone(), PORT);
    let _ = leader_app.step(&mut leader);
    let ring = Arc::new(Ring::with_capacity(4096));
    leader.attach_follower(LeaderConfig {
        ring: ring.clone(),
        lockstep: None,
    });
    let state = leader_app.snapshot().downcast::<VsftpdState>().unwrap();
    let mut follower_app = VsftpdApp::from_state(version, state);

    let client = kernel.connect(PORT).unwrap();
    kernel
        .client_send(client, b"USER a\r\nPASS b\r\nRETR big.bin\r\n")
        .unwrap();

    // Step the leader until its log holds the end of the transfer,
    // draining the log as it goes.
    let mut leader_steps = 0;
    let mut log: Vec<EventRecord> = Vec::new();
    let mut logged: Vec<Buf> = Vec::new();
    let mut conn = None;
    while !logged.iter().any(|w| w.starts_with(b"226 ")) {
        assert!(leader_steps < 100, "transfer did not finish");
        let _ = leader_app.step(&mut leader);
        leader_steps += 1;
        while !ring.is_empty() {
            for record in ring.pop_batch(ring.capacity()).unwrap() {
                if let EventRecord::Syscall { record, .. } = &record {
                    if let Syscall::Write { fd, data } = &record.call {
                        conn = Some(*fd);
                        logged.push(data.clone());
                    }
                }
                log.push(record);
            }
        }
    }
    let conn = conn.unwrap();

    // The file's snapshot, as any later reader sees it.
    let file = kernel.fs_open("/big.bin", OpenMode::Read).unwrap();
    let snapshot = kernel.read(file, usize::MAX, None).unwrap();
    assert_eq!(snapshot, content);

    let [leader_data] = data_writes(&logged) else {
        panic!("one data write per RETR");
    };
    assert_eq!(leader_data.len(), FILE_LEN);
    assert!(
        leader_data.same_storage(&snapshot),
        "the leader's logged write is the snapshot"
    );

    // The client reads the replies whole and the file data 8 KiB at a
    // time; each piece is a window split off the one buffer.
    let mut received = Vec::new();
    for w in &logged {
        if w.ptr_eq(leader_data) {
            while received.len() < FILE_LEN {
                let want = (FILE_LEN - received.len()).min(8192);
                let piece = kernel.client_recv(client, want).unwrap();
                assert!(
                    piece.same_storage(&snapshot),
                    "the client's piece is a window of the snapshot"
                );
                received.extend_from_slice(&piece);
            }
        } else {
            assert_eq!(kernel.client_recv(client, w.len()).unwrap(), *w);
        }
    }
    assert_eq!(received, content);

    // The follower replays the same steps from the drained log, re-pushed
    // into a ring of its own; its file read returns the leader's window
    // and it writes that back unchanged.
    let follower_ring = Arc::new(Ring::with_capacity(ring.capacity()));
    for record in log {
        follower_ring.push(record).unwrap();
    }
    let follower = VariantOs::follower(
        1,
        kernel.clone(),
        FollowerConfig {
            ring: follower_ring.clone(),
            rules: Arc::new(RuleSet::empty()),
            builtins: Arc::new(Builtins::standard()),
            promote_to: None,
            lag: None,
        },
        None,
    );
    let mut spy = Spy {
        inner: follower,
        writes: Vec::new(),
    };
    for _ in 0..leader_steps {
        let _ = follower_app.step(&mut spy);
    }
    assert!(
        follower_ring.is_empty(),
        "the follower replayed the whole log"
    );
    let follower_writes: Vec<Buf> = spy
        .writes
        .into_iter()
        .filter(|(fd, _)| *fd == conn)
        .map(|(_, data)| data)
        .collect();
    let [follower_data] = data_writes(&follower_writes) else {
        panic!("the follower replays one data write");
    };
    assert!(
        follower_data.ptr_eq(leader_data),
        "the follower writes the leader's window back, not a copy"
    );
}
