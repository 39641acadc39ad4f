//! Zero-copy `RETR`: every chunk Vsftpd streams out of a file is a
//! window of the file's one snapshot, from the kernel's file read through
//! the leader's logged `Write`, the client's inbox and the follower's
//! replayed `Write`.

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
fn data_chunks(writes: &[Buf]) -> &[Buf] {
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

    // Step the leader until its log holds the end of the transfer.
    let mut leader_steps = 0;
    let mut logged: Vec<Buf> = Vec::new();
    let mut conn = None;
    while !logged.iter().any(|w| w.starts_with(b"226 ")) {
        assert!(leader_steps < 100, "transfer did not finish");
        let _ = leader_app.step(&mut leader);
        leader_steps += 1;
        logged.clear();
        for i in 0..ring.len() {
            if let EventRecord::Syscall { record, .. } = ring.peek(i, None).unwrap() {
                if let Syscall::Write { fd, data } = record.call {
                    conn = Some(fd);
                    logged.push(data);
                }
            }
        }
    }
    let conn = conn.unwrap();

    // The file's snapshot, as any later reader sees it.
    let file = kernel.fs_open("/big.bin", OpenMode::Read).unwrap();
    let snapshot = kernel.read(file, usize::MAX, None).unwrap();
    assert_eq!(snapshot, content);

    let leader_chunks = data_chunks(&logged);
    assert_eq!(leader_chunks.len(), FILE_LEN.div_ceil(8192));
    assert_eq!(leader_chunks.concat(), content);
    for chunk in leader_chunks {
        assert!(
            chunk.same_storage(&snapshot),
            "the leader's logged write is a window of the snapshot"
        );
    }

    // The client receives each logged payload as written: reading
    // exactly one write's length pops that write's buffer.
    let mut delivered = Vec::new();
    for w in &logged {
        delivered.push(kernel.client_recv(client, w.len()).unwrap());
    }
    for chunk in data_chunks(&delivered) {
        assert!(
            chunk.same_storage(&snapshot),
            "the client's chunk is a window of the snapshot"
        );
    }

    // The follower replays the same steps; its reads return the
    // leader's windows and it writes them back unchanged.
    let follower = VariantOs::follower(
        1,
        kernel.clone(),
        FollowerConfig {
            ring: ring.clone(),
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
    assert!(ring.is_empty(), "the follower replayed the whole log");
    let follower_writes: Vec<Buf> = spy
        .writes
        .into_iter()
        .filter(|(fd, _)| *fd == conn)
        .map(|(_, data)| data)
        .collect();
    let follower_chunks = data_chunks(&follower_writes);
    assert_eq!(follower_chunks.len(), leader_chunks.len());
    for (f, l) in follower_chunks.iter().zip(leader_chunks) {
        assert!(
            f.ptr_eq(l),
            "the follower writes the leader's window back, not a copy"
        );
        assert!(f.same_storage(&snapshot));
    }
}
