use std::collections::HashMap;

use dsu::{AppState, DsuApp, StepOutcome, Version};
use vos::{Errno, Fd, OpenMode, Os};

use crate::net::{NetCore, NetEvent};

use super::features::VsftpdFeatures;

/// Per-connection FTP session state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Session {
    pub user: Option<String>,
    pub authed: bool,
    pub cwd: String,
}

impl Session {
    fn new() -> Self {
        Session {
            user: None,
            authed: false,
            cwd: "/".to_string(),
        }
    }
}

/// Vsftpd program state.
#[derive(Clone, Debug)]
pub struct VsftpdState {
    pub net: NetCore,
    pub sessions: HashMap<Fd, Session>,
    /// Counter backing `STOU`'s unique-name search.
    pub stou_counter: u64,
}

impl VsftpdState {
    /// Fresh state serving `port`.
    pub fn new(port: u16) -> Self {
        VsftpdState {
            net: NetCore::new(port),
            sessions: HashMap::new(),
            stou_counter: 0,
        }
    }
}

/// The FTP engine shared by all 14 releases.
#[derive(Debug)]
pub struct VsftpdApp {
    version: Version,
    features: &'static VsftpdFeatures,
    state: VsftpdState,
}

fn resolve(cwd: &str, name: &str) -> String {
    if name.starts_with('/') {
        name.to_string()
    } else if cwd == "/" {
        format!("/{name}")
    } else {
        format!("{cwd}/{name}")
    }
}

impl VsftpdApp {
    /// Boots a fresh instance of `version` on `port`.
    ///
    /// # Panics
    /// Panics if `version` is not in the release table.
    pub fn new(version: Version, port: u16) -> Self {
        Self::from_state(version, VsftpdState::new(port))
    }

    /// Resumes `version` from migrated state.
    ///
    /// # Panics
    /// Panics if `version` is not in the release table.
    pub fn from_state(version: Version, state: VsftpdState) -> Self {
        let features = VsftpdFeatures::for_version(&version)
            .unwrap_or_else(|| panic!("unknown vsftpd version {version}"));
        VsftpdApp {
            version,
            features,
            state,
        }
    }

    /// Handles one command, writing its replies and any file data.
    fn handle(&mut self, os: &mut dyn Os, fd: Fd, line: &str) {
        let f = self.features;
        let mut parts = line.splitn(2, ' ');
        let cmd = parts.next().unwrap_or("").to_ascii_uppercase();
        let arg = parts.next().unwrap_or("").trim().to_string();

        let session = self.state.sessions.entry(fd).or_default();
        let authed = session.authed;
        let cwd = session.cwd.clone();

        let reply = |this: &mut Self, os: &mut dyn Os, text: &str| {
            this.state.net.send(os, fd, text.as_bytes());
        };

        match cmd.as_str() {
            "USER" => {
                let session = self.state.sessions.get_mut(&fd).expect("session exists");
                session.user = Some(arg);
                session.authed = false;
                reply(self, os, "331 Please specify the password.\r\n");
            }
            "PASS" => {
                let session = self.state.sessions.get_mut(&fd).expect("session exists");
                if session.user.is_some() {
                    session.authed = true;
                    reply(self, os, "230 Login successful.\r\n");
                } else {
                    reply(self, os, "503 Login with USER first.\r\n");
                }
            }
            "SYST" => reply(self, os, f.syst),
            "QUIT" => {
                let text = f.quit_reply.to_string();
                reply(self, os, &text);
                self.state.net.close_conn(os, fd);
                self.state.sessions.remove(&fd);
            }
            "HELP" => reply(self, os, f.help_reply),
            "FEAT" if f.has_feat => {
                reply(self, os, "211-Features:\r\n UTF8\r\n211 End\r\n");
            }
            _ if !authed => reply(self, os, "530 Please login with USER and PASS.\r\n"),
            "PWD" => {
                let text = if f.pwd_verbose {
                    format!("257 \"{cwd}\" is the current directory\r\n")
                } else {
                    format!("257 \"{cwd}\"\r\n")
                };
                reply(self, os, &text);
            }
            "CWD" => {
                let target = resolve(&cwd, &arg);
                match os.fs_stat(&target) {
                    Ok(stat) if stat.kind == vos::NodeKind::Dir => {
                        self.state.sessions.get_mut(&fd).expect("session").cwd = target;
                        reply(self, os, "250 Directory successfully changed.\r\n");
                    }
                    _ => reply(self, os, "550 Failed to change directory.\r\n"),
                }
            }
            "LIST" => match os.fs_list(&cwd) {
                Ok(names) => {
                    reply(self, os, "150 Here comes the directory listing.\r\n");
                    let mut body = String::new();
                    for name in names {
                        body.push_str(&name);
                        body.push_str("\r\n");
                    }
                    if !body.is_empty() {
                        reply(self, os, &body);
                    }
                    reply(self, os, "226 Directory send OK.\r\n");
                }
                Err(_) => reply(self, os, "550 Failed to list directory.\r\n"),
            },
            "SIZE" => {
                let target = resolve(&cwd, &arg);
                match os.fs_stat(&target) {
                    Ok(stat) if stat.kind == vos::NodeKind::File => {
                        let text = format!("213 {}\r\n", stat.size);
                        reply(self, os, &text);
                    }
                    _ => reply(self, os, "550 Could not get file size.\r\n"),
                }
            }
            "RETR" => {
                let target = resolve(&cwd, &arg);
                match os.fs_open(&target, OpenMode::Read) {
                    Ok(file) => {
                        let size = os.fs_stat(&target).map(|s| s.size).unwrap_or(0);
                        let text = format!(
                            "150 Opening BINARY mode data connection for {arg} ({size} bytes).\r\n"
                        );
                        reply(self, os, &text);
                        // Like vsftpd's sendfile path: each read asks for
                        // the rest of the file and returns one window of
                        // its snapshot, sent as is. The loop runs to EOF,
                        // so bytes appended mid-transfer still go out.
                        loop {
                            match os.read(file, usize::MAX) {
                                Ok(window) if window.is_empty() => break,
                                Ok(window) => self.state.net.send_buf(os, fd, window),
                                Err(_) => break,
                            }
                        }
                        let _ = os.close(file);
                        reply(self, os, "226 Transfer complete.\r\n");
                    }
                    Err(_) => reply(self, os, "550 Failed to open file.\r\n"),
                }
            }
            "DELE" => {
                let target = resolve(&cwd, &arg);
                match os.fs_unlink(&target) {
                    Ok(()) => reply(self, os, "250 Delete operation successful.\r\n"),
                    Err(_) => reply(self, os, "550 Delete operation failed.\r\n"),
                }
            }
            "MKD" => {
                let target = resolve(&cwd, &arg);
                match os.fs_mkdir(&target) {
                    Ok(()) => {
                        let text = format!("257 \"{target}\" created.\r\n");
                        reply(self, os, &text);
                    }
                    Err(_) => reply(self, os, "550 Create directory operation failed.\r\n"),
                }
            }
            "STOU" if f.has_stou => {
                // Store-unique: probe CreateNew until a fresh name wins.
                loop {
                    self.state.stou_counter += 1;
                    let name = format!("unique.{}", self.state.stou_counter);
                    let target = resolve(&cwd, &name);
                    match os.fs_open(&target, OpenMode::CreateNew) {
                        Ok(file) => {
                            let _ = os.close(file);
                            let text = format!("226 Transfer complete: {name}.\r\n");
                            reply(self, os, &text);
                            break;
                        }
                        Err(Errno::Exist) => continue,
                        Err(_) => {
                            reply(self, os, "550 STOU failed.\r\n");
                            break;
                        }
                    }
                }
            }
            "MDTM" if f.has_mdtm => {
                let target = resolve(&cwd, &arg);
                match os.fs_stat(&target) {
                    Ok(stat) if stat.kind == vos::NodeKind::File => {
                        reply(self, os, "213 20190413000000\r\n");
                    }
                    _ => reply(self, os, "550 Could not get file modification time.\r\n"),
                }
            }
            "REST" if f.has_rest => {
                reply(self, os, "350 Restart position accepted (0).\r\n");
            }
            _ => reply(self, os, "500 Unknown command.\r\n"),
        }
    }
}

impl DsuApp for VsftpdApp {
    fn version(&self) -> &Version {
        &self.version
    }

    fn step(&mut self, os: &mut dyn Os) -> StepOutcome {
        let events = match self.state.net.step(os) {
            Ok(events) => events,
            Err(_) => return StepOutcome::Shutdown,
        };
        if events.is_empty() {
            return StepOutcome::Idle;
        }
        for event in events {
            match event {
                NetEvent::Accepted(fd) => {
                    self.state.sessions.insert(fd, Session::new());
                    let banner = self.features.banner;
                    self.state.net.send(os, fd, banner.as_bytes());
                }
                // One write per line, unlike Redis and Memcached: the
                // generated reply maps (`updates.rs`) rewrite exactly one
                // reply per `write`, and a merged write would not match.
                // `QUIT` drops the session and ends the batch.
                NetEvent::Lines(fd, lines) => {
                    for line in lines {
                        self.handle(os, fd, &line);
                        if !self.state.sessions.contains_key(&fd) {
                            break;
                        }
                    }
                }
                NetEvent::Closed(fd) => {
                    self.state.sessions.remove(&fd);
                }
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

    fn reset_ephemeral(&mut self) {
        self.state.net.reset_ephemeral();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use vos::{Buf, CtlOp, DirectOs, FileStat, OsResult, VirtualKernel};

    /// Native syscalls that also count reads and keep every payload
    /// written, so a test can see what one command cost.
    struct Counting {
        inner: DirectOs,
        reads: usize,
        writes: Vec<Buf>,
    }

    impl Os for Counting {
        fn listen(&mut self, port: u16) -> OsResult<Fd> {
            self.inner.listen(port)
        }
        fn accept(&mut self, listener: Fd) -> OsResult<Fd> {
            self.inner.accept(listener)
        }
        fn read(&mut self, fd: Fd, max: usize) -> OsResult<Buf> {
            self.reads += 1;
            self.inner.read(fd, max)
        }
        fn read_timeout(&mut self, fd: Fd, max: usize, timeout_ms: u64) -> OsResult<Buf> {
            self.reads += 1;
            self.inner.read_timeout(fd, max, timeout_ms)
        }
        fn write(&mut self, fd: Fd, data: &[u8]) -> OsResult<usize> {
            self.writes.push(Buf::copy_from_slice(data));
            self.inner.write(fd, data)
        }
        fn write_buf(&mut self, fd: Fd, data: Buf) -> OsResult<usize> {
            self.writes.push(data.clone());
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

    struct Rig {
        kernel: Arc<VirtualKernel>,
        os: Counting,
        app: VsftpdApp,
        client: Fd,
    }

    fn rig(version: &str, port: u16) -> Rig {
        let kernel = VirtualKernel::new();
        kernel.fs().write_file("/hello.txt", b"hello ftp").unwrap();
        kernel.fs().mkdir("/pub").unwrap();
        kernel
            .fs()
            .write_file("/pub/data.bin", &[7u8; 20_000])
            .unwrap();
        let mut os = Counting {
            inner: DirectOs::new(kernel.clone()),
            reads: 0,
            writes: Vec::new(),
        };
        let mut app = VsftpdApp::new(dsu::v(version), port);
        let _ = app.step(&mut os);
        let client = kernel.connect(port).unwrap();
        Rig {
            kernel,
            os,
            app,
            client,
        }
    }

    fn recv_until(rig: &mut Rig, suffix: &[u8]) -> Vec<u8> {
        let mut got = Vec::new();
        for _ in 0..100 {
            let _ = rig.app.step(&mut rig.os);
            if let Ok(data) =
                rig.kernel
                    .client_recv_timeout(rig.client, usize::MAX, Duration::from_millis(2))
            {
                got.extend_from_slice(&data);
            }
            if got.ends_with(suffix) {
                break;
            }
        }
        got
    }

    fn send(rig: &mut Rig, line: &str) {
        rig.kernel
            .client_send(rig.client, format!("{line}\r\n").as_bytes())
            .unwrap();
    }

    fn login(rig: &mut Rig) {
        let _banner = recv_until(rig, b"\r\n");
        send(rig, "USER anonymous");
        recv_until(rig, b"\r\n");
        send(rig, "PASS guest");
        let got = recv_until(rig, b"\r\n");
        assert_eq!(got, b"230 Login successful.\r\n");
    }

    #[test]
    fn banner_differs_across_eras() {
        let mut old = rig("1.1.0", 2101);
        assert_eq!(recv_until(&mut old, b"\r\n"), b"220 ready.\r\n");
        let mut new = rig("2.0.6", 2102);
        assert_eq!(recv_until(&mut new, b"\r\n"), b"220 (vsFTPd 2.x)\r\n");
    }

    #[test]
    fn login_required_for_fs_commands() {
        let mut r = rig("2.0.0", 2103);
        let _ = recv_until(&mut r, b"\r\n");
        send(&mut r, "PWD");
        assert_eq!(
            recv_until(&mut r, b"\r\n"),
            b"530 Please login with USER and PASS.\r\n"
        );
        send(&mut r, "PASS nopw");
        assert_eq!(
            recv_until(&mut r, b"\r\n"),
            b"503 Login with USER first.\r\n"
        );
    }

    #[test]
    fn pwd_format_changes_in_120() {
        let mut old = rig("1.1.3", 2104);
        login(&mut old);
        send(&mut old, "PWD");
        assert_eq!(recv_until(&mut old, b"\r\n"), b"257 \"/\"\r\n");

        let mut new = rig("1.2.0", 2105);
        login(&mut new);
        send(&mut new, "PWD");
        assert_eq!(
            recv_until(&mut new, b"\r\n"),
            b"257 \"/\" is the current directory\r\n"
        );
    }

    #[test]
    fn retr_streams_file_with_markers() {
        let mut r = rig("2.0.0", 2106);
        login(&mut r);
        send(&mut r, "RETR hello.txt");
        let got = recv_until(&mut r, b"226 Transfer complete.\r\n");
        let text = String::from_utf8_lossy(&got);
        assert!(text.contains("150 Opening BINARY"), "{text}");
        assert!(text.contains("(9 bytes)"), "{text}");
        assert!(text.contains("hello ftp"), "{text}");
        send(&mut r, "RETR missing.txt");
        assert_eq!(recv_until(&mut r, b"\r\n"), b"550 Failed to open file.\r\n");
    }

    #[test]
    fn retr_large_file_arrives_complete() {
        let mut r = rig("2.0.5", 2107);
        login(&mut r);
        send(&mut r, "CWD pub");
        recv_until(&mut r, b"\r\n");
        send(&mut r, "RETR data.bin");
        let got = recv_until(&mut r, b"226 Transfer complete.\r\n");
        // 20_000 payload bytes plus the two marker lines.
        let sevens = got.iter().filter(|b| **b == 7).count();
        assert_eq!(sevens, 20_000);
    }

    /// Sends `RETR name` and steps until the transfer completes; returns
    /// the reads issued and the payloads written while serving it.
    fn retr(rig: &mut Rig, name: &str) -> (usize, Vec<Buf>) {
        rig.os.reads = 0;
        rig.os.writes.clear();
        send(rig, &format!("RETR {name}"));
        recv_until(rig, b"226 Transfer complete.\r\n");
        (rig.os.reads, std::mem::take(&mut rig.os.writes))
    }

    #[test]
    fn retr_costs_the_same_syscalls_for_any_file_size() {
        let mut r = rig("2.0.5", 2115);
        let big = vec![3u8; 10_000_000];
        r.kernel.fs().write_file("/big.bin", &big).unwrap();
        login(&mut r);
        let (small_reads, small_writes) = retr(&mut r, "hello.txt");
        let (big_reads, big_writes) = retr(&mut r, "big.bin");
        assert_eq!(small_reads, big_reads);
        assert_eq!(small_writes.len(), big_writes.len());
        // 150, the whole file in one write, 226.
        assert_eq!(big_writes.len(), 3);
        assert_eq!(small_writes[1], b"hello ftp");
        assert_eq!(big_writes[1], big);
    }

    #[test]
    fn retr_of_an_empty_file_sends_only_the_markers() {
        let mut r = rig("2.0.5", 2116);
        r.kernel.fs().write_file("/empty", b"").unwrap();
        login(&mut r);
        let (_, writes) = retr(&mut r, "empty");
        assert_eq!(
            writes,
            [
                &b"150 Opening BINARY mode data connection for empty (0 bytes).\r\n"[..],
                b"226 Transfer complete.\r\n",
            ]
        );
    }

    #[test]
    fn retr_after_an_append_sends_the_new_bytes_and_keeps_the_old_buffer() {
        let mut r = rig("2.0.5", 2117);
        login(&mut r);
        let (_, first) = retr(&mut r, "hello.txt");
        let delivered = first[1].clone();
        let file = r.kernel.fs_open("/hello.txt", OpenMode::Append).unwrap();
        r.kernel.write(file, b", again").unwrap();
        r.kernel.close(file).unwrap();
        let (_, second) = retr(&mut r, "hello.txt");
        assert_eq!(second[1], b"hello ftp, again");
        assert_eq!(
            delivered, b"hello ftp",
            "the first transfer's buffer is unchanged"
        );
    }

    #[test]
    fn size_list_mkd_cwd_dele() {
        let mut r = rig("2.0.6", 2108);
        login(&mut r);
        send(&mut r, "SIZE hello.txt");
        assert_eq!(recv_until(&mut r, b"\r\n"), b"213 9\r\n");
        send(&mut r, "MKD inbox");
        assert_eq!(recv_until(&mut r, b"\r\n"), b"257 \"/inbox\" created.\r\n");
        send(&mut r, "CWD inbox");
        assert_eq!(
            recv_until(&mut r, b"\r\n"),
            b"250 Directory successfully changed.\r\n"
        );
        send(&mut r, "CWD /nope");
        assert_eq!(
            recv_until(&mut r, b"\r\n"),
            b"550 Failed to change directory.\r\n"
        );
        send(&mut r, "DELE /hello.txt");
        assert_eq!(
            recv_until(&mut r, b"\r\n"),
            b"250 Delete operation successful.\r\n"
        );
        send(&mut r, "LIST");
        let got = recv_until(&mut r, b"226 Directory send OK.\r\n");
        assert!(!String::from_utf8_lossy(&got).contains("hello.txt"));
    }

    #[test]
    fn stou_creates_unique_files() {
        let mut r = rig("1.2.0", 2109);
        login(&mut r);
        // Pre-create the first candidate to force the retry loop.
        r.kernel.fs().write_file("/unique.1", b"taken").unwrap();
        send(&mut r, "STOU");
        assert_eq!(
            recv_until(&mut r, b"\r\n"),
            b"226 Transfer complete: unique.2.\r\n"
        );
        assert!(r.kernel.fs().exists("/unique.2"));
        send(&mut r, "STOU");
        assert_eq!(
            recv_until(&mut r, b"\r\n"),
            b"226 Transfer complete: unique.3.\r\n"
        );
    }

    #[test]
    fn version_gated_commands() {
        // STOU unknown before 1.2.0.
        let mut old = rig("1.1.3", 2110);
        login(&mut old);
        send(&mut old, "STOU");
        assert_eq!(recv_until(&mut old, b"\r\n"), b"500 Unknown command.\r\n");
        // MDTM unknown before 2.0.2, known after.
        let mut v201 = rig("2.0.1", 2111);
        login(&mut v201);
        send(&mut v201, "MDTM hello.txt");
        assert_eq!(recv_until(&mut v201, b"\r\n"), b"500 Unknown command.\r\n");
        let mut v202 = rig("2.0.2", 2112);
        login(&mut v202);
        send(&mut v202, "MDTM hello.txt");
        assert_eq!(recv_until(&mut v202, b"\r\n"), b"213 20190413000000\r\n");
        // REST gated at 2.0.4.
        let mut v204 = rig("2.0.4", 2113);
        login(&mut v204);
        send(&mut v204, "REST 100");
        assert_eq!(
            recv_until(&mut v204, b"\r\n"),
            b"350 Restart position accepted (0).\r\n"
        );
    }

    #[test]
    fn quit_reply_changes_in_203_and_closes() {
        let mut r = rig("2.0.3", 2114);
        let _ = recv_until(&mut r, b"\r\n");
        send(&mut r, "QUIT");
        assert_eq!(recv_until(&mut r, b"\r\n"), b"221 Goodbye!\r\n");
        // EOF follows.
        for _ in 0..10 {
            let _ = r.app.step(&mut r.os);
        }
        assert_eq!(r.kernel.client_recv(r.client, 8).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn resolve_paths() {
        assert_eq!(resolve("/", "f"), "/f");
        assert_eq!(resolve("/pub", "f"), "/pub/f");
        assert_eq!(resolve("/pub", "/abs"), "/abs");
    }

    #[test]
    fn lines_after_quit_leave_no_session() {
        let mut r = rig("2.0.5", 2118);
        let _banner = recv_until(&mut r, b"\r\n");
        r.kernel
            .client_send(r.client, b"QUIT\r\nUSER anonymous\r\n")
            .unwrap();
        assert_eq!(recv_until(&mut r, b"\r\n"), b"221 Goodbye!\r\n");
        for _ in 0..10 {
            let _ = r.app.step(&mut r.os);
        }
        assert_eq!(r.app.state.net.conn_count(), 0);
        assert!(
            r.app.state.sessions.is_empty(),
            "{:?}",
            r.app.state.sessions
        );
    }
}
