use std::collections::HashMap;

use dsu::{AppState, DsuApp, StepOutcome, Version};
use vos::{Errno, Fd, OpenMode, Os};

use crate::net::{NetCore, NetEvent};

use super::features::VsftpdFeatures;

/// Transfer chunk size: one `write` syscall per chunk.
const CHUNK: usize = 8192;

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

    /// Handles one command; writes replies (and file data) itself since
    /// transfers are chunked.
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
                        loop {
                            match os.read(file, CHUNK) {
                                Ok(chunk) if chunk.is_empty() => break,
                                // The chunk is a window of the file's
                                // snapshot; it is sent as is, not copied.
                                Ok(chunk) => self.state.net.send_buf(os, fd, chunk),
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
                NetEvent::Line(fd, line) => self.handle(os, fd, &line),
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
    use vos::{DirectOs, VirtualKernel};

    struct Rig {
        kernel: Arc<VirtualKernel>,
        os: DirectOs,
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
        let mut os = DirectOs::new(kernel.clone());
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
                    .client_recv_timeout(rig.client, 65536, Duration::from_millis(2))
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
}
