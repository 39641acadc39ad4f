//! Shared single-threaded server runtime: listener + epoll + per-
//! connection line buffering.
//!
//! Every server in this crate drives its protocol off [`NetCore::step`],
//! which performs one bounded `epoll_wait` round and turns readiness
//! into line-granular [`NetEvent`]s. The type is `Clone` so it can ride
//! inside DSU state snapshots; [`NetCore::migrated`] is what an updated
//! version calls to re-attach to the surviving kernel objects — it
//! deliberately rebuilds the event loop *without* its round-robin
//! memory, reproducing the paper's LibEvent behaviour (§5.3).

use std::collections::HashMap;

use evloop::EventLoop;
use vos::{Buf, Errno, Fd, Os, OsResult};

/// Per-connection receive buffer with line extraction.
#[derive(Clone, Debug, Default)]
pub struct ConnIo {
    buf: Vec<u8>,
}

impl ConnIo {
    /// Empty buffer.
    pub fn new() -> Self {
        ConnIo::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Pops the next complete line (terminated by `\n`; a trailing `\r`
    /// is stripped), or `None` if no full line is buffered.
    pub fn next_line(&mut self) -> Option<String> {
        let pos = self.buf.iter().position(|b| *b == b'\n')?;
        let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
        line.pop(); // '\n'
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Bytes currently buffered (incomplete line).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Registration token inside the event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tok {
    Listener,
    Conn,
}

/// What one [`NetCore::step`] round observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetEvent {
    /// A new client connection was accepted.
    Accepted(Fd),
    /// A full request line arrived.
    Line(Fd, String),
    /// The peer closed; the descriptor is already released.
    Closed(Fd),
}

/// Listener + epoll + connection table for a single-threaded server.
#[derive(Clone, Debug)]
pub struct NetCore {
    port: u16,
    poll_timeout_ms: u64,
    listener: Option<Fd>,
    ev: EventLoop<Tok>,
    conns: HashMap<Fd, ConnIo>,
}

impl NetCore {
    /// A core that will bind `port` on first step.
    pub fn new(port: u16) -> Self {
        NetCore {
            port,
            poll_timeout_ms: 10,
            listener: None,
            ev: EventLoop::new(),
            conns: HashMap::new(),
        }
    }

    /// Overrides how long one step blocks in `epoll_wait` (update-point
    /// frequency vs. busy-wait trade-off).
    pub fn with_poll_timeout(mut self, ms: u64) -> Self {
        self.poll_timeout_ms = ms;
        self
    }

    /// The port served.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Live connection count.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// Every kernel descriptor this core holds (listener first, then
    /// connections). The stop-restart baseline closes these on shutdown
    /// — dropping every client, which is exactly the disruption the
    /// paper's §2.2 charges against restart-based upgrades.
    pub fn fds(&self) -> Vec<Fd> {
        self.listener
            .into_iter()
            .chain(self.conns.keys().copied())
            .collect()
    }

    /// Rebuilds this core the way an updated program version re-attaches
    /// to kernel objects that survived the update: same listener, same
    /// epoll registrations, same half-read buffers — but a *fresh* event
    /// loop cursor. That lost round-robin memory is exactly the paper's
    /// Memcached timing error; the leader-side fix is
    /// [`NetCore::reset_ephemeral`] at fork time.
    pub fn migrated(self) -> Self {
        let (ep, entries) = self.ev.into_parts();
        let ev = match ep {
            Some(ep) => EventLoop::from_parts(ep, entries),
            None => EventLoop::new(),
        };
        NetCore {
            port: self.port,
            poll_timeout_ms: self.poll_timeout_ms,
            listener: self.listener,
            ev,
            conns: self.conns,
        }
    }

    /// The leader-side reset callback (paper §5.3): drops the event
    /// loop's dispatch memory so a forked follower orders events the
    /// same way.
    pub fn reset_ephemeral(&mut self) {
        self.ev.reset_memory();
    }

    /// One event-loop round: binds the listener lazily, waits for
    /// readiness, accepts, reads, and splits lines.
    ///
    /// The epoll instance is created before the listener: a client can
    /// connect as soon as `listen` returns, and its descriptors must not
    /// land between the listener's and the epoll instance's, or every
    /// later descriptor number would depend on that timing.
    ///
    /// # Errors
    /// Propagates fatal kernel errors (bind failure); per-connection
    /// errors tear down only that connection.
    pub fn step(&mut self, os: &mut dyn Os) -> OsResult<Vec<NetEvent>> {
        if self.listener.is_none() {
            self.ev.open(os)?;
            let listener = os.listen(self.port)?;
            self.ev.register(os, listener, Tok::Listener)?;
            self.listener = Some(listener);
        }
        let ready = self.ev.poll(os, 16, self.poll_timeout_ms)?;
        let mut events = Vec::new();
        for (fd, tok) in ready {
            match tok {
                Tok::Listener => loop {
                    match os.accept(fd) {
                        Ok(conn) => {
                            self.ev.register(os, conn, Tok::Conn)?;
                            self.conns.insert(conn, ConnIo::new());
                            events.push(NetEvent::Accepted(conn));
                        }
                        Err(Errno::WouldBlock) => break,
                        Err(_) => break,
                    }
                },
                Tok::Conn => match os.read_timeout(fd, 4096, 20) {
                    Ok(data) if data.is_empty() => {
                        self.drop_conn(os, fd);
                        events.push(NetEvent::Closed(fd));
                    }
                    Ok(data) => {
                        let io = self.conns.entry(fd).or_default();
                        io.feed(&data);
                        while let Some(line) = io.next_line() {
                            events.push(NetEvent::Line(fd, line));
                        }
                    }
                    Err(Errno::TimedOut) => {}
                    Err(_) => {
                        self.drop_conn(os, fd);
                        events.push(NetEvent::Closed(fd));
                    }
                },
            }
        }
        Ok(events)
    }

    /// Sends bytes on a connection; on failure the connection is torn
    /// down (the caller sees it closed on a later step).
    pub fn send(&mut self, os: &mut dyn Os, fd: Fd, data: &[u8]) {
        if os.write(fd, data).is_err() {
            self.drop_conn(os, fd);
        }
    }

    /// Sends an already-shared buffer without copying it: the same
    /// allocation reaches the peer's inbox and, under MVE, the leader's
    /// logged record and the follower. Failure tears the connection down
    /// like [`send`](Self::send).
    pub fn send_buf(&mut self, os: &mut dyn Os, fd: Fd, data: Buf) {
        if os.write_buf(fd, data).is_err() {
            self.drop_conn(os, fd);
        }
    }

    /// Closes a connection server-side.
    pub fn close_conn(&mut self, os: &mut dyn Os, fd: Fd) {
        self.drop_conn(os, fd);
    }

    fn drop_conn(&mut self, os: &mut dyn Os, fd: Fd) {
        if self.conns.remove(&fd).is_some() {
            let _ = self.ev.deregister(os, fd);
            let _ = os.close(fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vos::{DirectOs, VirtualKernel};

    fn rig(port: u16) -> (Arc<VirtualKernel>, DirectOs, NetCore) {
        let kernel = VirtualKernel::new();
        let os = DirectOs::new(kernel.clone());
        (kernel, os, NetCore::new(port).with_poll_timeout(5))
    }

    #[test]
    fn conn_io_line_extraction() {
        let mut io = ConnIo::new();
        io.feed(b"GET k\r\nPUT a");
        assert_eq!(io.next_line().as_deref(), Some("GET k"));
        assert_eq!(io.next_line(), None);
        assert_eq!(io.pending(), 5);
        io.feed(b" b\n");
        assert_eq!(io.next_line().as_deref(), Some("PUT a b"));
    }

    #[test]
    fn accepts_and_reads_lines() {
        let (kernel, mut os, mut core) = rig(6000);
        let _ = core.step(&mut os).unwrap(); // binds
        let client = kernel.connect(6000).unwrap();
        kernel.client_send(client, b"hello world\r\n").unwrap();
        let mut seen = Vec::new();
        for _ in 0..10 {
            seen.extend(core.step(&mut os).unwrap());
            if seen.len() >= 2 {
                break;
            }
        }
        assert!(matches!(seen[0], NetEvent::Accepted(_)));
        assert!(matches!(&seen[1], NetEvent::Line(_, l) if l == "hello world"));
        assert_eq!(core.conn_count(), 1);
    }

    #[test]
    fn close_is_reported_and_cleaned_up() {
        let (kernel, mut os, mut core) = rig(6001);
        let _ = core.step(&mut os).unwrap();
        let client = kernel.connect(6001).unwrap();
        let mut accepted = None;
        for _ in 0..10 {
            for e in core.step(&mut os).unwrap() {
                if let NetEvent::Accepted(fd) = e {
                    accepted = Some(fd);
                }
            }
            if accepted.is_some() {
                break;
            }
        }
        kernel.close(client).unwrap();
        let mut closed = false;
        for _ in 0..10 {
            for e in core.step(&mut os).unwrap() {
                if matches!(e, NetEvent::Closed(_)) {
                    closed = true;
                }
            }
            if closed {
                break;
            }
        }
        assert!(closed);
        assert_eq!(core.conn_count(), 0);
    }

    #[test]
    fn send_reaches_client() {
        let (kernel, mut os, mut core) = rig(6002);
        let _ = core.step(&mut os).unwrap();
        let client = kernel.connect(6002).unwrap();
        kernel.client_send(client, b"x\n").unwrap();
        let mut conn = None;
        for _ in 0..10 {
            for e in core.step(&mut os).unwrap() {
                if let NetEvent::Line(fd, _) = e {
                    conn = Some(fd);
                }
            }
            if conn.is_some() {
                break;
            }
        }
        core.send(&mut os, conn.unwrap(), b"+OK\r\n");
        assert_eq!(kernel.client_recv(client, 16).unwrap(), b"+OK\r\n");
    }

    #[test]
    fn first_step_creates_epoll_before_the_listener() {
        let (kernel, mut os, mut core) = rig(6003);
        let _ = core.step(&mut os).unwrap();
        let ep = core.ev.epoll_fd().expect("epoll created");
        let listener = core.listener.expect("listener bound");
        assert!(
            ep < listener,
            "epoll {ep} was allocated after listener {listener}"
        );
        // A client that connects from here on cannot shift either fd.
        let client = kernel.connect(6003).unwrap();
        assert!(client > listener);
        let _ = core.step(&mut os).unwrap();
        assert_eq!(core.ev.epoll_fd(), Some(ep));
    }

    #[test]
    fn migrated_core_keeps_conns_but_drops_cursor() {
        let (kernel, mut os, mut core) = rig(6004);
        let _ = core.step(&mut os).unwrap();
        let c1 = kernel.connect(6004).unwrap();
        let c2 = kernel.connect(6004).unwrap();
        for _ in 0..10 {
            let _ = core.step(&mut os).unwrap();
            if core.conn_count() == 2 {
                break;
            }
        }
        // Make both ready so the round-robin cursor advances.
        kernel.client_send(c1, b"a\n").unwrap();
        kernel.client_send(c2, b"b\n").unwrap();
        let _ = core.step(&mut os).unwrap();

        let migrated = core.clone().migrated();
        assert_eq!(migrated.conn_count(), 2, "connections survive migration");
        // The fresh core dispatches from index zero again — observable
        // via the divergence tests at the MVE layer; here we just pin
        // that migration kept the listener.
        assert_eq!(migrated.port(), 6004);
    }

    #[test]
    fn step_with_no_traffic_returns_empty() {
        let (_kernel, mut os, mut core) = rig(6005);
        assert!(core.step(&mut os).unwrap().is_empty());
        assert!(core.step(&mut os).unwrap().is_empty());
    }
}
