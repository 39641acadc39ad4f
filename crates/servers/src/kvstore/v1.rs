use std::collections::HashMap;

use dsu::{AppState, DsuApp, StepOutcome, Version};
use vos::Os;

use crate::net::{NetCore, NetEvent};

/// Version 1 program state: the connection plumbing plus the table of
/// Figure 1a (`struct entry { key, val }`).
#[derive(Clone, Debug)]
pub struct V1State {
    pub net: NetCore,
    pub table: HashMap<String, String>,
}

impl V1State {
    /// Fresh state serving `port`.
    pub fn new(port: u16) -> Self {
        V1State {
            net: NetCore::new(port),
            table: HashMap::new(),
        }
    }
}

/// The version-1 key-value server.
#[derive(Debug)]
pub struct KvV1 {
    version: Version,
    state: V1State,
}

impl KvV1 {
    /// Boots a fresh instance on `port`.
    pub fn new(port: u16) -> Self {
        KvV1::from_state(V1State::new(port))
    }

    /// Resumes from migrated state.
    pub fn from_state(state: V1State) -> Self {
        KvV1 {
            version: dsu::v(super::V1),
            state,
        }
    }

    /// The pure protocol handler: one request line in, one reply out.
    /// Exposed so tests (and the Figure 3 state-relation property) can
    /// exercise the semantics without a kernel.
    pub fn respond(line: &str, table: &mut HashMap<String, String>) -> String {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some("PUT"), Some(key), Some(val)) => {
                table.insert(key.to_string(), val.to_string());
                "OK\r\n".to_string()
            }
            (Some("GET"), Some(key), None) => match table.get(key) {
                Some(val) => format!("VAL {val}\r\n"),
                None => "ERR not-found\r\n".to_string(),
            },
            _ => "ERR bad-cmd\r\n".to_string(),
        }
    }
}

impl DsuApp for KvV1 {
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
            if let NetEvent::Lines(fd, lines) = event {
                // One write per line, as Figure 1's server does. The
                // update rules (`updates.rs`) rewrite a whole `read` as
                // one command, so under them the versions agree only
                // while each read carries one command, however the
                // replies are written.
                for line in lines {
                    let reply = Self::respond(&line, &mut self.state.table);
                    self.state.net.send(os, fd, reply.as_bytes());
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

    #[test]
    fn protocol_semantics() {
        let mut table = HashMap::new();
        assert_eq!(KvV1::respond("PUT balance 1000", &mut table), "OK\r\n");
        assert_eq!(KvV1::respond("GET balance", &mut table), "VAL 1000\r\n");
        assert_eq!(
            KvV1::respond("GET missing", &mut table),
            "ERR not-found\r\n"
        );
        assert_eq!(KvV1::respond("TYPE balance", &mut table), "ERR bad-cmd\r\n");
        assert_eq!(
            KvV1::respond("PUT-number balance 1", &mut table),
            "ERR bad-cmd\r\n",
            "typed puts are a v2 feature"
        );
        assert_eq!(KvV1::respond("", &mut table), "ERR bad-cmd\r\n");
    }

    #[test]
    fn put_overwrites() {
        let mut table = HashMap::new();
        KvV1::respond("PUT k 1", &mut table);
        KvV1::respond("PUT k 2", &mut table);
        assert_eq!(KvV1::respond("GET k", &mut table), "VAL 2\r\n");
    }

    #[test]
    fn serves_clients_end_to_end() {
        let kernel = vos::VirtualKernel::new();
        let mut os = vos::DirectOs::new(kernel.clone());
        let mut app = KvV1::new(7100);
        let _ = app.step(&mut os);
        let client = kernel.connect(7100).unwrap();
        kernel.client_send(client, b"PUT a 1\r\nGET a\r\n").unwrap();
        let mut got = Vec::new();
        for _ in 0..20 {
            let _ = app.step(&mut os);
            if let Ok(data) =
                kernel.client_recv_timeout(client, 256, std::time::Duration::from_millis(5))
            {
                got.extend_from_slice(&data);
            }
            if got.ends_with(b"VAL 1\r\n") {
                break;
            }
        }
        assert_eq!(got, b"OK\r\nVAL 1\r\n");
        assert_eq!(
            app.snapshot()
                .downcast_ref::<V1State>()
                .unwrap()
                .table
                .len(),
            1
        );
    }
}
