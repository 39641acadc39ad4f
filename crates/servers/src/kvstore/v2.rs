use std::collections::HashMap;

use dsu::{AppState, DsuApp, StepOutcome, Version};
use vos::Os;

use crate::net::{NetCore, NetEvent};

/// The type tag added by the update (Figure 1b's `typ`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValType {
    Str,
    Number,
    Date,
}

impl ValType {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ValType::Str => "string",
            ValType::Number => "number",
            ValType::Date => "date",
        }
    }

    /// Parses the wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "string" => ValType::Str,
            "number" => ValType::Number,
            "date" => ValType::Date,
            _ => return None,
        })
    }
}

/// Version 2 program state: every entry now carries a [`ValType`].
#[derive(Clone, Debug)]
pub struct V2State {
    pub net: NetCore,
    pub table: HashMap<String, (String, ValType)>,
}

impl V2State {
    /// Fresh state serving `port`.
    pub fn new(port: u16) -> Self {
        V2State {
            net: NetCore::new(port),
            table: HashMap::new(),
        }
    }
}

/// The version-2 key-value server (typed values).
#[derive(Debug)]
pub struct KvV2 {
    version: Version,
    state: V2State,
}

impl KvV2 {
    /// Boots a fresh instance on `port`.
    pub fn new(port: u16) -> Self {
        KvV2::from_state(V2State::new(port))
    }

    /// Resumes from migrated (transformed) state.
    pub fn from_state(state: V2State) -> Self {
        KvV2 {
            version: dsu::v(super::V2),
            state,
        }
    }

    /// The pure protocol handler (see [`KvV1::respond`]).
    ///
    /// [`KvV1::respond`]: super::KvV1::respond
    pub fn respond(line: &str, table: &mut HashMap<String, (String, ValType)>) -> String {
        let mut parts = line.split_whitespace();
        let head = parts.next().unwrap_or("");
        let (cmd, typ) = match head.split_once('-') {
            Some((c, t)) => (c, Some(t)),
            None => (head, None),
        };
        match (cmd, typ, parts.next(), parts.next()) {
            ("PUT", None, Some(key), Some(val)) => {
                table.insert(key.to_string(), (val.to_string(), ValType::Str));
                "OK\r\n".to_string()
            }
            ("PUT", Some(t), Some(key), Some(val)) => match ValType::from_name(t) {
                Some(typ) => {
                    table.insert(key.to_string(), (val.to_string(), typ));
                    "OK\r\n".to_string()
                }
                None => "ERR bad-type\r\n".to_string(),
            },
            ("GET", None, Some(key), None) => match table.get(key) {
                Some((val, ValType::Str)) => format!("VAL {val}\r\n"),
                // Typed values echo their type — which is why migrated
                // entries must default to `string`: a wrong default (the
                // CorruptField fault) changes this reply and diverges.
                Some((val, typ)) => format!("VAL-{} {val}\r\n", typ.name()),
                None => "ERR not-found\r\n".to_string(),
            },
            ("TYPE", None, Some(key), None) => match table.get(key) {
                Some((_, typ)) => format!("TYPE {}\r\n", typ.name()),
                None => "ERR not-found\r\n".to_string(),
            },
            _ => "ERR bad-cmd\r\n".to_string(),
        }
    }
}

impl DsuApp for KvV2 {
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

    fn table() -> HashMap<String, (String, ValType)> {
        HashMap::new()
    }

    #[test]
    fn backward_compatible_commands() {
        let mut t = table();
        assert_eq!(KvV2::respond("PUT balance 1000", &mut t), "OK\r\n");
        assert_eq!(KvV2::respond("GET balance", &mut t), "VAL 1000\r\n");
        assert_eq!(
            KvV2::respond("TYPE balance", &mut t),
            "TYPE string\r\n",
            "plain PUT defaults to string"
        );
    }

    #[test]
    fn typed_puts_and_gets() {
        let mut t = table();
        assert_eq!(KvV2::respond("PUT-number balance 1001", &mut t), "OK\r\n");
        assert_eq!(KvV2::respond("GET balance", &mut t), "VAL-number 1001\r\n");
        assert_eq!(KvV2::respond("TYPE balance", &mut t), "TYPE number\r\n");
        assert_eq!(KvV2::respond("PUT-date d 2019-04-13", &mut t), "OK\r\n");
        assert_eq!(KvV2::respond("PUT-bogus k v", &mut t), "ERR bad-type\r\n");
    }

    #[test]
    fn unknown_commands_rejected() {
        let mut t = table();
        assert_eq!(KvV2::respond("bad-cmd", &mut t), "ERR bad-cmd\r\n");
        assert_eq!(KvV2::respond("DEL k", &mut t), "ERR bad-cmd\r\n");
    }

    #[test]
    fn val_type_names_round_trip() {
        for t in [ValType::Str, ValType::Number, ValType::Date] {
            assert_eq!(ValType::from_name(t.name()), Some(t));
        }
        assert_eq!(ValType::from_name("blob"), None);
    }
}
