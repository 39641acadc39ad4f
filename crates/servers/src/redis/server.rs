use dsu::{AppState, DsuApp, StepOutcome, Version};
use vos::Os;

use crate::net::{NetCore, NetEvent};

use super::store::{IncrOutcome, Store};
use super::versions::{RedisFeatures, RedisOptions};

const WRONGTYPE: &str = "-WRONGTYPE Operation against a key holding the wrong kind of value\r\n";

/// Program state shared by all Redis versions: connection plumbing, the
/// keyspace, and the stats counters whose clock read is the syscall the
/// 2.0.1 update reorders.
#[derive(Clone, Debug)]
pub struct RedisState {
    pub net: NetCore,
    pub store: Store,
    /// Commands processed (the "stats" the clock read updates).
    pub ops_seen: u64,
    /// Kernel timestamp of the most recent stats update.
    pub last_stat_nanos: u64,
}

impl RedisState {
    /// Fresh state serving `port`.
    pub fn new(port: u16) -> Self {
        RedisState {
            net: NetCore::new(port),
            store: Store::new(),
            ops_seen: 0,
            last_stat_nanos: 0,
        }
    }
}

/// One engine for every Redis release in the study; behaviour varies by
/// the [`RedisFeatures`] row and the deployment's bug gating.
#[derive(Debug)]
pub struct RedisApp {
    version: Version,
    features: &'static RedisFeatures,
    hmget_crashes: bool,
    state: RedisState,
}

impl RedisApp {
    /// Boots a fresh instance of `version` under `options`.
    ///
    /// # Panics
    /// Panics if `version` is not in the version table.
    pub fn new(version: Version, options: &RedisOptions) -> Self {
        Self::from_state(version, options, RedisState::new(options.port))
    }

    /// Resumes `version` from migrated state.
    ///
    /// # Panics
    /// Panics if `version` is not in the version table.
    pub fn from_state(version: Version, options: &RedisOptions, state: RedisState) -> Self {
        let features = RedisFeatures::for_version(&version)
            .unwrap_or_else(|| panic!("unknown redis version {version}"));
        RedisApp {
            hmget_crashes: options.hmget_crashes(&version),
            version,
            features,
            state,
        }
    }

    /// Handles one command line against the store; pure protocol logic.
    ///
    /// # Panics
    /// Panics on wrong-type `HMGET` when the deployment carries the bug
    /// (revision `7fb16bac`) — the §6.2 "error in the new code".
    pub fn respond(
        line: &str,
        store: &mut Store,
        features: &RedisFeatures,
        hmget_crashes: bool,
    ) -> String {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let cmd = parts.first().map(|c| c.to_ascii_uppercase());
        let bulk = |v: Option<&str>| match v {
            Some(s) => format!("${}\r\n{s}\r\n", s.len()),
            None => "$-1\r\n".to_string(),
        };
        match (cmd.as_deref(), parts.len()) {
            (Some("PING"), 1) => "+PONG\r\n".into(),
            (Some("SET"), 3) => {
                store.set(parts[1], parts[2]);
                "+OK\r\n".into()
            }
            (Some("GET"), 2) => match store.get(parts[1]) {
                Ok(v) => bulk(v),
                Err(super::store::WrongType) => WRONGTYPE.into(),
            },
            (Some("DEL"), 2) => format!(":{}\r\n", store.del(parts[1]) as u8),
            (Some("EXISTS"), 2) => format!(":{}\r\n", store.exists(parts[1]) as u8),
            (Some("EXISTS"), 1) if features.strict_exists => {
                "-ERR wrong number of arguments for 'exists' command\r\n".into()
            }
            (Some("EXISTS"), 1) => ":0\r\n".into(),
            (Some("INCR"), 2) => match store.incr(parts[1], features.incr_checked) {
                IncrOutcome::Value(n) => format!(":{n}\r\n"),
                IncrOutcome::NotAnInteger | IncrOutcome::Overflow => {
                    "-ERR value is not an integer or out of range\r\n".into()
                }
            },
            (Some("DBSIZE"), 1) => format!(":{}\r\n", store.len()),
            (Some("HSET"), 4) => match store.hset(parts[1], parts[2], parts[3]) {
                Ok(new) => format!(":{}\r\n", new as u8),
                Err(super::store::WrongType) => WRONGTYPE.into(),
            },
            (Some("HGET"), 3) => match store.hget(parts[1], parts[2]) {
                Ok(v) => bulk(v),
                Err(super::store::WrongType) => WRONGTYPE.into(),
            },
            (Some("HMGET"), n) if n >= 3 => match store.hmget(parts[1], &parts[2..]) {
                Ok(values) => {
                    let mut out = format!("*{}\r\n", values.len());
                    for v in values {
                        out.push_str(&bulk(v));
                    }
                    out
                }
                Err(super::store::WrongType) => {
                    if hmget_crashes {
                        // Revision 7fb16bac: dereferences the value as a
                        // hash without a type check and dies.
                        panic!("HMGET on wrong type: segmentation fault (revision 7fb16bac)");
                    }
                    WRONGTYPE.into()
                }
            },
            (Some(other), _) => format!("-ERR unknown command '{other}'\r\n"),
            (None, _) => "-ERR empty command\r\n".into(),
        }
    }
}

impl DsuApp for RedisApp {
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
                // Redis 2.0 buffers the replies of one read and flushes
                // them once, so a read costs one `write` and one stats
                // clock read however many commands it carried, and the
                // `stats_reorder` rules see one `write`/`now` pair.
                let reply: String = lines
                    .iter()
                    .map(|line| {
                        Self::respond(
                            line,
                            &mut self.state.store,
                            self.features,
                            self.hmget_crashes,
                        )
                    })
                    .collect();
                self.state.ops_seen += lines.len() as u64;
                if self.features.stats_before_reply {
                    self.state.last_stat_nanos = os.now();
                    self.state.net.send(os, fd, reply.as_bytes());
                } else {
                    self.state.net.send(os, fd, reply.as_bytes());
                    self.state.last_stat_nanos = os.now();
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

    fn features(version: &str) -> &'static RedisFeatures {
        RedisFeatures::for_version(&dsu::v(version)).unwrap()
    }

    fn run(line: &str, store: &mut Store, version: &str) -> String {
        RedisApp::respond(line, store, features(version), false)
    }

    #[test]
    fn basic_commands() {
        let mut s = Store::new();
        assert_eq!(run("PING", &mut s, "2.0.0"), "+PONG\r\n");
        assert_eq!(run("SET k v", &mut s, "2.0.0"), "+OK\r\n");
        assert_eq!(run("GET k", &mut s, "2.0.0"), "$1\r\nv\r\n");
        assert_eq!(run("GET nope", &mut s, "2.0.0"), "$-1\r\n");
        assert_eq!(run("DEL k", &mut s, "2.0.0"), ":1\r\n");
        assert_eq!(run("DEL k", &mut s, "2.0.0"), ":0\r\n");
        assert_eq!(run("DBSIZE", &mut s, "2.0.0"), ":0\r\n");
        assert_eq!(
            run("BOGUS", &mut s, "2.0.0"),
            "-ERR unknown command 'BOGUS'\r\n"
        );
        assert_eq!(run("", &mut s, "2.0.0"), "-ERR empty command\r\n");
    }

    #[test]
    fn commands_are_case_insensitive() {
        let mut s = Store::new();
        assert_eq!(run("set k v", &mut s, "2.0.0"), "+OK\r\n");
        assert_eq!(run("get k", &mut s, "2.0.0"), "$1\r\nv\r\n");
    }

    #[test]
    fn hash_commands() {
        let mut s = Store::new();
        assert_eq!(run("HSET h f1 a", &mut s, "2.0.0"), ":1\r\n");
        assert_eq!(run("HSET h f1 b", &mut s, "2.0.0"), ":0\r\n");
        assert_eq!(run("HGET h f1", &mut s, "2.0.0"), "$1\r\nb\r\n");
        assert_eq!(
            run("HMGET h f1 missing", &mut s, "2.0.0"),
            "*2\r\n$1\r\nb\r\n$-1\r\n"
        );
    }

    #[test]
    fn hmget_wrong_type_fixed_vs_buggy() {
        let mut s = Store::new();
        s.set("str", "v");
        // Fixed build: an error reply.
        let reply = RedisApp::respond("HMGET str f", &mut s, features("2.0.1"), false);
        assert!(reply.starts_with("-WRONGTYPE"), "{reply}");
        // Buggy build: crash.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            RedisApp::respond("HMGET str f", &mut s, features("2.0.1"), true)
        }));
        assert!(result.is_err(), "buggy build must crash");
    }

    #[test]
    fn exists_strictness_differs_in_203() {
        let mut s = Store::new();
        assert_eq!(run("EXISTS", &mut s, "2.0.2"), ":0\r\n");
        assert!(run("EXISTS", &mut s, "2.0.3").starts_with("-ERR wrong number"));
    }

    #[test]
    fn incr_overflow_differs_in_202() {
        let mut s = Store::new();
        s.set("n", &i64::MAX.to_string());
        assert_eq!(
            run("INCR n", &mut s, "2.0.1"),
            format!(":{}\r\n", i64::MIN),
            "2.0.1 wraps"
        );
        s.set("n", &i64::MAX.to_string());
        assert!(
            run("INCR n", &mut s, "2.0.2").starts_with("-ERR"),
            "2.0.2 checks"
        );
    }

    #[test]
    fn serves_clients_end_to_end() {
        let kernel = vos::VirtualKernel::new();
        let mut os = vos::DirectOs::new(kernel.clone());
        let mut app = RedisApp::new(dsu::v("2.0.0"), &RedisOptions::new(6379));
        let _ = app.step(&mut os);
        let client = kernel.connect(6379).unwrap();
        kernel
            .client_send(client, b"SET greeting hello\r\nGET greeting\r\n")
            .unwrap();
        let mut got = Vec::new();
        for _ in 0..20 {
            let _ = app.step(&mut os);
            if let Ok(data) =
                kernel.client_recv_timeout(client, 256, std::time::Duration::from_millis(5))
            {
                got.extend_from_slice(&data);
            }
            if got.ends_with(b"hello\r\n") {
                break;
            }
        }
        assert_eq!(got, b"+OK\r\n$5\r\nhello\r\n");
        let snap = app.snapshot();
        let state = snap.downcast_ref::<RedisState>().unwrap();
        assert_eq!(state.ops_seen, 2);
        assert!(state.last_stat_nanos > 0);
    }
}
