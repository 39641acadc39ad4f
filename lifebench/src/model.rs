//! Workloads, the seeded input generator and the exact reply model.
//!
//! Every client connection owns a disjoint slice of the keyspace, so it
//! alone writes those keys and knows, for each one, how many times it
//! has written it. A value encodes its key and that write count; the
//! reply to every request is therefore known byte for byte before the
//! request is sent, and a stale, lost or corrupted reply fails the check.

use std::sync::Arc;

use dsu::{Version, VersionRegistry};
use mvedsua::UpdatePackage;
use servers::{memcached, redis, vsftpd};
use vos::VirtualKernel;

/// Client connections, one closed-loop thread each.
pub const CONNS: usize = 2;
/// Keys preloaded into Redis: large enough that the 2.0.0 -> 2.0.1
/// state transformation dominates the update pause.
pub const REDIS_KEYS: u64 = 200_000;
/// Keys preloaded into Memcached.
pub const MEMCACHED_KEYS: u64 = 1_000;
/// Bytes per value.
pub const VALUE_LEN: usize = 32;
/// Share of reads among key-value operations, in percent.
pub const READ_PCT: u64 = 90;
/// Size of the file the FTP sessions download.
pub const FILE_LEN: usize = 2 * 1024 * 1024;
/// Name of that file.
pub const FILE_NAME: &str = "large.bin";

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RedisKv,
    MemcachedKv,
    FtpLarge,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::RedisKv, Workload::MemcachedKv, Workload::FtpLarge];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RedisKv => "redis-kv",
            Workload::MemcachedKv => "memcached-kv",
            Workload::FtpLarge => "ftp-large",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn proto(self) -> Proto {
        match self {
            Workload::RedisKv => Proto::Redis,
            Workload::MemcachedKv => Proto::Memcached,
            Workload::FtpLarge => Proto::Ftp,
        }
    }

    /// Operations each client runs to warm up, after the preload and
    /// before the first timed request.
    pub fn warmup_ops(self) -> i64 {
        match self {
            Workload::FtpLarge => 25,
            _ => 5_000,
        }
    }

    /// Updates per lifecycle cycle. Each but the last is rolled back
    /// once its follower caught up. The pause is the median over all
    /// updates of a run, since one update's largest latency rests on a
    /// handful of operations: the fewer operations an update overlaps,
    /// the more updates.
    pub fn updates_per_cycle(self) -> usize {
        match self {
            Workload::RedisKv => 1,
            _ => 3,
        }
    }

    /// Keys preloaded at set-up (0 for FTP).
    pub fn keyspace(self) -> u64 {
        match self {
            Workload::RedisKv => REDIS_KEYS,
            Workload::MemcachedKv => MEMCACHED_KEYS,
            Workload::FtpLarge => 0,
        }
    }
}

/// Wire protocol spoken by the clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    Redis,
    Memcached,
    Ftp,
}

/// The server family, versions and update package of a workload.
pub struct Spec {
    pub port: u16,
    pub registry: Arc<VersionRegistry>,
    pub from: Version,
    pub to: Version,
    pub package: UpdatePackage,
}

impl Spec {
    pub fn of(workload: Workload) -> Spec {
        match workload {
            Workload::RedisKv => {
                let (from, to) = (dsu::v("2.0.0"), dsu::v("2.0.1"));
                Spec {
                    port: 6379,
                    registry: redis::registry(&redis::RedisOptions::new(6379)),
                    package: redis::update_package(&from, &to),
                    from,
                    to,
                }
            }
            Workload::MemcachedKv => {
                let to = dsu::v("1.2.3");
                Spec {
                    port: 11211,
                    registry: memcached::registry(11211, 4),
                    package: memcached::update_package(&to, dsu::FaultPlan::none()),
                    from: dsu::v("1.2.2"),
                    to,
                }
            }
            Workload::FtpLarge => {
                let (from, to) = (dsu::v("2.0.5"), dsu::v("2.0.6"));
                Spec {
                    port: 21,
                    registry: vsftpd::registry(21),
                    package: vsftpd::update_package(&from, &to),
                    from,
                    to,
                }
            }
        }
    }
}

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The file served to the FTP sessions: seeded bytes, so a transfer that
/// delivers the wrong window of the file is caught.
pub fn file_contents(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ 0xf11e);
    let mut data = Vec::with_capacity(FILE_LEN + 8);
    while data.len() < FILE_LEN {
        data.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    data.truncate(FILE_LEN);
    data
}

/// Writes the workload's static inputs into a fresh kernel.
pub fn install_inputs(workload: Workload, kernel: &VirtualKernel, seed: u64) -> Result<(), String> {
    if workload == Workload::FtpLarge {
        kernel
            .fs()
            .write_file(&format!("/{FILE_NAME}"), &file_contents(seed))
            .map_err(|e| format!("writing the FTP file: {e}"))?;
    }
    Ok(())
}

/// The exact reply to `RETR` of the benchmark file.
pub fn retr_reply(seed: u64) -> Vec<u8> {
    let mut out =
        format!("150 Opening BINARY mode data connection for {FILE_NAME} ({FILE_LEN} bytes).\r\n")
            .into_bytes();
    out.extend_from_slice(&file_contents(seed));
    out.extend_from_slice(b"226 Transfer complete.\r\n");
    out
}

/// The value stored under `key` after `writes` writes.
pub fn value(key: u64, writes: u32) -> String {
    format!("{key:016x}{writes:016x}")
}

/// A write count the client no longer knows: the last write to this key
/// failed, so its effect is uncertain until the key is written again.
const UNKNOWN: u32 = u32::MAX;

/// One connection's share of the keyspace and what it has written there.
#[derive(Clone, Debug)]
pub struct KvModel {
    proto: Proto,
    first: u64,
    stride: u64,
    writes: Vec<u32>,
    rng: Rng,
}

/// An operation sent but not yet confirmed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KvOp {
    slot: usize,
    write: bool,
}

impl KvModel {
    /// Connection `conn` of `conns` owns every key `k < keyspace` with
    /// `k % conns == conn`.
    pub fn new(proto: Proto, conn: usize, conns: usize, keyspace: u64, seed: u64) -> KvModel {
        let owned = keyspace.saturating_sub(conn as u64).div_ceil(conns as u64);
        KvModel {
            proto,
            first: conn as u64,
            stride: conns as u64,
            writes: vec![0; owned as usize],
            rng: Rng::new(seed ^ (0xc0_77 + conn as u64).wrapping_mul(0x1_0000_0001)),
        }
    }

    pub fn len(&self) -> usize {
        self.writes.len()
    }

    fn key(&self, slot: usize) -> u64 {
        self.first + slot as u64 * self.stride
    }

    /// Appends the request writing `slot`'s next value and its expected
    /// reply.
    fn push_write(&self, slot: usize, req: &mut Vec<u8>, exp: &mut Vec<u8>) {
        let key = self.key(slot);
        let next = self.writes[slot].wrapping_add(1);
        let val = value(
            key,
            if self.writes[slot] == UNKNOWN {
                0
            } else {
                next
            },
        );
        match self.proto {
            Proto::Redis => {
                req.extend_from_slice(format!("SET key:{key} {val}\r\n").as_bytes());
                exp.extend_from_slice(b"+OK\r\n");
            }
            Proto::Memcached => {
                req.extend_from_slice(
                    format!("set key:{key} 0 0 {VALUE_LEN}\r\n{val}\r\n").as_bytes(),
                );
                exp.extend_from_slice(b"STORED\r\n");
            }
            Proto::Ftp => unreachable!("FTP has no keyspace"),
        }
    }

    fn push_read(&self, slot: usize, req: &mut Vec<u8>, exp: &mut Vec<u8>) {
        let key = self.key(slot);
        let val = value(key, self.writes[slot]);
        match self.proto {
            Proto::Redis => {
                req.extend_from_slice(format!("GET key:{key}\r\n").as_bytes());
                exp.extend_from_slice(format!("${VALUE_LEN}\r\n{val}\r\n").as_bytes());
            }
            Proto::Memcached => {
                req.extend_from_slice(format!("get key:{key}\r\n").as_bytes());
                exp.extend_from_slice(
                    format!("VALUE key:{key} 0 {VALUE_LEN}\r\n{val}\r\nEND\r\n").as_bytes(),
                );
            }
            Proto::Ftp => unreachable!("FTP has no keyspace"),
        }
    }

    /// The preload requests for slots `range`, each writing write count
    /// 0, with their concatenated expected replies.
    pub fn preload_batch(
        &self,
        range: std::ops::Range<usize>,
        req: &mut Vec<u8>,
        exp: &mut Vec<u8>,
    ) {
        req.clear();
        exp.clear();
        for slot in range {
            let key = self.key(slot);
            let val = value(key, 0);
            match self.proto {
                Proto::Redis => {
                    req.extend_from_slice(format!("SET key:{key} {val}\r\n").as_bytes());
                    exp.extend_from_slice(b"+OK\r\n");
                }
                Proto::Memcached => {
                    req.extend_from_slice(
                        format!("set key:{key} 0 0 {VALUE_LEN}\r\n{val}\r\n").as_bytes(),
                    );
                    exp.extend_from_slice(b"STORED\r\n");
                }
                Proto::Ftp => unreachable!("FTP has no keyspace"),
            }
        }
    }

    /// Draws the next operation: 90% reads, uniform over owned keys. A
    /// key whose last write failed is written before it is read again.
    pub fn next(&mut self, req: &mut Vec<u8>, exp: &mut Vec<u8>) -> KvOp {
        req.clear();
        exp.clear();
        let slot = self.rng.below(self.writes.len() as u64) as usize;
        let write = self.rng.below(100) >= READ_PCT || self.writes[slot] == UNKNOWN;
        if write {
            self.push_write(slot, req, exp);
        } else {
            self.push_read(slot, req, exp);
        }
        KvOp { slot, write }
    }

    /// Records the outcome of `op`.
    pub fn complete(&mut self, op: KvOp, ok: bool) {
        if !op.write {
            return;
        }
        let w = &mut self.writes[op.slot];
        *w = match (ok, *w) {
            (true, UNKNOWN) => 0,
            (true, n) => n + 1,
            (false, _) => UNKNOWN,
        };
    }

    /// Changes a key's server-side value behind the model's back, for
    /// tests: the server now holds a value the model does not expect.
    #[cfg(test)]
    pub fn forge_request(&self, slot: usize) -> Vec<u8> {
        let key = self.key(slot);
        let val = value(key, self.writes[slot].wrapping_add(7));
        match self.proto {
            Proto::Redis => format!("SET key:{key} {val}\r\n").into_bytes(),
            Proto::Memcached => format!("set key:{key} 0 0 {VALUE_LEN}\r\n{val}\r\n").into_bytes(),
            Proto::Ftp => unreachable!("FTP has no keyspace"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_the_keyspace_once() {
        let mut seen = vec![0u8; 1001];
        for conn in 0..CONNS {
            let m = KvModel::new(Proto::Redis, conn, CONNS, 1001, 1);
            for slot in 0..m.len() {
                seen[m.key(slot) as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn values_encode_key_and_write_count() {
        assert_eq!(value(5, 2), "00000000000000050000000000000002");
        assert_eq!(value(5, 2).len(), VALUE_LEN);
    }

    #[test]
    fn the_same_seed_draws_the_same_operations() {
        let draw = |seed| {
            let mut m = KvModel::new(Proto::Memcached, 1, CONNS, 100, seed);
            let (mut req, mut exp) = (Vec::new(), Vec::new());
            (0..50)
                .map(|_| {
                    m.next(&mut req, &mut exp);
                    req.clone()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn a_confirmed_write_changes_the_expected_read() {
        let mut m = KvModel::new(Proto::Redis, 0, 1, 1, 3);
        let (mut req, mut exp) = (Vec::new(), Vec::new());
        m.complete(
            KvOp {
                slot: 0,
                write: true,
            },
            true,
        );
        m.push_read(0, &mut req, &mut exp);
        assert_eq!(exp, format!("$32\r\n{}\r\n", value(0, 1)).as_bytes());
        m.complete(
            KvOp {
                slot: 0,
                write: true,
            },
            false,
        );
        let op = m.next(&mut req, &mut exp);
        assert!(op.write, "a key of unknown value is rewritten first");
        m.complete(op, true);
        req.clear();
        exp.clear();
        m.push_read(0, &mut req, &mut exp);
        assert_eq!(exp, format!("$32\r\n{}\r\n", value(0, 0)).as_bytes());
    }

    #[test]
    fn retr_reply_frames_the_file() {
        let r = retr_reply(9);
        assert!(r.starts_with(b"150 Opening BINARY"));
        assert!(r.ends_with(b"226 Transfer complete.\r\n"));
        assert_eq!(file_contents(9), file_contents(9));
        assert_ne!(file_contents(9), file_contents(10));
    }
}
