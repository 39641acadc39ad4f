//! Benchmark clients for the reproduction's experiments.
//!
//! * [`run_kv`] — the Memtier stand-in (§6.1): closed-loop key-value
//!   clients with a configurable read/write mix (the paper uses 90/10),
//!   speaking the kvstore, Redis, or Memcached protocol.
//! * [`run_ftp`] — the Vsftpd benchmark: log in and repeatedly download
//!   one file ("small" = 5 B, "large" = 10 MB in the paper).
//! * [`WorkloadReport`] — throughput, mean and maximum latency
//!   (Figure 7's metric), and a time-bucketed ops series (Figure 6's
//!   curves).
//! * [`SplitMix64`] — the seeded generator behind the key-value mix and
//!   the chaos harness's scenario sampling.
//!
//! Clients sit *outside* the MVE perimeter — they talk straight to the
//! virtual kernel the way remote client machines talk to a server's NIC.

mod client;
mod ftp;
mod kv;
mod rng;
mod stats;

pub use client::LineClient;
pub use ftp::{run_ftp, FtpConfig};
pub use kv::{run_kv, KvConfig, KvFlavor};
pub use rng::SplitMix64;
pub use stats::WorkloadReport;
