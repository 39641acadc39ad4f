//! Vsftpd, as evaluated in §5.1: an FTP server over the virtual
//! filesystem, spanning 14 releases (1.1.0 … 2.0.6) and the paper's 13
//! update pairs (Table 1).
//!
//! One engine ([`VsftpdApp`]) is parameterized by a per-release
//! [`VsftpdFeatures`] row; the releases differ in banner/reply wording
//! and in which commands exist (`STOU` arrives in 1.2.0, `FEAT` in
//! 2.0.0, `MDTM` in 2.0.2, `REST` in 2.0.4). The rewrite rules for each
//! pair are **generated from the feature diff** in
//! [`updates::fwd_rules_src`]: wording changes produce one
//! write-mapping rule each, and any number of newly added commands is
//! absorbed by the single generic unknown-command rule of the paper's
//! Figure 5. The generated counts reproduce Table 1 exactly
//! (0,2,0,2,0,0,3,0,1,1,1,1,0 — average 0.85).
//!
//! Protocol simplification (documented in DESIGN.md): transfers ride the
//! control connection (no PASV data channels). `RETR` sends the file as
//! one `write` of its snapshot, the way real vsftpd hands a download to
//! sendfile(2), so the paper's "Vsftpd large" workload is a few huge
//! records per download rather than one per 8 KiB.

mod features;
mod server;
pub mod updates;

pub use features::{VsftpdFeatures, VERSIONS};
pub use server::{Session, VsftpdApp, VsftpdState};
pub use updates::{fwd_rules_src, registry, rev_rules_src, update_package, version_pairs};
