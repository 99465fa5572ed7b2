//! `ppe-servebench`: the service benchmark of `ppe serve`.
//!
//! The timed runs drive the release `ppe` binary as a child process
//! (stdio or TCP) from one client and report end-to-end metrics; the
//! traced run replays the same request streams in-process and times each
//! layer's public functions. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod check;
pub mod client;
pub mod families;
pub mod oracle;
pub mod rng;
pub mod stats;
pub mod streams;
pub mod trace;
pub mod wire;
