//! `mmsec-apps` — the workspace's command-line front-ends (`mmsec`,
//! `repro`) and the glue they share: unified CLI failure handling
//! ([`cli::CliError`] with stable exit codes), the serving protocol's
//! NDJSON codec ([`ndjson`], the flat path of [`mmsec_platform::obs::json`]),
//! and the streaming serve loop ([`serve::serve`]) driving a resumable
//! [`mmsec_platform::Session`].
//!
//! Workspace-level examples and integration tests (the top-level
//! `examples/` and `tests/` directories) are also wired through this
//! crate.

#![warn(missing_docs)]

pub mod cli;
pub mod ndjson;
pub mod serve;
pub mod server;
pub mod trace;
