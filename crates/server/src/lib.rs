//! # sor-server — campaign-as-a-service
//!
//! A long-running daemon that owns one process-wide
//! [`ArtifactStore`](sor_harness::ArtifactStore) and persistent
//! [`ResultStore`](sor_harness::ResultStore), and executes submitted
//! certify / triage / campaign jobs over a std-only HTTP/1.1 + JSON API
//! (no external dependencies anywhere in the workspace — `std::net`
//! listener, hand-rolled request parser, hand-rolled JSON).
//!
//! Jobs are resumable first-class objects (DESIGN.md §15):
//!
//! * `POST /jobs` — submit `{"kind": "certify" | "triage" | "campaign", …}`;
//! * `GET /jobs`, `GET /jobs/<id>` — registry listing and per-job state +
//!   incremental progress snapshots (aggregated outcome histogram with
//!   its narrowing Wilson interval);
//! * `POST /jobs/<id>/pause`, `/resume` — stop at the next section
//!   boundary (completed sections persist in the result store) and later
//!   re-execute *only* the remainder;
//! * `GET /jobs/<id>/result` — the finished artifact, **byte-identical**
//!   to what the corresponding batch bin (`certify`, `triage`, `fig8
//!   --json`) writes for the same parameters — the integration tests pin
//!   this, pause/resume cycles included;
//! * `POST /shutdown` — graceful drain: running jobs pause at a section
//!   boundary, everything persists, and a server restarted on the same
//!   directory reports every prior job as resumable.
//!
//! The `sor-server` bin starts the daemon; the `sor-client` bin submits,
//! watches, pauses/resumes and fetches (its `run` subcommand writes the
//! same `results/*.json` files the batch bins do).

pub mod client;
mod exec;
pub mod http;
pub mod jobs;
pub mod json;
mod server;

pub use client::Client;
pub use jobs::{parse_technique, Job, JobKind, JobSpec, JobState, Registry};
pub use json::Json;
pub use server::{Server, ServerConfig, ServerHandle, ServerState};
