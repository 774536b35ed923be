//! End-to-end benchmark of the jungle runtime.
//!
//! Three workloads drive the runtime through its public API only:
//! `bridge_local` (the Fig 7 coupled solver in process, kernel- and
//! pool-bound), `bridge_tcp` (the same solver over sharded loopback TCP,
//! transport-bound) and `service_sessions` (the multi-tenant session
//! service under open-loop and burst load). See `WORKLOADS.md` for why
//! each exists and which layers it loads.

pub mod bridges;
pub mod episodes;
pub mod provenance;
pub mod report;
pub mod service;
pub mod stats;
pub mod trace;
