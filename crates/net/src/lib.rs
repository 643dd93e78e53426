//! # fademl-net — networked serving for the FAdeML pipeline
//!
//! Three layers over the in-process serving engine
//! ([`fademl_serve`]), zero dependencies beyond the workspace:
//!
//! 1. **Wire protocol** ([`wire`]): length-prefixed, CRC-framed binary
//!    records on std TCP, reusing [`fademl_tensor::io`]'s
//!    bounds-checked codec. Requests carry image tensors, the threat
//!    model, a deadline and a tenant key; replies carry verdicts or
//!    *typed* serving errors — load-shedding semantics
//!    ([`ServeError::Overloaded`](fademl_serve::ServeError),
//!    deadlines, invalid input) survive the network hop intact.
//!    Hostile input (truncated frames, bit flips, lying length
//!    prefixes) becomes a typed [`FrameError`], never a panic or an
//!    oversized allocation.
//! 2. **Replica router** ([`router`]): shards requests across N
//!    in-process replica servers via consistent hashing keyed on
//!    threat model (threat models never share a batch, so pinning them
//!    to replicas maximizes coalescing), with per-tenant token-bucket
//!    quotas, one-hop spill on load shed, and per-replica health
//!    tracking that routes around a breaker-open or repeatedly-failing
//!    replica.
//! 3. **Hot weight swap**: a new `FADEMLW2` artifact is CRC- and
//!    shape-validated, then swapped replica-by-replica while in-flight
//!    batches drain on the weights they started with — the
//!    `swap_generation` metric proves no torn weights and no dropped
//!    traffic. Detectors swap the same way: a router started with
//!    triage ([`ReplicaRouter::start_with_triage`]) rolls a fresh
//!    `FADEMLD1` artifact across the fleet via
//!    [`swap_detectors`](ReplicaRouter::swap_detectors), so refitted
//!    detectors deploy with zero downtime and the fleet is never blind.
//!
//! On the client side, [`RetryingClient`] wraps [`NetClient`] with
//! reconnect-on-demand and bounded retry under exponential backoff with
//! deterministic jitter ([`RetryPolicy`]). Inference is idempotent, so
//! transient transport failures (refused dials, torn frames, dropped
//! responses, read timeouts) are retried safely; remote serving errors
//! are the engine's *answer* and pass through untouched, and when the
//! attempt budget runs out the caller gets a typed
//! [`NetError::RetriesExhausted`] carrying the final cause.
//!
//! The TCP front ([`server`]) drains gracefully end-to-end: stop
//! accepting → drain open connections under a deadline → drain the
//! replicas. The `faults` feature compiles a deterministic network
//! chaos harness ([`faults`]) — torn frames, dropped responses — on
//! top of the serving engine's own fault hooks.
//!
//! ```no_run
//! use fademl_net::{NetClient, NetConfig, NetServer, RouterConfig};
//! use fademl::ThreatModel;
//! # fn pipeline() -> fademl::InferencePipeline { unimplemented!() }
//! # fn image() -> fademl_tensor::Tensor { unimplemented!() }
//!
//! let server =
//!     NetServer::start(pipeline(), RouterConfig::default(), NetConfig::default()).unwrap();
//! let mut client = NetClient::connect(server.local_addr()).unwrap();
//! let verdict = client.classify(&image(), ThreatModel::II).unwrap();
//! println!("class {} at {:.2}", verdict.class, verdict.confidence);
//! println!("{}", server.shutdown().render());
//! ```

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod client;
pub mod error;
#[cfg(feature = "faults")]
pub mod faults;
pub mod quota;
pub mod router;
pub mod server;
pub mod wire;

pub use client::{NetClient, RetryPolicy, RetryingClient};
pub use error::{NetError, Result};
#[cfg(feature = "faults")]
pub use faults::NetFaultPlan;
pub use quota::{QuotaConfig, TenantQuotas};
pub use router::{ReplicaRouter, RouterConfig, RouterReport};
pub use server::{NetConfig, NetServer};
pub use wire::{Frame, FrameError, WireFault, WireRequest, WireResponse};
