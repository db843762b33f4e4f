//! Always-on HTTP/JSON decision service over the stream-score model.
//!
//! The paper frames stream-vs-store as a question a facility asks *per
//! request*, continuously — not once. This crate turns the analytic model
//! into a long-running advisor: a pure-`std` HTTP/1.1 server (an epoll
//! reactor with hand-rolled incremental parsing, no external
//! dependencies) whose request path is built for repeated traffic:
//!
//! ```text
//! epoll reactor ──▶ service threads ──▶ Batcher queue ──▶ dispatcher ──▶ ThreadPool wave
//!                                                                │
//!                                                 DecisionCache (memoized, FIFO)
//! ```
//!
//! * [`server::Server`] — the reactor front end (Linux) and the router
//!   for `POST /decide`, `POST /tiers`, `POST /frontier`,
//!   `POST /simulate`, `POST /fleet`, `GET /scenarios` and `GET /healthz`.
//! * [`batch::Batcher`] — micro-batches concurrent `/decide` bodies and
//!   evaluates each wave of cache misses in one [`sss_exec::ThreadPool`]
//!   fan-out. The compute routes (`/frontier`, `/simulate`, `/fleet`) fan
//!   each miss across a pool of the same size and memoize whole response
//!   bodies.
//! * [`cache::ResponseCache`] — body memoization that holds at most its
//!   capacity and evicts its oldest entry first, always keyed on the
//!   exact validated input: the [`cache::DecisionCache`] instance keys
//!   `/decide` on the bits of the
//!   [`ModelParams`](sss_core::ModelParams), and one instance per compute
//!   route keys its bodies on the validated engine input, serialized.
//!   Repeat queries are answered from memory with the exact bytes the
//!   first evaluation produced, and each request counts one hit or one
//!   miss.
//! * [`api`] — the JSON request/response types, in the paper's own units.
//!
//! # Example
//!
//! Start a server on an OS-assigned port and ask it about the paper's
//! Table 3 coherent-scattering workload:
//!
//! ```
//! use std::io::{Read, Write};
//! use sss_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig {
//!     port: 0,
//!     workers: 2,
//!     cache_capacity: 64,
//!     max_batch: 8,
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let addr = server.local_addr();
//! let handle = server.spawn();
//!
//! let body = r#"{"data_gb":2.0,"intensity_tflop_per_gb":17.0,"local_tflops":10.0,
//!                "remote_tflops":340.0,"bandwidth_gbps":25.0,"alpha":0.8}"#;
//! let mut stream = std::net::TcpStream::connect(addr).unwrap();
//! write!(
//!     stream,
//!     "POST /decide HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
//!     body.len(),
//!     body
//! )
//! .unwrap();
//! let mut response = String::new();
//! stream.read_to_string(&mut response).unwrap();
//! assert!(response.starts_with("HTTP/1.1 200 OK"));
//! assert!(response.contains("RemoteStream"));
//! handle.shutdown();
//! ```

#![warn(missing_docs)]
// A panic on a request path silently drops the connection.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod api;
pub mod batch;
pub mod cache;
#[cfg(unix)]
mod conn;
pub mod http;
#[cfg(unix)]
mod reactor;
pub mod server;

pub use api::{
    DecideRequest, DecideResponse, ErrorResponse, FrontierRequest, ScenarioEntry,
    ScenariosResponse, SimulateRequest, TiersRequest, TiersResponse,
};
pub use batch::{BatchStats, Batcher};
pub use cache::{CacheKey, CacheStats, DecisionCache, ResponseCache};
pub use server::{Health, Server, ServerConfig, ServerHandle};
