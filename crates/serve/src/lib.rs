//! # habf-serve — the multi-tenant filter server
//!
//! A dependency-free TCP serving layer over the filter registry: each
//! named tenant is a [`habf_core::tenant::TenantStore`] (filter + FP
//! log + adaptation policy), and clients speak a small length-framed
//! binary protocol ([`protocol`]) to run batched membership queries,
//! push false-positive feedback, and trigger adaptation rebuilds that
//! hot-swap the tenant's filter without dropping in-flight readers.
//!
//! ```no_run
//! use std::sync::Arc;
//! use habf_core::{AdaptPolicy, TenantStore};
//! use habf_serve::{Client, Server, ServerConfig, TenantTable};
//!
//! let tenants = Arc::new(TenantTable::new());
//! tenants.add(
//!     TenantStore::open("users", "users.habf", AdaptPolicy::cost_threshold(100.0))
//!         .expect("filter image"),
//! );
//! let handle = Server::bind("127.0.0.1:0", tenants, ServerConfig::default())
//!     .expect("bind")
//!     .spawn()
//!     .expect("spawn");
//!
//! let mut client =
//!     Client::connect(handle.addr(), std::time::Duration::from_secs(5)).expect("connect");
//! let hits = client.query("users", &[b"user:1".as_slice()]).expect("query");
//! assert_eq!(hits.len(), 1);
//! handle.shutdown();
//! ```
//!
//! One serving model runs the connections: an accept thread that
//! enforces the global connection cap, feeding N readiness-driven event
//! loops over nonblocking sockets with streaming frame decode, vectored
//! writes, and cross-connection query coalescing. It needs a unix
//! target (epoll on Linux, `poll(2)` elsewhere); on any other target
//! [`Server::bind`] reports `Unsupported`.
//!
//! The protocol's decoding discipline mirrors the persistence layer:
//! every malformed frame — truncation, bad magic, oversized length,
//! byte soup — produces a typed error frame or a clean close, never a
//! panic or a wedged connection (the reactor's idle sweep bounds a
//! silent peer).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
#[cfg(unix)]
mod reactor;
pub mod server;

pub use client::Client;
pub use protocol::{Frame, Request, WireError};
pub use server::{ServeModel, Server, ServerConfig, ServerHandle, TenantTable};
