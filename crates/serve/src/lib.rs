//! imre-serve: multi-threaded inference serving for IMRE models.
//!
//! The crate turns a trained relation-extraction model into a serving unit:
//!
//! - [`bundle`] — the `.imrb` artifact freezing model + vocabulary + entity
//!   table + relation names + LINE embeddings into one loadable file;
//! - [`registry`] — named models behind an `RwLock`, hot-swappable while
//!   requests are in flight;
//! - [`pipeline`] — raw text + entity names → tokens → relative-position
//!   features → bag → ranked relation scores;
//! - [`queue`] / [`engine`] — a bounded request queue with typed
//!   backpressure feeding a worker pool that takes one request per
//!   dequeue and runs its forward pass on the worker's recycled scratch;
//! - [`metrics`] — per-stage latency histograms and throughput counters;
//! - [`server`] / [`protocol`] — a line-delimited TCP front-end that plain
//!   `nc` can talk to, plus the in-process [`ServeHandle`] API. The one
//!   front end is a single-threaded readiness loop multiplexing thousands
//!   of pipelined connections (epoll on Linux, `poll(2)` on other unix).
//!
//! ```no_run
//! use imre_serve::{EngineConfig, Registry, ServeHandle, InferRequest};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! registry.load_file("default", std::path::Path::new("model.imrb")).unwrap();
//! let handle = ServeHandle::start(registry, EngineConfig::default());
//! let resp = handle.infer(InferRequest {
//!     model: "default".into(),
//!     head: "Seattle".into(),
//!     tail: "Washington".into(),
//!     text: "Seattle is a city in Washington".into(),
//!     top_k: 3,
//!     deadline_ms: Some(250),
//!     ..InferRequest::default()
//! }).unwrap();
//! println!("{}: {:.3}", resp.ranked[0].relation, resp.ranked[0].score);
//! handle.shutdown();
//! ```

#![deny(missing_docs)]

pub mod bundle;
pub mod engine;
pub mod error;
#[cfg(unix)]
pub(crate) mod eventloop;
pub mod metrics;
pub mod pipeline;
pub mod protocol;
pub mod quantio;
pub mod queue;
pub mod registry;
pub mod server;

pub use bundle::{
    load_bundle, read_bundle, save_bundle, write_bundle, Bundle, VERSION_V1, VERSION_V2, VERSION_V3,
};
pub use engine::{EngineConfig, Pending, Precision, ServeHandle};
pub use error::ServeError;
pub use metrics::{Histogram, HistogramSnapshot, Metrics, BUCKET_BOUNDS_US};
pub use pipeline::{InferRequest, InferResponse, RankedRelation, ServingModel};
pub use queue::{BoundedQueue, PushError};
pub use registry::Registry;
pub use server::{FrontendConfig, TcpServer};

#[cfg(target_os = "linux")]
pub use eventloop::sys::raise_nofile_limit;
pub use imre_tensor::bytes::live_mappings;
