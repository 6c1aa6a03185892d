//! Prototype Data Stream Management System for geospatial image data.
//!
//! This crate realizes §4 / Fig. 3 of the paper:
//!
//! ```text
//! Weather satellites ──▶ Stream Generator ──▶ Parser/Optimization
//!                                             │
//!                       Delivery ◀── Execution┘
//! ```
//!
//! * the **stream generator** is the `geostreams-satsim` scanner, whose
//!   bands are registered in a [`geostreams_core::query::Catalog`];
//! * **parser / optimization / execution** come from `geostreams-core`;
//!   [`server::Dsms`] registers continuous queries (optionally via the
//!   HTTP-like textual [`protocol`]) and runs each as a pipeline —
//!   sequentially or one thread per query;
//! * **multi-query optimization** is the [`frontend::MultiQueryFrontEnd`]:
//!   a single pass over each GeoStream routes every point through a
//!   region index (the dynamic cascade tree of \[10\], or the naive scan
//!   baseline) to all subscribed clients;
//! * **delivery** ships PNG frames per client session.

#![warn(missing_docs)]
// Tests may unwrap freely; the deny applies to library code only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod continuous;
mod eval;
pub mod frontend;
pub mod metrics;
pub mod net;
pub mod protocol;
pub mod server;
pub mod share;

pub use continuous::{run_supervised, FanoutPolicy, IngestStats, RuntimeConfig};
pub use frontend::{FrontEndStats, MultiQueryFrontEnd};
pub use metrics::{QueryStatus, ServerMetrics};
pub use net::HttpServer;
pub use protocol::{parse_explain, parse_request, ClientRequest, OutputFormat};
pub use server::{
    Dsms, Explanation, QueryHandle, QueryResult, SourceRepair, DEFAULT_MEMORY_BUDGET_BYTES,
};
pub use share::{
    plan_sharing, SharePlan, ShareRegistry, ShareTopology, SubscriptionTree, TenantQuota,
};
