//! The five workloads. Each is closed-loop: one generator, the next
//! operation starts when the previous one has completed.

pub mod archive_rw;
pub mod live_mixed;
pub mod oneshot_http;
pub mod ops_kernels;
pub mod streams;
pub mod swarm_shared;
