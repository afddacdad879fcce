//! The import path `benchmark/` uses for [`ParallelShardedNat`] and
//! [`NatRuntimeSession`], which live in [`crate::runtime`]. The next
//! change allowed to edit `benchmark/` deletes this module.

pub use crate::runtime::{NatRuntimeSession, ParallelShardedNat};
