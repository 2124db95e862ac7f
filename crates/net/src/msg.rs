//! Message-type indirection.
//!
//! Every codec/transport module in this crate imports the protocol types
//! through `crate::msg` instead of naming `dgs_core`/`dgs_sparsify`
//! directly, so the wire layers depend on the message shapes and nothing
//! else of the training stack; only `runtime.rs` binds the two.
//!
//! Keep this module to plain re-exports; logic belongs in the other files.

pub use dgs_core::cluster::{assemble_replies, span_view, ClusterLayout, SpanInfo};
pub use dgs_core::protocol::{DownMsg, UpMsg, UpPayload, HEADER_BYTES};
pub use dgs_sparsify::{
    merge_sparse_updates, try_merge_sparse_updates, Partition, ShardSpan, SparseUpdate, SparseVec,
    TernaryUpdate, TernaryVec,
};
