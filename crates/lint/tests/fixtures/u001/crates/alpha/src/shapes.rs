//! Named only by the crate root's `pub use` re-export.

pub struct ReexportedOnly; // flagged
