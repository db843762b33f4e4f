//! U001 fixture crate. A declaration that U001 must flag carries a
//! trailing `// flagged` marker, and a pragma that suppresses nothing
//! (X002) starts its reason with `stale:`; every other `pub` item must
//! pass.

mod shapes;

pub use shapes::ReexportedOnly;

/// Nothing names it: this crate's `tests/fixtures/` is fixture data, not
/// a user.
pub fn dead_helper() -> u32 { // flagged
    1
}

/// Named only in its own declaration and its own `impl` blocks.
pub struct SelfNamed { // flagged
    next: Option<Box<SelfNamed>>,
}

impl SelfNamed {
    /// Used: the `Default` impl below calls it.
    pub fn new() -> SelfNamed {
        SelfNamed { next: None }
    }
}

impl Default for SelfNamed {
    fn default() -> Self {
        SelfNamed::new()
    }
}

/// A trait named only by the `impl` that implements it.
pub trait Lonely {} // flagged

impl Lonely for SelfNamed {}

/// Only this crate's own tests call it.
pub fn tested_only() -> u32 { // flagged
    2
}

/// Named only in a comment and in a string.
pub fn mentioned_only() {} // flagged

// mentioned_only() is not a call.
const NOTE: &str = "mentioned_only";

/// A pragma without a reason is X001 and suppresses nothing.
// sss-lint: allow(U001)
pub const UNREASONED: u32 = 3; // flagged

/// An intentional public API, pragma'd with its consumer.
// sss-lint: allow(U001, read by an external dashboard)
pub fn exported_api() -> &'static str {
    NOTE
}

/// Another crate's `#[cfg(test)]` code calls it.
pub fn oracle(x: u32) -> u32 {
    x
}

/// The root `tests/` call it, so its pragma suppresses nothing.
// sss-lint: allow(U001, stale: the root tests call it)
pub fn used_by_tests() -> u32 {
    helper()
}

/// `used_by_tests` calls it.
pub fn helper() -> u32 {
    4
}

/// This crate's `tests/api.rs` calls it.
pub fn used_by_crate_tests() {}

/// perfbench names it.
pub struct Timed;

/// An example calls it.
pub fn used_by_example() {}

/// Restricted visibility is rustc's `dead_code` to check.
pub(crate) fn restricted() {}

#[cfg(test)]
mod tests {
    /// Test code declares nothing U001 checks.
    pub fn test_helper() -> u32 {
        super::tested_only()
    }

    #[test]
    fn calls_it() {
        assert_eq!(test_helper(), 2);
    }
}
