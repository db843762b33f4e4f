//! A binary is not a library crate: its `pub` items are not checked.

pub fn unchecked() {}

fn main() {
    unchecked();
}
