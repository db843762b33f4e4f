// Fixture data under a crate's tests/: naming an item here is no use.
fn ignored() -> u32 {
    alpha::dead_helper()
}
