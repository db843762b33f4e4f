//! perfbench's sources are users.

pub fn time() -> alpha::Timed {
    alpha::Timed
}
