//! Examples are users.

fn main() {
    alpha::used_by_example();
}
