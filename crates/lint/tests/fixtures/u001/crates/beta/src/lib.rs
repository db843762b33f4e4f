//! Uses alpha's `oracle` only in test code, the way loadgen's fleet tests
//! import netsim's `progressive_fill`: another crate's tests are users.

#[cfg(test)]
mod tests {
    #[test]
    fn agrees_with_the_oracle() {
        assert_eq!(alpha::oracle(3), 3);
    }
}
