// Fixture (context: units). A pragma that suppresses no finding is X002
// on its own line; each such pragma's reason starts with `stale:`. The
// first pragma suppresses a live finding and stays silent.
pub fn exact(x: f64) -> bool {
    // sss-lint: allow(D004, an exact guard on purpose)
    x == 0.5
}

pub fn tolerant(x: f64) -> bool {
    // sss-lint: allow(D004, stale: the comparison has a tolerance)
    (x - 0.5).abs() < 1e-9
}

pub fn bits(x: f64) -> bool {
    x.to_bits() == 0 // sss-lint: allow(D001, stale: no hash iteration here)
}

#[cfg(test)]
mod tests {
    #[test]
    fn exact_in_tests() {
        // sss-lint: allow(D004, stale: test code is exempt already)
        assert!(super::exact(0.5) && 0.5 == 0.5);
    }
}
