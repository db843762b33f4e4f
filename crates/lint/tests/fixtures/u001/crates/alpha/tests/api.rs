//! A crate's integration tests are a separate crate: a user.

#[test]
fn crate_tests_are_users() {
    alpha::used_by_crate_tests();
}
