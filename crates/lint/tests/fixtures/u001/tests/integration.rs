//! The root integration tests are users.

#[test]
fn root_tests_are_users() {
    assert_eq!(alpha::used_by_tests(), 4);
}
