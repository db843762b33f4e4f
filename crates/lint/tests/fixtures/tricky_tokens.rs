// Fixture (context: core). Every forbidden token appears only in non-code
// positions — strings, raw strings at several hash depths, nested block
// comments, char literals — so nothing may fire.
use std::collections::HashMap;

/* Outer /* nested /* twice */ */ comment: x == 0.0, y != 1.5,
   cache.iter(), cache.keys(), for k in cache {} — none of this is code. */

pub fn strings(cache: HashMap<String, f64>) -> Vec<String> {
    let _ = cache.get("point lookups never observe order");
    vec![
        "x == 0.0 and y != 1.5".to_string(),
        "cache.iter() and cache.values()".to_string(),
        r#"raw: for k in cache { x == 0.25 }"#.to_string(),
        r##"deeper raw keeps "#-terminators inert: cache.drain()"##.to_string(),
        b"byte string: y != 1.5".escape_ascii().to_string(),
    ]
}

pub fn lifetimes_and_chars<'a>(x: &'a str) -> (char, &'a str) {
    // A char literal is not a lifetime and not an operator.
    ('=', x)
}
