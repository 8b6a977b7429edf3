// Negative-space fixture: every "violation" below is inside a string, a
// comment, a test region, or behind a justified allow marker. The lint must
// report NOTHING for this file.

// a line comment mentioning panic!("boom") and .unwrap() is not code
/* a block comment with HashMap::new() and Instant::now()
   /* nested: thread::spawn(|| x != 0.0) */
   still not code */

pub fn strings_are_opaque() -> (&'static str, &'static str, char) {
    let plain = "call .unwrap() then panic!(\"no\") on a HashMap where x == 0.0";
    let raw = r#"SystemTime::now() and thread::spawn inside a raw "string""#;
    let lifetime_bait = '\''; // a char literal, not the start of a lifetime
    (plain, raw, lifetime_bait)
}

pub fn justified(elapsed: f32) -> bool {
    // focus-lint: allow(float-hygiene) -- sentinel written verbatim upstream, never computed
    elapsed == -1.0
}

// trailing-style marker on the same line as the finding
pub fn inline_marked(x: f32) -> bool {
    x != 0.0 // focus-lint: allow(float-hygiene) -- exact bit test for the padding sentinel
}

pub fn backward_elsewhere(g: &mut Graph, loss: Var) {
    g.backward(loss);
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn test_code_is_exempt() {
        let mut m: HashMap<u32, f32> = HashMap::new();
        m.insert(1, 0.5);
        assert!(m.get(&1).unwrap() != &0.0);
        let t = std::time::Instant::now();
        std::thread::spawn(move || t.elapsed()).join().unwrap();
    }
}

#[test]
fn bare_test_fn_is_exempt() {
    let v: Vec<f32> = vec![1.0];
    assert!(v.first().unwrap() == &1.0);
    panic!("tests may panic");
}

#[cfg(all(test, feature = "slow"))]
mod gated_tests {
    pub fn helper() -> f32 {
        let x: Option<f32> = Some(0.0);
        x.unwrap()
    }
}
