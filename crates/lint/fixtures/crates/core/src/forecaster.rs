//! Negative fixture: `.backward(` calls in the train module are no rule's
//! finding.

fn steady_step(g: &mut Graph, loss: Var) {
    g.backward(loss);
    let tape = g.tape();
    tape.backward(loss);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let mut g = Graph::new();
        let loss = g.zero();
        g.backward(loss);
    }
}
