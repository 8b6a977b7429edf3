//! The plan-replay guard, missing one forecaster.

fn forecasters() -> Vec<Box<dyn Forecaster>> {
    vec![Box::new(Named)]
}
