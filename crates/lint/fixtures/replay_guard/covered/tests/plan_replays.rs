//! The plan-replay guard, naming every forecaster.

fn forecasters() -> Vec<Box<dyn Forecaster>> {
    vec![Box::new(Named::new())]
}
