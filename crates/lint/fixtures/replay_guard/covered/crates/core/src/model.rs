//! Every forecaster is named by the guard; a test-only impl is exempt.

pub struct Named;

impl<'a> focus_core::Forecaster for Named {}

impl Named {
    pub fn new() -> Self {
        Named
    }
}

#[cfg(test)]
mod tests {
    struct Mock;

    impl Forecaster for Mock {}
}
