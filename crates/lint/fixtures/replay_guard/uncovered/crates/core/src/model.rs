//! Two forecasters; the guard names only the first.

pub struct Named;
pub struct Unnamed;

impl Forecaster for Named {}

impl Forecaster for Unnamed {}
