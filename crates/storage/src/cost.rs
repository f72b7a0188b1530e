//! Cost accounting: media dollars and personnel hours.
//!
//! The paper repeatedly flags personnel as the hidden cost of large data
//! flows — disk shipping "requires a great deal of intervention by
//! personnel", media migration has "significant" manpower requirements.
//! [`CostLedger`] keeps the two currencies separate so experiments can
//! report both.

/// Accumulated costs for a subsystem.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostLedger {
    media_cost: f64,
    personnel_hours: f64,
}

impl CostLedger {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_media_cost(&mut self, dollars: f64) {
        assert!(dollars >= 0.0, "costs only accrue");
        self.media_cost += dollars;
    }

    pub fn add_personnel_hours(&mut self, hours: f64) {
        assert!(hours >= 0.0, "hours only accrue");
        self.personnel_hours += hours;
    }

    pub fn media_cost(&self) -> f64 {
        self.media_cost
    }

    pub fn personnel_hours(&self) -> f64 {
        self.personnel_hours
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_total() {
        let mut l = CostLedger::new();
        l.add_media_cost(100.0);
        l.add_personnel_hours(2.0);
        assert_eq!(l.media_cost(), 100.0);
        assert_eq!(l.personnel_hours(), 2.0);
    }
}
