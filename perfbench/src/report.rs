//! The run's result: metrics by name, operations attempted and failed,
//! and every correctness violation found.

#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Report {
    /// Records a metric; a later value of the same name replaces it.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.retain(|m| m.0 != name);
        self.metrics.push((name, unit, value));
    }

    pub fn get(&self, name: &str) -> Option<(&'static str, f64)> {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| (m.1, m.2))
    }

    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64) {
        self.failed += n;
    }

    pub fn violation(&mut self, what: String) {
        eprintln!("VIOLATION: {what}");
        self.violations.push(what);
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// Operations that succeeded, as a share of those attempted.
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `names` (with their units) in order, each of
    /// which must have been recorded as a finite number.
    pub fn to_json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in names {
            let (u, v) = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if u != *unit || !v.is_finite() {
                return Err(format!(
                    "metric {name} = {v} {u} (expected a finite {unit})"
                ));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_the_requested_metrics_in_order() {
        let mut r = Report::default();
        r.metric("b", "s", 2.5);
        r.metric("a", "ms", 1.0);
        r.attempt(4);
        r.fail(1);
        let json = r.to_json(&[("a", "ms"), ("b", "s")]).unwrap();
        assert_eq!(
            json,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"a\": {\"value\": 1.0, \"unit\": \"ms\"}, \"b\": {\"value\": 2.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(r.ok_share(), 0.75);
        assert!(r.to_json(&[("c", "s")]).is_err());
        r.metric("a", "ms", f64::NAN);
        assert!(r.to_json(&[("a", "ms")]).is_err());
    }
}
