//! Output checks on every unit, and the outcome digest.

use pipa::core::stream::StreamOutcome;
use pipa::core::StressOutcome;
use pipa::serve::{FleetReport, SessionReport};
use serde::{Serialize, Value};

fn positive_finite(what: &str, v: f64) -> Result<(), String> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(format!("{what} = {v} is not a finite positive cost"))
    }
}

/// `ad` must be exactly `(poisoned − baseline) / baseline` and `toxic`
/// exactly `ad > 0`.
fn degradation(
    what: &str,
    poisoned: f64,
    baseline: f64,
    ad: f64,
    toxic: bool,
) -> Result<(), String> {
    positive_finite(&format!("{what} poisoned cost"), poisoned)?;
    positive_finite(&format!("{what} baseline cost"), baseline)?;
    let expect = (poisoned - baseline) / baseline;
    if ad.to_bits() != expect.to_bits() {
        return Err(format!(
            "{what}: ad {ad} != (poisoned - baseline) / baseline = {expect}"
        ));
    }
    if toxic != (ad > 0.0) {
        return Err(format!("{what}: toxic = {toxic} but ad = {ad}"));
    }
    Ok(())
}

pub fn stress(o: &StressOutcome) -> Result<(), String> {
    degradation("cell", o.poisoned_cost, o.baseline_cost, o.ad, o.toxic)
}

pub fn stream(o: &StreamOutcome) -> Result<(), String> {
    positive_finite("stream baseline cost", o.baseline_cost)?;
    positive_finite("stream final cost", o.final_cost)?;
    if o.windows.is_empty() {
        return Err("stream reported no windows".to_string());
    }
    for w in &o.windows {
        let what = format!("window {}", w.window);
        degradation(&what, w.deployed_cost, w.clean_cost, w.ad, w.toxic)?;
        if let Some(c) = w.post_retrain_cost {
            positive_finite(&format!("{what} post-retrain cost"), c)?;
        }
    }
    Ok(())
}

/// Sessions of one fleet drain that failed: those that errored or were
/// skipped after their tenant degraded, plus those whose costs are not
/// finite and positive. Returns the count and the first failure.
pub fn fleet(report: &FleetReport, queued: usize) -> (usize, Option<String>) {
    let mut failed = queued.saturating_sub(report.completed_sessions());
    let mut first = report.tenants.iter().find_map(|t| {
        t.degraded
            .as_ref()
            .map(|d| format!("tenant {} degraded: {d:?}", t.tenant))
    });
    for t in &report.tenants {
        for (s, session) in t.sessions.iter().enumerate() {
            let what = format!("tenant {} session {s}", t.tenant);
            let ok = match session {
                SessionReport::WhatIf {
                    evals,
                    total_cost,
                    best_cost,
                } => {
                    if *evals == 0 {
                        Err(format!("{what}: no what-if evaluations"))
                    } else {
                        positive_finite(&what, *total_cost).and(positive_finite(&what, *best_cost))
                    }
                }
                SessionReport::Recommend { cost, .. } => positive_finite(&what, *cost),
                SessionReport::Stress(o) => stress(o),
            };
            if let Err(e) = ok {
                failed += 1;
                first.get_or_insert(e);
            }
        }
    }
    if failed > 0 && first.is_none() {
        first = Some(format!(
            "{failed} of {queued} queued sessions did not complete"
        ));
    }
    (failed, first)
}

/// A 64-bit FNV-1a digest over outcome values.
///
/// It hashes the serialized value tree without the field names, floats
/// by their bit patterns, so it changes exactly when an outcome value
/// changes (or fields are reordered), and not when a field is renamed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.bytes(b"n"),
            Value::Bool(b) => self.bytes(&[b'b', u8::from(*b)]),
            Value::Int(i) => {
                self.bytes(b"i");
                self.bytes(&i.to_le_bytes());
            }
            Value::UInt(u) => {
                self.bytes(b"u");
                self.bytes(&u.to_le_bytes());
            }
            Value::Float(f) => {
                self.bytes(b"f");
                self.bytes(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                self.bytes(b"s");
                self.bytes(&(s.len() as u64).to_le_bytes());
                self.bytes(s.as_bytes());
            }
            Value::Array(items) => {
                self.bytes(b"a");
                self.bytes(&(items.len() as u64).to_le_bytes());
                items.iter().for_each(|v| self.value(v));
            }
            Value::Object(fields) => {
                self.bytes(b"o");
                self.bytes(&(fields.len() as u64).to_le_bytes());
                fields.iter().for_each(|(_, v)| self.value(v));
            }
        }
    }

    /// Fold one outcome into the digest.
    pub fn add(&mut self, outcome: &impl Serialize) {
        self.value(&outcome.to_value());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The digests pinned at the default seed, one `workload digest` pair a
/// line (`#` starts a comment).
const PINNED: &str = include_str!("../digests.txt");

/// The pinned digest of `workload`, if one is pinned.
pub fn pinned(workload: &str) -> Option<&'static str> {
    PINNED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(char::is_whitespace))
        .find(|(name, _)| *name == workload)
        .map(|(_, digest)| digest.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(baseline: f64, poisoned: f64) -> StressOutcome {
        StressOutcome {
            advisor: "a".into(),
            injector: "PIPA".into(),
            baseline_cost: baseline,
            poisoned_cost: poisoned,
            ad: (poisoned - baseline) / baseline,
            toxic: poisoned > baseline,
            baseline_indexes: vec![],
            poisoned_indexes: vec![],
            injection_size: 18,
            seed: 1,
        }
    }

    #[test]
    fn stress_invariants() {
        assert!(stress(&outcome(10.0, 12.0)).is_ok());
        assert!(stress(&outcome(10.0, 8.0)).is_ok());
        assert!(stress(&outcome(f64::NAN, 8.0)).is_err());
        assert!(stress(&outcome(0.0, 8.0)).is_err());
        let mut wrong_ad = outcome(10.0, 12.0);
        wrong_ad.ad = 0.2000001;
        assert!(stress(&wrong_ad).is_err());
        let mut wrong_toxic = outcome(10.0, 12.0);
        wrong_toxic.toxic = false;
        assert!(stress(&wrong_toxic).is_err());
    }

    #[test]
    fn digest_follows_values_bit_for_bit() {
        let digest = |o: &StressOutcome| {
            let mut d = Digest::default();
            d.add(o);
            d
        };
        let a = outcome(10.0, 12.0);
        assert_eq!(digest(&a), digest(&a.clone()));
        let mut b = a.clone();
        b.poisoned_cost = f64::from_bits(a.poisoned_cost.to_bits() + 1);
        assert_ne!(digest(&a), digest(&b));
    }

    #[test]
    fn every_workload_has_a_pinned_digest() {
        for w in crate::workloads::Kind::ALL {
            let d = pinned(w.name()).unwrap_or_else(|| panic!("{} not pinned", w.name()));
            assert_eq!(d.len(), 16, "{d}");
        }
    }
}
