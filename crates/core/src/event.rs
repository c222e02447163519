//! Multi-dimensional events.
//!
//! An event is a reading `<V₁, V₂, …, V_k>` of `k` normalized attribute
//! values (§2). Pool's placement logic depends on the *ranked* dimensions:
//! `d₁` is the dimension holding the greatest value, `d₂` the second
//! greatest, and so on. Ties (§4.1) are surfaced explicitly via
//! [`Event::greatest_dims`].

use crate::error::PoolError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A `k`-dimensional event with attribute values normalized into `[0, 1]`.
///
/// The values are immutable and shared: an event is a 16-byte handle on
/// one buffer allocated by [`Event::new`], so the copies a query answer,
/// a backup, a monitor notification or a service response carries are
/// clones of the handle, never of the buffer.
///
/// # Examples
///
/// ```
/// use pool_core::event::Event;
///
/// # fn main() -> Result<(), pool_core::error::PoolError> {
/// let e = Event::new(vec![0.3, 0.2, 0.1])?;
/// assert_eq!(e.d1(), 0); // V₁ = 0.3 is the greatest value
/// assert_eq!(e.d2(), 1); // V₂ = 0.2 is the second greatest
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    values: Arc<[f64]>,
}

impl Event {
    /// Creates an event from its attribute values.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::InvalidEvent`] if `values` is empty or any value
    /// is outside `[0, 1]` or not finite.
    pub fn new(values: Vec<f64>) -> Result<Self, PoolError> {
        if values.is_empty() {
            return Err(PoolError::InvalidEvent { reason: "event has no attributes".into() });
        }
        for (i, &v) in values.iter().enumerate() {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(PoolError::InvalidEvent {
                    reason: format!("attribute {} is {} (must be in [0, 1])", i + 1, v),
                });
            }
        }
        Ok(Event { values: values.into() })
    }

    /// The attribute values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The value of attribute `dim` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `dim >= k`.
    pub fn value(&self, dim: usize) -> f64 {
        self.values[dim]
    }

    /// Number of dimensions `k`.
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Dimensions ordered by descending attribute value; ties resolve to
    /// the lower dimension index so the ordering is total and deterministic.
    ///
    /// `d_order()[0]` is the paper's `d₁`, `d_order()[1]` is `d₂`, etc.
    pub fn d_order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.values.len()).collect();
        idx.sort_by(|&a, &b| {
            self.values[b].partial_cmp(&self.values[a]).expect("validated finite").then(a.cmp(&b))
        });
        idx
    }

    /// The dimension of the greatest value (`d₁`), lowest index on ties.
    pub fn d1(&self) -> usize {
        self.d_order()[0]
    }

    /// The dimension of the second-greatest value (`d₂`).
    ///
    /// # Panics
    ///
    /// Panics for one-dimensional events, which have no second dimension.
    pub fn d2(&self) -> usize {
        assert!(self.dims() >= 2, "d2 undefined for 1-dimensional events");
        self.d_order()[1]
    }

    /// Greatest attribute value (`V_d₁`).
    pub fn v_d1(&self) -> f64 {
        self.values[self.d1()]
    }

    /// Second-greatest attribute value (`V_d₂`).
    pub fn v_d2(&self) -> f64 {
        self.values[self.d2()]
    }

    /// All dimensions whose value ties the maximum — more than one exactly
    /// when §4.1's multiple-greatest-values case applies.
    pub fn greatest_dims(&self) -> Vec<usize> {
        let max = self.values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (0..self.values.len()).filter(|&i| self.values[i] == max).collect()
    }

    /// Whether multiple dimensions tie for the greatest value.
    pub fn has_tied_maximum(&self) -> bool {
        self.greatest_dims().len() > 1
    }

    /// The second-greatest value *assuming* the greatest occurs at `d1`:
    /// the maximum over all other dimensions. Needed when §4.1 stores a
    /// tied event under a specific candidate dimension.
    pub fn v_d2_given_d1(&self, d1: usize) -> f64 {
        self.values
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != d1)
            .map(|(_, &v)| v)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_d_ordering() {
        // §3.1.2: E = <0.3, 0.2, 0.1> has d₁ = dimension 1 (index 0).
        let e = Event::new(vec![0.3, 0.2, 0.1]).unwrap();
        assert_eq!(e.d_order(), vec![0, 1, 2]);
        assert_eq!(e.v_d1(), 0.3);
        assert_eq!(e.v_d2(), 0.2);
    }

    #[test]
    fn unsorted_values_rank_correctly() {
        let e = Event::new(vec![0.1, 0.9, 0.5]).unwrap();
        assert_eq!(e.d1(), 1);
        assert_eq!(e.d2(), 2);
        assert_eq!(e.d_order(), vec![1, 2, 0]);
    }

    #[test]
    fn tie_detection() {
        // §4.1: E = <0.4, 0.4, 0.2> ties dimensions 1 and 2.
        let e = Event::new(vec![0.4, 0.4, 0.2]).unwrap();
        assert!(e.has_tied_maximum());
        assert_eq!(e.greatest_dims(), vec![0, 1]);
        // With the tie, v_d2 equals the tied maximum.
        assert_eq!(e.v_d2(), 0.4);
        assert_eq!(e.v_d2_given_d1(0), 0.4);
        assert_eq!(e.v_d2_given_d1(1), 0.4);
    }

    #[test]
    fn v_d2_given_d1_excludes_chosen_dim() {
        let e = Event::new(vec![0.7, 0.3, 0.5]).unwrap();
        assert_eq!(e.v_d2_given_d1(0), 0.5);
        assert_eq!(e.v_d2_given_d1(2), 0.7);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(Event::new(vec![]).is_err());
        assert!(Event::new(vec![1.1]).is_err());
        assert!(Event::new(vec![-0.1, 0.5]).is_err());
        assert!(Event::new(vec![f64::NAN]).is_err());
        assert!(Event::new(vec![0.0, 1.0]).is_ok()); // boundaries are legal
    }

    #[test]
    fn display_is_paper_notation() {
        let e = Event::new(vec![0.4, 0.3, 0.1]).unwrap();
        assert_eq!(e.to_string(), "<0.4, 0.3, 0.1>");
    }

    #[test]
    fn one_dimensional_event_has_d1_only() {
        let e = Event::new(vec![0.5]).unwrap();
        assert_eq!(e.d1(), 0);
        assert_eq!(e.greatest_dims(), vec![0]);
    }

    #[test]
    #[should_panic(expected = "d2 undefined")]
    fn d2_panics_for_one_dimension() {
        let _ = Event::new(vec![0.5]).unwrap().d2();
    }
}
