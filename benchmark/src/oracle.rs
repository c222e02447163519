//! The benchmark's own ground truth: a brute-force oracle, the answer
//! digest, and failure accounting.
//!
//! Nothing here calls into the systems under test. The oracle is a flat
//! vector of event attributes and a linear scan over the query's own bounds
//! (a `Vec<Event>` in all but memory layout); the digest
//! is FNV-1a over what each operation reported; the op log counts which
//! operations failed and how.

use pool_core::event::Event;
use pool_core::query::RangeQuery;

/// An event reduced to the bit patterns of its attributes: totally ordered
/// and hashable, so answers compare as sorted multisets.
pub type EventKey = Vec<u64>;

/// The key of `event`.
pub fn key_of(event: &Event) -> EventKey {
    event.values().iter().map(|v| v.to_bits()).collect()
}

/// `events` as a sorted multiset of keys.
pub fn sorted_keys(events: &[Event]) -> Vec<EventKey> {
    let mut keys: Vec<EventKey> = events.iter().map(key_of).collect();
    keys.sort_unstable();
    keys
}

/// Whether every key of sorted `inner` also occurs (with multiplicity) in
/// sorted `outer`.
pub fn is_sub_multiset(inner: &[EventKey], outer: &[EventKey]) -> bool {
    let mut o = 0;
    for key in inner {
        while o < outer.len() && outer[o] < *key {
            o += 1;
        }
        if o == outer.len() || outer[o] != *key {
            return false;
        }
        o += 1;
    }
    true
}

/// Whether `event` satisfies `query`: every specified dimension's closed
/// range holds the attribute (the paper's §2 answer predicate, restated
/// here so the oracle does not share code with the systems it checks).
pub fn satisfies(query: &RangeQuery, event: &Event) -> bool {
    within(query.bounds(), event.values())
}

fn within(bounds: &[Option<(f64, f64)>], values: &[f64]) -> bool {
    bounds.iter().zip(values).all(|(bound, &v)| bound.is_none_or(|(lo, hi)| lo <= v && v <= hi))
}

/// Everything stored so far, scanned linearly per query. The attribute
/// values lie flat in one vector, `dims` per event, so the scan streams
/// through memory instead of chasing one heap pointer per event.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    dims: usize,
    values: Vec<f64>,
}

impl Oracle {
    /// An oracle that already holds `events`.
    pub fn with(events: Vec<Event>) -> Self {
        let mut oracle = Oracle::default();
        for event in events {
            oracle.store(event);
        }
        oracle
    }

    /// Records a stored event.
    pub fn store(&mut self, event: Event) {
        debug_assert!(self.dims == 0 || self.dims == event.dims(), "events share one arity");
        self.dims = event.dims();
        self.values.extend_from_slice(event.values());
    }

    /// The sorted keys of every stored event matching `query`.
    pub fn answer(&self, query: &RangeQuery) -> Vec<EventKey> {
        if self.dims == 0 {
            return Vec::new();
        }
        let bounds = query.bounds();
        let mut keys: Vec<EventKey> = self
            .values
            .chunks_exact(self.dims)
            .filter(|values| within(bounds, values))
            .map(|values| values.iter().map(|v| v.to_bits()).collect())
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// FNV-1a over the per-operation facts a round produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one 64-bit word in, byte by byte.
    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one operation in: messages charged, matches returned, and
    /// whether the operation completed.
    pub fn op(&mut self, messages: u64, matches: u64, complete: bool) {
        self.word(messages);
        self.word(matches);
        self.word(u64::from(complete));
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// Completed: stored, or answered completely.
    Ok,
    /// The call returned an error other than a typed delivery failure.
    Errored,
    /// An insert came back `Undeliverable`.
    Undeliverable,
    /// A service response with `delivered == false`.
    NotDelivered,
    /// A query answered with an incomplete `Completeness`.
    Incomplete,
}

/// Counts operations attempted and failed, by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpLog {
    /// Operations attempted.
    pub attempted: u64,
    /// Calls that errored.
    pub errored: u64,
    /// Inserts that were undeliverable.
    pub undeliverable: u64,
    /// Service responses not delivered.
    pub not_delivered: u64,
    /// Queries answered incompletely.
    pub incomplete: u64,
}

impl OpLog {
    /// Records one operation.
    pub fn record(&mut self, status: OpStatus) {
        self.attempted += 1;
        match status {
            OpStatus::Ok => {}
            OpStatus::Errored => self.errored += 1,
            OpStatus::Undeliverable => self.undeliverable += 1,
            OpStatus::NotDelivered => self.not_delivered += 1,
            OpStatus::Incomplete => self.incomplete += 1,
        }
    }

    /// Adds another log's counts.
    pub fn merge(&mut self, other: &OpLog) {
        self.attempted += other.attempted;
        self.errored += other.errored;
        self.undeliverable += other.undeliverable;
        self.not_delivered += other.not_delivered;
        self.incomplete += other.incomplete;
    }

    /// Operations that failed, whatever the cause.
    pub fn failed(&self) -> u64 {
        self.errored + self.undeliverable + self.not_delivered + self.incomplete
    }

    /// Failed operations as a share of those attempted (0 when none were).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(values: &[f64]) -> Event {
        Event::new(values.to_vec()).unwrap()
    }

    #[test]
    fn oracle_scans_closed_ranges_and_wildcards() {
        let oracle = Oracle::with(vec![
            event(&[0.1, 0.5, 0.9]),
            event(&[0.2, 0.5, 0.1]),
            event(&[0.3, 0.6, 0.9]),
        ]);
        let q = RangeQuery::from_bounds(vec![Some((0.1, 0.2)), None, None]).unwrap();
        assert_eq!(oracle.answer(&q).len(), 2, "closed bounds include both ends");
        let q = RangeQuery::exact(vec![(0.0, 1.0), (0.5, 0.5), (0.5, 1.0)]).unwrap();
        assert_eq!(oracle.answer(&q), vec![key_of(&event(&[0.1, 0.5, 0.9]))]);
    }

    #[test]
    fn sub_multiset_respects_multiplicity() {
        let a = sorted_keys(&[event(&[0.1]), event(&[0.1]), event(&[0.3])]);
        let b = sorted_keys(&[event(&[0.1]), event(&[0.3])]);
        assert!(is_sub_multiset(&b, &a));
        assert!(!is_sub_multiset(&a, &b), "the duplicate is missing from b");
        assert!(is_sub_multiset(&[], &b));
    }

    #[test]
    fn digest_depends_on_every_field_and_on_order() {
        let mut a = Digest::default();
        a.op(10, 2, true);
        a.op(7, 0, true);
        let mut b = Digest::default();
        b.op(7, 0, true);
        b.op(10, 2, true);
        assert_ne!(a, b, "order matters");
        let mut c = Digest::default();
        c.op(10, 2, false);
        c.op(7, 0, true);
        assert_ne!(a, c, "completeness matters");
        let mut d = Digest::default();
        d.op(10, 2, true);
        d.op(7, 0, true);
        assert_eq!(a, d);
    }

    #[test]
    fn failed_share_counts_every_cause_once() {
        // A hand-made log: 10 operations, one of each failure cause.
        let mut log = OpLog::default();
        for status in [
            OpStatus::Ok,
            OpStatus::Ok,
            OpStatus::Undeliverable,
            OpStatus::Ok,
            OpStatus::Incomplete,
            OpStatus::Ok,
            OpStatus::Errored,
            OpStatus::NotDelivered,
            OpStatus::Ok,
            OpStatus::Ok,
        ] {
            log.record(status);
        }
        assert_eq!(log.attempted, 10);
        assert_eq!(log.failed(), 4);
        assert!((log.failed_share() - 0.4).abs() < 1e-12);
        assert_eq!(OpLog::default().failed_share(), 0.0, "nothing attempted, nothing failed");
        let mut twice = log;
        twice.merge(&log);
        assert_eq!((twice.attempted, twice.failed()), (20, 8));
    }
}
