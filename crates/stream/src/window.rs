//! Sliding windows over labeled observations.
//!
//! Algorithm 1 of the paper maintains two windows:
//!
//! * the **active window** `A` — the `w` most recent observations, used to
//!   test for drift and for model selection, and
//! * the **buffer window** `B` — observations at least `b` steps old (and at
//!   most `b + w` steps old), assumed to be drawn from the *current* concept
//!   because any drift-detection delay is bounded by `b`.
//!
//! [`SlidingWindow`] implements `A`; [`BufferedWindow`] implements the
//! `Buf -> B` pipeline. Both hold owned observations. The framework keeps
//! its two windows as views over one frame ring instead
//! ([`crate::frames::FrameWindows`]), and these windows are the membership
//! reference that ring is tested against.

use std::collections::VecDeque;

use crate::observation::LabeledObservation;

/// A fixed-capacity FIFO window of the `w` most recent labeled observations.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    items: VecDeque<LabeledObservation>,
    capacity: usize,
}

impl SlidingWindow {
    /// Window keeping at most `capacity` observations. `capacity` must be
    /// greater than zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self { items: VecDeque::with_capacity(capacity + 1), capacity }
    }

    /// Appends an observation, evicting the oldest when full. Returns the
    /// evicted observation, if any.
    pub fn push(&mut self, obs: LabeledObservation) -> Option<LabeledObservation> {
        self.items.push_back(obs);
        if self.items.len() > self.capacity {
            self.items.pop_front()
        } else {
            None
        }
    }

    /// Current number of observations held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Configured capacity `w`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates oldest-to-newest.
    pub fn iter(&self) -> impl Iterator<Item = &LabeledObservation> + Clone {
        self.items.iter()
    }

    /// The `i`-th observation, oldest first. O(1).
    pub fn get(&self, i: usize) -> &LabeledObservation {
        &self.items[i]
    }

    /// Drops all contents, keeping the capacity.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// The delayed buffer of Algorithm 1 (lines 12–15).
///
/// New observations enter a holding buffer of length `b`; once an observation
/// is older than `b` steps it graduates into the stale window `B`, which
/// keeps the most recent `w` graduates. Observations in `B` are therefore
/// between `b` and `b + w` steps old — old enough that, absent a drift alert,
/// they are assumed drawn from the current concept.
#[derive(Debug, Clone)]
pub struct BufferedWindow {
    holding: VecDeque<LabeledObservation>,
    stale: SlidingWindow,
    delay: usize,
}

impl BufferedWindow {
    /// `delay` is the buffer length `b`; `window` is `w`, the capacity of the
    /// stale window.
    pub fn new(delay: usize, window: usize) -> Self {
        Self {
            holding: VecDeque::with_capacity(delay + 1),
            stale: SlidingWindow::new(window),
            delay,
        }
    }

    /// Pushes a new observation into the holding buffer, graduating any
    /// observation that is now older than the delay into the stale window.
    pub fn push(&mut self, obs: LabeledObservation) {
        self.holding.push_back(obs);
        while self.holding.len() > self.delay {
            // Oldest holding element is now `delay` steps old: graduate it.
            let graduated = self.holding.pop_front().expect("non-empty after len check");
            self.stale.push(graduated);
        }
    }

    /// The stale window `B` (observations older than the delay).
    pub fn stale(&self) -> &SlidingWindow {
        &self.stale
    }

    /// Number of observations currently held back in the delay buffer.
    pub fn holding_len(&self) -> usize {
        self.holding.len()
    }

    /// Configured delay `b`.
    pub fn delay(&self) -> usize {
        self.delay
    }

    /// Empties both the holding buffer and the stale window. Called after a
    /// drift so the new concept's representation is not polluted by
    /// observations from the old segment.
    pub fn clear(&mut self) {
        self.holding.clear();
        self.stale.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::LabeledObservation;

    fn lo(i: usize) -> LabeledObservation {
        LabeledObservation::new(vec![i as f64], 0, 0)
    }

    #[test]
    fn sliding_window_evicts_oldest() {
        let mut w = SlidingWindow::new(3);
        assert!(w.push(lo(0)).is_none());
        assert!(w.push(lo(1)).is_none());
        assert!(w.push(lo(2)).is_none());
        assert!(w.is_full());
        let evicted = w.push(lo(3)).expect("should evict");
        assert_eq!(evicted.features()[0], 0.0);
        let vals: Vec<f64> = w.iter().map(|o| o.features()[0]).collect();
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SlidingWindow::new(0);
    }

    #[test]
    fn buffered_window_delays_by_b() {
        let mut b = BufferedWindow::new(2, 3);
        for i in 0..2 {
            b.push(lo(i));
        }
        // Nothing has graduated yet: both observations are <= b old.
        assert!(b.stale().is_empty());
        assert_eq!(b.holding_len(), 2);
        b.push(lo(2));
        // Observation 0 is now 2 steps old and graduates.
        assert_eq!(b.stale().len(), 1);
        assert_eq!(b.stale().iter().next().unwrap().features()[0], 0.0);
    }

    #[test]
    fn buffered_window_stale_caps_at_w() {
        let mut b = BufferedWindow::new(1, 2);
        for i in 0..6 {
            b.push(lo(i));
        }
        // 5 graduates total, window keeps latest 2: observations 3 and 4.
        let vals: Vec<f64> = b.stale().iter().map(|o| o.features()[0]).collect();
        assert_eq!(vals, vec![3.0, 4.0]);
    }

    #[test]
    fn buffered_window_zero_delay_graduates_immediately() {
        let mut b = BufferedWindow::new(0, 4);
        b.push(lo(0));
        assert_eq!(b.stale().len(), 1);
        assert_eq!(b.holding_len(), 0);
    }

    #[test]
    fn clear_empties_everything() {
        let mut b = BufferedWindow::new(3, 3);
        for i in 0..10 {
            b.push(lo(i));
        }
        b.clear();
        assert!(b.stale().is_empty());
        assert_eq!(b.holding_len(), 0);
    }
}
