//! Structure-of-arrays frame storage: the hot-path replacement for
//! per-observation `LabeledObservation` clones.
//!
//! Algorithm 1 pushes every observation into the active window `A` *and*
//! the delayed buffer `B`. Storing each window as a `VecDeque` of owned
//! observations costs two heap-allocated feature vectors per step plus the
//! clone traffic itself — none of which the algorithm needs, because both
//! windows are views over the same most-recent `b + w` frames of the
//! stream.
//!
//! [`FrameStore`] keeps exactly those frames once, as two parallel
//! columns (a flat row-major `f64` feature arena and the labels) in a
//! fixed ring. No prediction is stored: extraction re-predicts every
//! window through the classifier it scores the window under.
//! [`FrameWindows`] layers the two windows of Algorithm 1 over it as
//! *views by age*; pushing a frame is one ring write.
//! [`FrameSource`] is the read interface shared by ring views, owned
//! [`FrameBlock`] snapshots and plain `[LabeledObservation]` slices, so
//! extraction code is written once and runs allocation-free over any of
//! them.

use crate::observation::LabeledObservation;

/// Read access to a window of frames, index `0` = oldest, `len - 1` =
/// newest — the iteration order every extraction pass uses.
pub trait FrameSource {
    /// Number of frames.
    fn len(&self) -> usize;

    /// Feature dimensionality of each frame (0 when empty and unknown).
    fn dims(&self) -> usize;

    /// Feature row of frame `i` (oldest-first indexing).
    fn features(&self, i: usize) -> &[f64];

    /// Ground-truth label of frame `i`.
    fn label(&self, i: usize) -> usize;

    /// Whether the source holds no frames.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FrameSource for [LabeledObservation] {
    fn len(&self) -> usize {
        <[LabeledObservation]>::len(self)
    }

    fn dims(&self) -> usize {
        self.first().map_or(0, |o| o.features().len())
    }

    fn features(&self, i: usize) -> &[f64] {
        self[i].features()
    }

    fn label(&self, i: usize) -> usize {
        self[i].label()
    }
}

/// A fixed-capacity ring of the most recent frames, stored as parallel
/// columns: features in one flat row-major `f64` arena, labels
/// alongside. Rows are addressed by *age* (0 = newest).
#[derive(Debug, Clone)]
pub struct FrameStore {
    dims: usize,
    rows: usize,
    /// Ring slot the next frame will be written to.
    head: usize,
    /// Total frames ever pushed.
    pushed: u64,
    features: Vec<f64>,
    labels: Vec<usize>,
}

impl FrameStore {
    /// Ring keeping the `rows` most recent frames of `dims` features each.
    pub fn new(rows: usize, dims: usize) -> Self {
        assert!(rows > 0, "frame store capacity must be positive");
        Self {
            dims,
            rows,
            head: 0,
            pushed: 0,
            features: vec![0.0; rows * dims],
            labels: vec![0; rows],
        }
    }

    /// Overwrites the oldest slot with a new frame.
    pub fn push(&mut self, x: &[f64], label: usize) {
        debug_assert_eq!(x.len(), self.dims);
        let at = self.head * self.dims;
        self.features[at..at + self.dims].copy_from_slice(x);
        self.labels[self.head] = label;
        self.head = (self.head + 1) % self.rows;
        self.pushed += 1;
    }

    /// Frames currently resident (`min(pushed, capacity)`).
    pub fn len(&self) -> usize {
        self.pushed.min(self.rows as u64) as usize
    }

    /// Whether no frame has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.pushed == 0
    }

    /// Total frames ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Feature dimensionality per frame.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Ring capacity in rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    fn slot_of_age(&self, age: usize) -> usize {
        debug_assert!(age < self.len(), "age {age} out of {} resident rows", self.len());
        (self.head + self.rows - 1 - age) % self.rows
    }

    /// Feature row of the frame `age` pushes ago (0 = newest).
    pub fn features_at_age(&self, age: usize) -> &[f64] {
        let at = self.slot_of_age(age) * self.dims;
        &self.features[at..at + self.dims]
    }

    /// Label of the frame `age` pushes ago.
    pub fn label_at_age(&self, age: usize) -> usize {
        self.labels[self.slot_of_age(age)]
    }

    /// A borrowed window over the frames with ages
    /// `[newest_age, newest_age + len)`.
    pub fn view(&self, newest_age: usize, len: usize) -> FrameView<'_> {
        debug_assert!(len == 0 || newest_age + len <= self.len());
        FrameView { store: self, newest_age, len }
    }
}

/// A borrowed, age-addressed window over a [`FrameStore`]; cheap to copy.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    store: &'a FrameStore,
    newest_age: usize,
    len: usize,
}

impl FrameView<'_> {
    fn age_of(&self, i: usize) -> usize {
        debug_assert!(i < self.len);
        self.newest_age + self.len - 1 - i
    }
}

impl FrameSource for FrameView<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn dims(&self) -> usize {
        self.store.dims
    }

    fn features(&self, i: usize) -> &[f64] {
        self.store.features_at_age(self.age_of(i))
    }

    fn label(&self, i: usize) -> usize {
        self.store.label_at_age(self.age_of(i))
    }
}

/// An owned, contiguous SoA snapshot of a frame window. The drift path
/// copies the active window into one of these (a single flat memcpy-style
/// pass, reusing capacity across drifts) so model selection can run while
/// the ring keeps advancing semantics simple.
#[derive(Debug, Clone, Default)]
pub struct FrameBlock {
    dims: usize,
    len: usize,
    features: Vec<f64>,
    labels: Vec<usize>,
}

impl FrameBlock {
    /// An empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the contents with a copy of `src`, keeping capacity.
    pub fn copy_from<S: FrameSource + ?Sized>(&mut self, src: &S) {
        self.dims = src.dims();
        self.len = src.len();
        self.features.clear();
        self.labels.clear();
        for i in 0..self.len {
            self.features.extend_from_slice(src.features(i));
            self.labels.push(src.label(i));
        }
    }

    /// Drops the contents, keeping capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.features.clear();
        self.labels.clear();
    }
}

impl FrameSource for FrameBlock {
    fn len(&self) -> usize {
        self.len
    }

    fn dims(&self) -> usize {
        self.dims
    }

    fn features(&self, i: usize) -> &[f64] {
        let at = i * self.dims;
        &self.features[at..at + self.dims]
    }

    fn label(&self, i: usize) -> usize {
        self.labels[i]
    }
}

/// Algorithm 1's two windows as views over one shared [`FrameStore`].
///
/// * the active window `A` — the `w` newest frames (ages `[0, w)`),
/// * the stale window `B` — graduates of the delay buffer, frames between
///   `b` and `b + w` steps old (ages `[b, b + w)`),
/// * the holding buffer — the `≤ b` newest frames not yet graduated.
///
/// The windows share one arena of `b + w` rows; pushing a frame is one
/// ring write, with no per-observation allocation. `A` and `B` keep the
/// same membership, iteration order and eviction schedule as the
/// owned-observation [`crate::window::SlidingWindow`] /
/// [`crate::window::BufferedWindow`] pair; clearing the buffer after a
/// drift is a logical restart (frames pushed before the clear never
/// graduate), exactly like clearing the owned buffer.
#[derive(Debug, Clone)]
pub struct FrameWindows {
    store: FrameStore,
    window: usize,
    delay: usize,
    /// `pushed` count at the last buffer clear; frames older than this
    /// never graduate into the stale window.
    s_start: u64,
}

impl FrameWindows {
    /// Windows of `window` frames with a graduation delay of `delay`
    /// frames, over `dims`-dimensional observations.
    pub fn new(window: usize, delay: usize, dims: usize) -> Self {
        assert!(window > 0, "window capacity must be positive");
        Self { store: FrameStore::new(window + delay, dims), window, delay, s_start: 0 }
    }

    /// Configured window size `w`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Configured delay `b`.
    pub fn delay(&self) -> usize {
        self.delay
    }

    /// Frames currently in the active window `A`.
    pub fn a_len(&self) -> usize {
        self.store.pushed.min(self.window as u64) as usize
    }

    /// Whether `A` has reached capacity.
    pub fn a_is_full(&self) -> bool {
        self.a_len() == self.window
    }

    /// Frames currently in the stale window `B`.
    pub fn stale_len(&self) -> usize {
        (self.store.pushed - self.s_start)
            .saturating_sub(self.delay as u64)
            .min(self.window as u64) as usize
    }

    /// Whether `B` has reached capacity.
    pub fn stale_is_full(&self) -> bool {
        self.stale_len() == self.window
    }

    /// Frames held back in the delay buffer (not yet graduated).
    pub fn holding_len(&self) -> usize {
        (self.store.pushed - self.s_start).min(self.delay as u64) as usize
    }

    /// The backing frame arena.
    pub fn store(&self) -> &FrameStore {
        &self.store
    }

    /// Pushes one frame into the shared arena; both windows' membership
    /// follows from the frame ages.
    pub fn push(&mut self, x: &[f64], label: usize) {
        self.store.push(x, label);
    }

    /// Logically empties the delay buffer and stale window (the ring keeps
    /// its frames; they simply never graduate). The active window is
    /// untouched, mirroring the owned post-drift `buffer.clear()`.
    pub fn clear_buffer(&mut self) {
        self.s_start = self.store.pushed;
    }

    /// View over the active window `A`, oldest first.
    pub fn a_view(&self) -> FrameView<'_> {
        self.store.view(0, self.a_len())
    }

    /// View over the stale window `B`, oldest first.
    pub fn stale_view(&self) -> FrameView<'_> {
        self.store.view(self.delay, self.stale_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{BufferedWindow, SlidingWindow};

    fn obs(i: usize) -> (Vec<f64>, usize) {
        (vec![i as f64, (i as f64 * 0.7).sin()], i % 3)
    }

    /// Reference pair of owned-observation windows driven in lockstep with
    /// `FrameWindows`; membership and order must agree at every step.
    #[test]
    fn views_match_legacy_windows_exactly() {
        let (w, b, d) = (5, 3, 2);
        let mut frames = FrameWindows::new(w, b, d);
        let mut legacy_a = SlidingWindow::new(w);
        let mut legacy_b = BufferedWindow::new(b, w);
        for i in 0..40 {
            let (x, y) = obs(i);
            let lo = LabeledObservation::new(x.clone(), y, 0);
            legacy_a.push(lo.clone());
            legacy_b.push(lo);
            frames.push(&x, y);
            if i == 17 {
                frames.clear_buffer();
                legacy_b.clear();
            }

            let a = frames.a_view();
            assert_eq!(a.len(), legacy_a.len(), "step {i}: A length");
            for (j, o) in legacy_a.iter().enumerate() {
                assert_eq!(a.features(j), o.features(), "step {i} A row {j}");
                assert_eq!(a.label(j), o.label());
            }

            let s = frames.stale_view();
            assert_eq!(s.len(), legacy_b.stale().len(), "step {i}: B length");
            assert_eq!(frames.holding_len(), legacy_b.holding_len(), "step {i}: holding");
            for (j, o) in legacy_b.stale().iter().enumerate() {
                assert_eq!(s.features(j), o.features(), "step {i} B row {j}");
                assert_eq!(s.label(j), o.label());
            }
            assert_eq!(frames.a_is_full(), legacy_a.is_full());
            assert_eq!(frames.stale_is_full(), legacy_b.stale().is_full());
        }
    }

    #[test]
    fn zero_delay_graduates_immediately() {
        let mut frames = FrameWindows::new(4, 0, 1);
        frames.push(&[1.0], 0);
        assert_eq!(frames.stale_len(), 1);
        assert_eq!(frames.holding_len(), 0);
        assert_eq!(frames.stale_view().features(0), &[1.0]);
    }

    #[test]
    fn frame_block_snapshots_a_view() {
        let mut frames = FrameWindows::new(3, 2, 2);
        for i in 0..7 {
            let (x, y) = obs(i);
            frames.push(&x, y);
        }
        let mut block = FrameBlock::new();
        block.copy_from(&frames.a_view());
        assert_eq!(block.len(), 3);
        assert_eq!(block.dims(), 2);
        for i in 0..3 {
            assert_eq!(block.features(i), frames.a_view().features(i));
            assert_eq!(block.label(i), frames.a_view().label(i));
        }
        // Reuse keeps capacity.
        let cap = block.features.capacity();
        block.copy_from(&frames.a_view());
        assert_eq!(block.features.capacity(), cap);
    }

    #[test]
    fn slice_source_matches_observations() {
        let obs: Vec<LabeledObservation> = (0..4)
            .map(|i| LabeledObservation::new(vec![i as f64], i % 2, (i + 1) % 2))
            .collect();
        let src: &[LabeledObservation] = &obs;
        assert_eq!(FrameSource::len(src), 4);
        assert_eq!(src.dims(), 1);
        assert_eq!(src.features(2), &[2.0]);
        assert_eq!(FrameSource::label(src, 3), 1);
    }
}
