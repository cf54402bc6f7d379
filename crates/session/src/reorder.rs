//! Watermark-ordered reorder buffering for disordered event streams.
//!
//! The MoLoc recursion (Eq. 7) consumes queries strictly in sequence
//! order — feeding it a transposed pair silently corrupts the retained
//! posterior. Real streams arrive reordered, duplicated, and lossy, so
//! every event passes through a [`ReorderBuffer`] first:
//!
//! * Events are released **contiguously from the watermark** (the next
//!   expected sequence number). An out-of-order arrival parks in a
//!   bounded pending window until its predecessors show up.
//! * **Duplicates** (an arrival whose `seq` is already pending) are
//!   dropped. Since retransmissions reuse the event id — and the
//!   session stream keys event ids to sequence numbers — seq-keyed
//!   dedup *is* event-id dedup; the stored original always wins so
//!   delivery is independent of how many copies arrive.
//! * **Late arrivals** (`seq` below the watermark) are dropped and
//!   counted: their slot was already delivered or declared lost.
//!   `seq = u64::MAX` is refused the same way: releasing it would move
//!   the watermark past the end of the sequence space.
//! * When the pending window exceeds its capacity the buffer declares
//!   the smallest missing gap **lost**, advances the watermark to the
//!   earliest pending event, and releases what is now contiguous.
//!   Memory stays bounded no matter how adversarial the stream is.
//!
//! Every decision is a pure function of the arrival order, so a replay
//! of the same arrival stream reproduces the same delivery stream —
//! the property the crash-recovery proof in DESIGN.md §16 leans on.

use std::collections::BTreeMap;

use crate::event::ScanEvent;

/// Counters describing everything a [`ReorderBuffer`] did to a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Events released to the tracker, in sequence order.
    pub delivered: u64,
    /// Arrivals dropped because their sequence slot was already
    /// pending (retransmissions / fault-injected duplicates).
    pub duplicates_dropped: u64,
    /// Arrivals dropped because their sequence number was below the
    /// watermark (the slot was already delivered or declared lost), or
    /// was `u64::MAX`, which has no successor for the watermark to
    /// advance to.
    pub late_dropped: u64,
    /// Sequence numbers declared lost to keep the window bounded.
    pub gaps_skipped: u64,
}

/// A bounded, watermark-ordered reorder buffer. See the module docs
/// for the delivery policy.
#[derive(Debug)]
pub struct ReorderBuffer {
    capacity: usize,
    next_seq: u64,
    pending: BTreeMap<u64, ScanEvent>,
    stats: ReorderStats,
}

impl ReorderBuffer {
    /// A buffer that parks at most `capacity` out-of-order events
    /// (`capacity >= 1`).
    pub fn new(capacity: usize) -> ReorderBuffer {
        assert!(capacity >= 1, "reorder capacity must be at least 1");
        ReorderBuffer {
            capacity,
            next_seq: 0,
            pending: BTreeMap::new(),
            stats: ReorderStats::default(),
        }
    }

    /// The next sequence number the buffer will release. Everything
    /// below it has been delivered or declared lost.
    pub fn watermark(&self) -> u64 {
        self.next_seq
    }

    /// Stream statistics so far.
    pub fn stats(&self) -> ReorderStats {
        self.stats
    }

    /// Out-of-order events currently parked, in sequence order.
    pub fn pending(&self) -> impl Iterator<Item = &ScanEvent> {
        self.pending.values()
    }

    /// Number of parked events.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The configured window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accepts one arrival and appends every event that is now
    /// releasable (in sequence order) to `out`. Returns how many
    /// events were released.
    pub fn push(&mut self, event: ScanEvent, out: &mut Vec<ScanEvent>) -> usize {
        if event.seq < self.next_seq || event.seq == u64::MAX {
            self.stats.late_dropped += 1;
            return 0;
        }
        if self.pending.contains_key(&event.seq) {
            self.stats.duplicates_dropped += 1;
            return 0;
        }
        self.pending.insert(event.seq, event);
        let before = out.len();
        let watermark_before = self.next_seq;
        self.release_contiguous(out);
        while self.pending.len() > self.capacity {
            self.skip_to_earliest_pending(out);
        }
        moloc_verify::check_watermark("session.reorder.watermark", watermark_before, self.next_seq);
        out.len() - before
    }

    /// Declares the stream finished: releases every parked event in
    /// sequence order, counting the gaps between them as lost.
    pub fn flush(&mut self, out: &mut Vec<ScanEvent>) -> usize {
        let before = out.len();
        while !self.pending.is_empty() {
            self.skip_to_earliest_pending(out);
        }
        out.len() - before
    }

    /// Restores buffer state from a checkpoint: the watermark, the
    /// parked events (must all have `watermark <= seq < u64::MAX`), and
    /// the running statistics.
    pub fn restore(&mut self, watermark: u64, pending: Vec<ScanEvent>, stats: ReorderStats) {
        self.next_seq = watermark;
        self.stats = stats;
        self.pending.clear();
        for event in pending {
            debug_assert!(event.seq >= watermark, "pending event below watermark");
            debug_assert!(event.seq < u64::MAX, "pending event at u64::MAX");
            self.pending.insert(event.seq, event);
        }
    }

    fn release_contiguous(&mut self, out: &mut Vec<ScanEvent>) {
        while let Some(event) = self.pending.remove(&self.next_seq) {
            self.next_seq += 1;
            self.stats.delivered += 1;
            out.push(event);
        }
    }

    fn skip_to_earliest_pending(&mut self, out: &mut Vec<ScanEvent>) {
        if let Some((&earliest, _)) = self.pending.iter().next() {
            debug_assert!(earliest > self.next_seq, "contiguous run not drained");
            self.stats.gaps_skipped += earliest - self.next_seq;
            self.next_seq = earliest;
            self.release_contiguous(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64) -> ScanEvent {
        ScanEvent {
            event_id: seq.wrapping_add(1000),
            seq,
            scan: vec![-40.0 - seq as f64],
            motion: None,
        }
    }

    fn seqs(events: &[ScanEvent]) -> Vec<u64> {
        events.iter().map(|e| e.seq).collect()
    }

    #[test]
    fn in_order_stream_passes_straight_through() {
        let mut buf = ReorderBuffer::new(4);
        let mut out = Vec::new();
        for seq in 0..10 {
            assert_eq!(buf.push(ev(seq), &mut out), 1);
        }
        assert_eq!(seqs(&out), (0..10).collect::<Vec<_>>());
        assert_eq!(buf.stats().delivered, 10);
        assert_eq!(buf.stats().gaps_skipped, 0);
        assert_eq!(buf.pending_len(), 0);
    }

    #[test]
    fn out_of_order_arrivals_are_released_in_sequence_order() {
        let mut buf = ReorderBuffer::new(4);
        let mut out = Vec::new();
        buf.push(ev(2), &mut out);
        buf.push(ev(1), &mut out);
        assert!(out.is_empty(), "nothing releasable before seq 0 arrives");
        assert_eq!(buf.push(ev(0), &mut out), 3);
        assert_eq!(seqs(&out), vec![0, 1, 2]);
        assert_eq!(buf.watermark(), 3);
    }

    #[test]
    fn duplicates_and_late_arrivals_are_dropped_and_counted() {
        let mut buf = ReorderBuffer::new(4);
        let mut out = Vec::new();
        buf.push(ev(1), &mut out);
        buf.push(ev(1), &mut out); // duplicate of a pending event
        buf.push(ev(0), &mut out);
        buf.push(ev(0), &mut out); // late: already delivered
        assert_eq!(seqs(&out), vec![0, 1]);
        let stats = buf.stats();
        assert_eq!(stats.duplicates_dropped, 1);
        assert_eq!(stats.late_dropped, 1);
        assert_eq!(stats.delivered, 2);
    }

    #[test]
    fn the_last_sequence_number_is_refused_not_overflowed() {
        // Parked beside a released run, then flushed.
        let mut buf = ReorderBuffer::new(4);
        let mut out = Vec::new();
        buf.push(ev(0), &mut out);
        assert_eq!(buf.push(ev(u64::MAX), &mut out), 0);
        assert_eq!(buf.flush(&mut out), 0);
        assert_eq!(seqs(&out), vec![0]);
        assert_eq!(buf.watermark(), 1);
        assert_eq!(buf.stats().late_dropped, 1);
        assert_eq!(buf.pending_len(), 0);

        // Released by a window overflow at capacity 1.
        let mut buf = ReorderBuffer::new(1);
        let mut out = Vec::new();
        for seq in [u64::MAX, 5, u64::MAX - 1] {
            buf.push(ev(seq), &mut out);
        }
        assert_eq!(seqs(&out), vec![5]);
        assert_eq!(buf.watermark(), 6);
        assert_eq!(buf.stats().late_dropped, 1);
        assert_eq!(buf.stats().gaps_skipped, 5);
        assert_eq!(
            buf.pending().map(|e| e.seq).collect::<Vec<_>>(),
            vec![u64::MAX - 1]
        );
        // The highest deliverable slot releases and the watermark lands
        // on u64::MAX without wrapping, so nothing delivered is accepted
        // again.
        buf.flush(&mut out);
        assert_eq!(seqs(&out), vec![5, u64::MAX - 1]);
        assert_eq!(buf.watermark(), u64::MAX);
        assert_eq!(buf.push(ev(5), &mut out), 0);
        assert_eq!(buf.push(ev(u64::MAX), &mut out), 0);
        assert_eq!(buf.stats().late_dropped, 3);
    }

    #[test]
    fn window_overflow_declares_the_gap_lost_and_stays_bounded() {
        let mut buf = ReorderBuffer::new(3);
        let mut out = Vec::new();
        // seq 0 never arrives; 1..=3 fill the window, 4 overflows it.
        for seq in [1, 2, 3] {
            buf.push(ev(seq), &mut out);
            assert!(out.is_empty());
        }
        buf.push(ev(4), &mut out);
        assert_eq!(seqs(&out), vec![1, 2, 3, 4], "gap skipped, run released");
        assert_eq!(buf.stats().gaps_skipped, 1);
        assert_eq!(buf.watermark(), 5);
        assert!(buf.pending_len() <= buf.capacity());
        // A very late seq 0 is now dropped, not delivered out of order.
        buf.push(ev(0), &mut out);
        assert_eq!(buf.stats().late_dropped, 1);
    }

    #[test]
    fn flush_releases_the_tail_and_counts_interior_gaps() {
        let mut buf = ReorderBuffer::new(8);
        let mut out = Vec::new();
        buf.push(ev(0), &mut out);
        buf.push(ev(2), &mut out);
        buf.push(ev(5), &mut out);
        assert_eq!(buf.flush(&mut out), 2);
        assert_eq!(seqs(&out), vec![0, 2, 5]);
        // Gaps: seq 1 and seqs 3..=4.
        assert_eq!(buf.stats().gaps_skipped, 3);
        assert_eq!(buf.watermark(), 6);
        assert_eq!(buf.pending_len(), 0);
    }

    #[test]
    fn replaying_the_same_arrival_order_reproduces_the_delivery_stream() {
        let arrivals = [3u64, 0, 7, 1, 1, 2, 9, 5, 4, 0, 8, 6];
        let run = |capacity| {
            let mut buf = ReorderBuffer::new(capacity);
            let mut out = Vec::new();
            for &seq in &arrivals {
                buf.push(ev(seq), &mut out);
            }
            buf.flush(&mut out);
            (seqs(&out), buf.stats())
        };
        assert_eq!(run(4), run(4));
        // With a roomy window nothing is lost and delivery is exactly
        // the sorted unique sequence set.
        let (delivered, stats) = run(16);
        assert_eq!(delivered, (0..10).collect::<Vec<_>>());
        assert_eq!(stats.gaps_skipped, 0);
        // Both repeats (seq 1, seq 0) arrive after their slot was
        // already delivered, so they count as late, not pending-dups.
        assert_eq!(stats.duplicates_dropped, 0);
        assert_eq!(stats.late_dropped, 2);
    }

    #[test]
    fn restore_resumes_exactly_where_the_checkpoint_left_off() {
        let mut original = ReorderBuffer::new(8);
        let mut out = Vec::new();
        for seq in [0u64, 1, 4, 5] {
            original.push(ev(seq), &mut out);
        }
        let pending: Vec<ScanEvent> = original.pending().cloned().collect();
        let mut restored = ReorderBuffer::new(8);
        restored.restore(original.watermark(), pending, original.stats());

        let mut a = Vec::new();
        let mut b = Vec::new();
        for seq in [3u64, 2] {
            original.push(ev(seq), &mut a);
            restored.push(ev(seq), &mut b);
        }
        assert_eq!(seqs(&a), seqs(&b));
        assert_eq!(original.stats(), restored.stats());
        assert_eq!(original.watermark(), restored.watermark());
    }
}
