//! Buffer replacement: Clock (second chance).
//!
//! Each buffer-pool shard holds one [`Clock`] over its frames. The pool
//! owns which frames may be evicted (a frame holding a page with no
//! pins); the clock owns only the reference bits and the hand. Clock is
//! the only policy: LRU missed as often and cost more per miss when
//! scans flood the pool (EXPERIMENTS §A1).

/// Index of a frame within the buffer pool.
pub type FrameId = usize;

/// Clock (second chance): one reference bit per frame and a hand that
/// sweeps them, a cheap approximation of LRU.
pub struct Clock {
    reference: Vec<bool>,
    hand: usize,
}

impl Clock {
    /// A clock over `capacity` frames, none referenced.
    pub fn new(capacity: usize) -> Clock {
        Clock {
            reference: vec![false; capacity],
            hand: 0,
        }
    }

    /// A frame was accessed (hit or fill).
    #[inline]
    pub fn touch(&mut self, frame: FrameId) {
        self.reference[frame] = true;
    }

    /// Choose a victim among the frames `evictable` accepts, or `None`
    /// when it accepts none. A referenced frame loses its bit and is
    /// passed over once.
    pub fn evict(&mut self, evictable: impl Fn(FrameId) -> bool) -> Option<FrameId> {
        let n = self.reference.len();
        // Two full sweeps guarantee termination: the first clears
        // reference bits, the second must find a victim unless no frame
        // is evictable.
        for _ in 0..2 * n {
            let f = self.hand;
            self.hand = (self.hand + 1) % n;
            if !evictable(f) {
                continue;
            }
            if self.reference[f] {
                self.reference[f] = false;
            } else {
                return Some(f);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evict from the frames marked in `resident`, unmarking the victim.
    fn evict(clock: &mut Clock, resident: &mut [bool]) -> Option<FrameId> {
        let victim = clock.evict(|f| resident[f])?;
        resident[victim] = false;
        Some(victim)
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = Clock::new(3);
        let mut resident = [true; 3];
        (0..3).for_each(|f| p.touch(f));
        // First sweep clears all reference bits; frame 0 is the first to
        // lose its second chance.
        assert_eq!(evict(&mut p, &mut resident), Some(0));
        // Re-reference 1: 2 falls first.
        p.touch(1);
        assert_eq!(evict(&mut p, &mut resident), Some(2));
        assert_eq!(evict(&mut p, &mut resident), Some(1));
        assert_eq!(evict(&mut p, &mut resident), None);
    }

    #[test]
    fn clock_respects_pins() {
        let mut p = Clock::new(2);
        p.touch(0);
        p.touch(1);
        // Both frames pinned: nothing is evictable.
        assert_eq!(p.evict(|_| false), None);
        // Frame 1 unpinned.
        assert_eq!(p.evict(|f| f == 1), Some(1));
    }

    #[test]
    fn clock_empty_pool() {
        let mut p = Clock::new(0);
        assert_eq!(p.evict(|_| true), None);
    }

    #[test]
    fn freed_frames_are_forgotten() {
        let mut c = Clock::new(2);
        let mut resident = [true; 2];
        c.touch(0);
        c.touch(1);
        // Frame 1 is freed: it returns to the free list, not the sweep.
        resident[1] = false;
        assert_eq!(evict(&mut c, &mut resident), Some(0));
        assert_eq!(evict(&mut c, &mut resident), None);
    }
}
