//! Branch direction predictor (bimodal 2-bit counters) and branch target
//! buffer.
//!
//! Predictor state is *control logic* in the paper's fault model, not an
//! injected storage array — it exists so speculation (and therefore
//! hardware masking of faults in squashed wrong-path state) is real.

/// Bimodal predictor + BTB. `==` is what
/// [`Sim::converged_with`](crate::pipeline::Sim::converged_with) compares:
/// all of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predictor {
    counters: Vec<u8>,
    btb_tags: Vec<u32>,
    btb_targets: Vec<u32>,
    btb_valid: Vec<bool>,
}

impl Predictor {
    /// Creates a predictor with `counters` 2-bit entries (weakly not-taken)
    /// and `btb` target entries. Both must be powers of two.
    pub fn new(counters: u32, btb: u32) -> Self {
        assert!(counters.is_power_of_two() && btb.is_power_of_two());
        Predictor {
            counters: vec![1; counters as usize],
            btb_tags: vec![0; btb as usize],
            btb_targets: vec![0; btb as usize],
            btb_valid: vec![false; btb as usize],
        }
    }

    fn ctr_index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & (self.counters.len() - 1)
    }

    fn btb_index(&self, pc: u32) -> usize {
        ((pc >> 2) as usize) & (self.btb_tags.len() - 1)
    }

    /// Predicts the direction of a conditional branch at `pc`.
    pub fn predict_taken(&self, pc: u32) -> bool {
        self.counters[self.ctr_index(pc)] >= 2
    }

    /// Predicted target for a control instruction at `pc`, if the BTB has
    /// one.
    pub fn predict_target(&self, pc: u32) -> Option<u32> {
        let i = self.btb_index(pc);
        (self.btb_valid[i] && self.btb_tags[i] == pc).then(|| self.btb_targets[i])
    }

    /// Trains the direction counter after a branch resolves.
    pub fn train_direction(&mut self, pc: u32, taken: bool) {
        let i = self.ctr_index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Records the resolved target of a taken control instruction.
    pub fn train_target(&mut self, pc: u32, target: u32) {
        let i = self.btb_index(pc);
        self.btb_tags[i] = pc;
        self.btb_targets[i] = target;
        self.btb_valid[i] = true;
    }

    /// Overwrites this predictor with `src`'s state without reallocating.
    pub fn restore_from(&mut self, src: &Predictor) {
        #[rustfmt::skip]
        let Predictor { counters, btb_tags, btb_targets, btb_valid } = src;
        debug_assert_eq!(self.counters.len(), counters.len());
        self.counters.copy_from_slice(counters);
        self.btb_tags.copy_from_slice(btb_tags);
        self.btb_targets.copy_from_slice(btb_targets);
        self.btb_valid.copy_from_slice(btb_valid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_weakly_not_taken() {
        let p = Predictor::new(16, 8);
        assert!(!p.predict_taken(0x40));
    }

    #[test]
    fn learns_taken_branches() {
        let mut p = Predictor::new(16, 8);
        p.train_direction(0x40, true);
        assert!(p.predict_taken(0x40));
        p.train_direction(0x40, true);
        p.train_direction(0x40, false);
        assert!(p.predict_taken(0x40), "hysteresis keeps prediction");
        p.train_direction(0x40, false);
        p.train_direction(0x40, false);
        assert!(!p.predict_taken(0x40));
    }

    #[test]
    fn btb_roundtrip_and_tag_check() {
        let mut p = Predictor::new(16, 8);
        assert_eq!(p.predict_target(0x100), None);
        p.train_target(0x100, 0x40);
        assert_eq!(p.predict_target(0x100), Some(0x40));
        // Aliased PC (same index, different tag) must miss.
        assert_eq!(p.predict_target(0x100 + 8 * 4), None);
    }

    #[test]
    fn counters_saturate() {
        let mut p = Predictor::new(16, 8);
        for _ in 0..10 {
            p.train_direction(0, true);
        }
        assert!(p.predict_taken(0));
        for _ in 0..10 {
            p.train_direction(0, false);
        }
        assert!(!p.predict_taken(0));
    }
}
