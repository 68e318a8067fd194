//! Grouped Sparsity ANDer Tree (GSAT) — §V-D, Fig. 11(b).
//!
//! A naive selector for a 64-input bit-gated dot product needs 32 64-input
//! multiplexers. Because BS guarantees ≤50 % selected bits, PADE splits the
//! 64 inputs into eight sub-groups of eight with four sliding 5:1 muxes
//! each: a sub-group absorbs up to four selected query elements per cycle.
//! This module models the *timing* of that structure (the area/power DSE
//! lives in `pade_energy::area::gsat_cost`).

use pade_quant::PlaneRow;

use crate::bitserial::BsMode;

/// Timing model of one grouped ANDer tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gsat {
    width: usize,
    subgroup: usize,
    /// `width / subgroup`, divided once here rather than per plane.
    groups: usize,
}

impl Gsat {
    /// Creates a GSAT of `width` inputs split into sub-groups of
    /// `subgroup` elements (Table III: 64 / 8).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not divisible by `subgroup` or either is zero.
    #[must_use]
    pub fn new(width: usize, subgroup: usize) -> Self {
        assert!(width > 0 && subgroup > 0, "GSAT dimensions must be positive");
        assert_eq!(width % subgroup, 0, "width must be divisible by sub-group size");
        Self { width, subgroup, groups: width / subgroup }
    }

    /// Dot-product width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Sub-group size.
    #[must_use]
    pub fn subgroup(&self) -> usize {
        self.subgroup
    }

    /// Selectors (muxes) per sub-group: `subgroup / 2`, the worst case
    /// under BS.
    #[must_use]
    pub fn muxes_per_subgroup(&self) -> usize {
        (self.subgroup / 2).max(1)
    }

    /// Selected bits per sub-group for the `pass`-th GSAT-width slice of a
    /// plane under the given BS mode.
    ///
    /// The slice may be narrower than the GSAT (tail sub-vector); missing
    /// positions count as unselected.
    #[must_use]
    pub fn subgroup_selected(&self, plane: &PlaneRow, mode: BsMode, pass: usize) -> Vec<u32> {
        let groups = self.width / self.subgroup;
        let mut counts = vec![0u32; groups];
        let base = pass * self.width;
        for i in base..plane.len().min(base + self.width) {
            let bit = plane.bit(i);
            let selected = match mode {
                BsMode::Ones => bit,
                BsMode::Zeros => !bit,
            };
            if selected {
                counts[(i - base) / self.subgroup] += 1;
            }
        }
        counts
    }

    /// Number of GSAT passes a plane of this width needs (a 128-dim key on
    /// a 64-wide tree takes two passes).
    #[must_use]
    pub fn passes(&self, plane_len: usize) -> usize {
        plane_len.div_ceil(self.width).max(1)
    }

    /// Cycles to absorb one plane: per pass, the slowest sub-group
    /// dominates (`⌈selected / muxes⌉`, minimum 1 — even an all-skip pass
    /// costs the pipeline beat that recognises it); passes serialize.
    #[must_use]
    pub fn plane_cycles(&self, plane: &PlaneRow, mode: BsMode) -> u64 {
        let muxes = self.muxes_per_subgroup() as u32;
        (0..self.passes(plane.len()))
            .map(|pass| {
                self.subgroup_selected(plane, mode, pass)
                    .into_iter()
                    .map(|sel| u64::from(sel.div_ceil(muxes)))
                    .max()
                    .unwrap_or(1)
                    .max(1)
            })
            .sum()
    }

    /// Ideal (perfectly balanced) cycles for the same plane: total selected
    /// bits spread evenly over every mux.
    #[must_use]
    pub fn balanced_cycles(&self, plane: &PlaneRow, mode: BsMode) -> u64 {
        let total_muxes = (self.muxes_per_subgroup() * (self.width / self.subgroup)) as u64;
        let selected: u64 = (0..self.passes(plane.len()))
            .map(|pass| {
                self.subgroup_selected(plane, mode, pass).iter().map(|&c| u64::from(c)).sum::<u64>()
            })
            .sum();
        selected.div_ceil(total_muxes).max(self.passes(plane.len()) as u64)
    }

    /// Intra-lane imbalance of one plane in cycles: actual minus perfectly
    /// balanced (the intra-PE stall source of Fig. 23(a)).
    #[must_use]
    pub fn plane_imbalance(&self, plane: &PlaneRow, mode: BsMode) -> u64 {
        self.plane_cycles(plane, mode).saturating_sub(self.balanced_cycles(plane, mode))
    }
}

impl Gsat {
    /// Selected bits per sub-group under *per-sub-group* bidirectional
    /// selection: each sub-group independently accumulates its rarer bit
    /// value (`min(ones, zeros)` ≤ subgroup/2), which is why the paper's
    /// four sliding 5:1 muxes always absorb a sub-group in one cycle — at
    /// the price of one subtractor and local q-sum per sub-group (§V-D).
    #[must_use]
    pub fn bs_subgroup_selected(&self, plane: &PlaneRow, pass: usize) -> Vec<u32> {
        let ones = self.subgroup_selected(plane, BsMode::Ones, pass);
        let base = pass * self.width;
        let groups = self.width / self.subgroup;
        (0..groups)
            .map(|g| {
                let lo = base + g * self.subgroup;
                let hi = (lo + self.subgroup).min(plane.len());
                let present = hi.saturating_sub(lo) as u32;
                ones[g].min(present - ones[g].min(present))
            })
            .collect()
    }

    /// Total selected bits over all passes under per-sub-group BS.
    #[must_use]
    pub fn bs_selected_total(&self, plane: &PlaneRow) -> u32 {
        (0..self.passes(plane.len()))
            .map(|pass| self.bs_subgroup_selected(plane, pass).iter().sum::<u32>())
            .sum()
    }

    /// Cycles to absorb one plane with per-sub-group BS: every sub-group
    /// holds ≤ subgroup/2 selections, matching the mux count — one cycle
    /// per pass, always.
    #[must_use]
    pub fn bs_plane_cycles(&self, plane: &PlaneRow) -> u64 {
        let muxes = self.muxes_per_subgroup() as u32;
        (0..self.passes(plane.len()))
            .map(|pass| {
                self.bs_subgroup_selected(plane, pass)
                    .into_iter()
                    .map(|sel| u64::from(sel.div_ceil(muxes)))
                    .max()
                    .unwrap_or(1)
                    .max(1)
            })
            .sum()
    }
}

/// Everything the engine needs from one plane absorption, computed in a
/// single pass over sub-groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneAbsorb {
    /// Absorption cycles (per-sub-group BS when enabled, else one-sided).
    pub cycles: u64,
    /// Query elements actually accumulated.
    pub selected: u32,
    /// Perfectly balanced cycles, already clamped to `cycles`.
    pub balanced: u64,
}

impl Gsat {
    /// Fast path for the engine's per-plane bookkeeping: one word-level
    /// sweep over sub-groups replaces the separate
    /// [`Gsat::bs_plane_cycles`] / [`Gsat::bs_selected_total`] /
    /// [`Gsat::plane_cycles`] / [`Gsat::balanced_cycles`] calls (each of
    /// which re-scans the plane bit by bit and allocates). Each sub-group's
    /// ones are one shift, mask and popcount of the packed words (two
    /// words when it straddles a word boundary), the same code for every
    /// geometry. `⌈sel / muxes⌉` is monotonic in `sel`, so the slowest
    /// sub-group of a pass is found on the raw counts, and a division runs
    /// only when it holds more selections than muxes. Values are identical
    /// to the naive methods — property-tested in this module.
    #[must_use]
    pub fn absorb_stats(&self, plane: &PlaneRow, enable_bs: bool) -> PlaneAbsorb {
        let len = plane.len();
        // Most planes fit one pass; the divisions below are skipped on
        // their common outcomes.
        let passes = if len <= self.width { 1 } else { len.div_ceil(self.width) };
        let muxes = self.muxes_per_subgroup() as u32;
        let mut cycles = 0u64;
        let mut selected = 0u32;
        for pass in 0..passes {
            let mut worst = 0u32;
            let mut lo = pass * self.width;
            // Sub-groups past the plane's end select nothing.
            for _ in 0..self.groups {
                if lo >= len {
                    break;
                }
                let present = (len - lo).min(self.subgroup) as u32;
                let ones = self.subgroup_ones(plane, lo);
                let sel = if enable_bs { ones.min(present - ones) } else { ones };
                selected += sel;
                worst = worst.max(sel);
                lo += self.subgroup;
            }
            // `max(⌈worst / muxes⌉, 1)`: one beat unless a sub-group holds
            // more selections than muxes (never under per-sub-group BS).
            cycles += if worst <= muxes { 1 } else { u64::from(worst.div_ceil(muxes)) };
        }
        // `balanced_cycles(plane, BsMode::Ones)` — always the one-sided
        // count, matching the engine's imbalance accounting:
        // `max(⌈ones / total_muxes⌉, passes)`, where the sub-groups of all
        // passes tile the plane, so their ones are the plane's.
        let ones_total = plane.count_ones();
        let total_muxes = (self.muxes_per_subgroup() * self.groups) as u64;
        let balanced = if u64::from(ones_total) <= total_muxes * passes as u64 {
            passes as u64
        } else {
            u64::from(ones_total).div_ceil(total_muxes)
        };
        PlaneAbsorb { cycles, selected, balanced: balanced.min(cycles) }
    }

    /// Set bits of the sub-group starting at bit `lo < plane.len()`: one
    /// shift (two across a word boundary), a mask and a popcount. Padding
    /// bits past the plane's length are clear, so they count nothing.
    /// Sub-groups wider than a word take the range count.
    #[inline]
    fn subgroup_ones(&self, plane: &PlaneRow, lo: usize) -> u32 {
        let s = self.subgroup;
        if s > 64 {
            return plane.count_ones_in_range(lo, lo + s);
        }
        let words = plane.words();
        let (w, off) = (lo / 64, lo % 64);
        let mut x = words[w] >> off;
        if off + s > 64 {
            if let Some(next) = words.get(w + 1) {
                x |= next << (64 - off);
            }
        }
        if s < 64 {
            x &= (1u64 << s) - 1;
        }
        x.count_ones()
    }
}

impl Default for Gsat {
    /// The Table III configuration: 64-input, sub-groups of 8.
    fn default() -> Self {
        Self::new(64, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(bits: &[bool]) -> PlaneRow {
        PlaneRow::from_bits(bits.iter().copied())
    }

    #[test]
    fn empty_plane_costs_one_cycle() {
        let g = Gsat::default();
        let p = plane(&[false; 64]);
        assert_eq!(g.plane_cycles(&p, BsMode::Ones), 1);
    }

    #[test]
    fn bs_worst_case_fits_in_one_cycle() {
        // Under BS, at most 4 of 8 bits per sub-group are selected → 4 muxes
        // absorb them in a single cycle.
        let g = Gsat::default();
        let bits: Vec<bool> = (0..64).map(|i| i % 2 == 0).collect();
        let p = plane(&bits);
        assert_eq!(g.plane_cycles(&p, BsMode::Ones), 1);
    }

    #[test]
    fn dense_plane_without_bs_takes_two_cycles() {
        let g = Gsat::default();
        let p = plane(&[true; 64]);
        assert_eq!(g.plane_cycles(&p, BsMode::Ones), 2);
        // BS would flip to zeros: nothing selected, 1 cycle.
        assert_eq!(g.plane_cycles(&p, BsMode::Zeros), 1);
    }

    #[test]
    fn slowest_subgroup_dominates() {
        let g = Gsat::default();
        // First sub-group full (8 selected → 2 cycles), rest empty.
        let bits: Vec<bool> = (0..64).map(|i| i < 8).collect();
        let p = plane(&bits);
        assert_eq!(g.plane_cycles(&p, BsMode::Ones), 2);
        assert!(g.plane_imbalance(&p, BsMode::Ones) > 0);
    }

    #[test]
    fn balanced_plane_has_no_imbalance() {
        let g = Gsat::default();
        let bits: Vec<bool> = (0..64).map(|i| i % 8 < 4).collect();
        let p = plane(&bits);
        assert_eq!(g.plane_imbalance(&p, BsMode::Ones), 0);
    }

    #[test]
    fn narrow_plane_is_padded_with_unselected() {
        let g = Gsat::default();
        let p = plane(&[true; 16]); // only two sub-groups occupied
        let counts = g.subgroup_selected(&p, BsMode::Ones, 0);
        assert_eq!(counts[0], 8);
        assert_eq!(counts[1], 8);
        assert!(counts[2..].iter().all(|&c| c == 0));
    }

    #[test]
    fn wide_plane_takes_multiple_passes() {
        let g = Gsat::default();
        assert_eq!(g.passes(128), 2);
        assert_eq!(g.passes(64), 1);
        assert_eq!(g.passes(1), 1);
        // 128-dim plane, alternating bits: each pass is 1 cycle → 2 total.
        let bits: Vec<bool> = (0..128).map(|i| i % 2 == 0).collect();
        let p = plane(&bits);
        assert_eq!(g.plane_cycles(&p, BsMode::Ones), 2);
        // Dense 128-dim plane without BS: 2 cycles per pass → 4 total.
        let p_dense = plane(&[true; 128]);
        assert_eq!(g.plane_cycles(&p_dense, BsMode::Ones), 4);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn ragged_subgroup_rejected() {
        let _ = Gsat::new(64, 7);
    }

    #[test]
    fn per_subgroup_bs_always_fits_one_cycle_per_pass() {
        let g = Gsat::default();
        // Adversarial plane: one sub-group all ones, one all zeros, rest mixed.
        let bits: Vec<bool> = (0..64).map(|i| i < 8 || (i >= 16 && i % 3 == 0)).collect();
        let p = plane(&bits);
        assert_eq!(g.bs_plane_cycles(&p), 1);
        // Global-mode BS would take 2 cycles on the dense sub-group.
        assert_eq!(g.plane_cycles(&p, BsMode::Ones), 2);
        // Selection bounded at half per sub-group.
        for sel in g.bs_subgroup_selected(&p, 0) {
            assert!(sel <= 4);
        }
    }

    #[test]
    fn absorb_stats_matches_naive_methods() {
        use proptest::prelude::*;
        // Deterministic sweep over geometries, widths, fills and BS modes
        // rather than a hand-picked case: absorb_stats is the engine's hot
        // path and must agree with the per-bit oracles everywhere. Beside
        // the power-of-two geometries, 48/6 puts sub-groups across word
        // boundaries and 256/128 takes sub-groups wider than a word.
        let geometries = [(16, 2), (32, 4), (64, 8), (128, 16), (48, 6), (256, 128)];
        let mut rng = TestRng::for_case("gsat::absorb", 0);
        for (width, subgroup) in geometries {
            let g = Gsat::new(width, subgroup);
            for len in [1usize, 3, 8, 16, 63, 64, 65, 127, 128, 200, 300] {
                for density in [1u32, 2, 8] {
                    // density 1: all ones; 2: coin flips; 8: sparse ones.
                    let bits: Vec<bool> =
                        (0..len).map(|_| (0u32..density).sample(&mut rng) == 0).collect();
                    check_absorb_stats(&g, &plane(&bits), &format!("{width}/{subgroup} len {len}"));
                }
            }
        }
    }

    fn check_absorb_stats(g: &Gsat, p: &PlaneRow, case: &str) {
        let bs = g.absorb_stats(p, true);
        assert_eq!(bs.cycles, g.bs_plane_cycles(p), "{case}");
        assert_eq!(bs.selected, g.bs_selected_total(p), "{case}");
        assert_eq!(bs.balanced, g.balanced_cycles(p, BsMode::Ones).min(bs.cycles), "{case}");
        let ones = g.absorb_stats(p, false);
        assert_eq!(ones.cycles, g.plane_cycles(p, BsMode::Ones), "{case}");
        assert_eq!(ones.selected, p.count_ones(), "{case}");
        assert_eq!(ones.balanced, g.balanced_cycles(p, BsMode::Ones).min(ones.cycles), "{case}");
    }

    #[test]
    fn per_subgroup_bs_handles_wide_and_narrow_planes() {
        let g = Gsat::default();
        let p = plane(&[true; 128]);
        assert_eq!(g.bs_plane_cycles(&p), 2); // two passes, 1 cycle each
        assert_eq!(g.bs_selected_total(&p), 0); // all-ones flips to zeros
        let narrow = plane(&[true, false, true]);
        assert_eq!(g.bs_plane_cycles(&narrow), 1);
        assert_eq!(g.bs_selected_total(&narrow), 1);
    }
}
