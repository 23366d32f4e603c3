//! The pipelined STSCL ripple adder (paper §III-B technique source,
//! ref \[13\]: "ultra low power 32-bit pipelined adder using subthreshold
//! source-coupled logic with 5 fJ/stage PDP").
//!
//! Each full-adder stage is exactly two compound cells — a three-level
//! [`CellKind::Xor3`] for the sum and a [`CellKind::Maj3`] for the
//! carry — so an `n`-bit adder costs `2n` tail currents. Unpipelined,
//! the carry ripple makes the logic depth `n`; with the Fig. 8 merged
//! latches the depth collapses to 1 and the adder becomes a systolic
//! (wave) pipeline: operand bit `k` must be presented `k` cycles after
//! bit 0 and sum bit `k` emerges with the matching skew. The
//! [`PipelinedAdder`] wrapper hides the skewing behind a word-at-a-time
//! streaming interface.

use crate::cells::CellKind;
use crate::gate::SclParams;
use crate::netlist::{GateNetlist, NetId, NetlistError};
use crate::sim::{evaluate, ClockedSim};

/// A structural ripple adder.
///
/// # Example
///
/// ```
/// use ulp_stscl::adder::RippleAdder;
///
/// let adder = RippleAdder::build(8, false);
/// let (sum, carry) = adder.add(200, 100, false);
/// assert_eq!(sum, 44);         // (200 + 100) mod 256
/// assert!(carry);
/// // Two compound cells per bit — the ref \[13\] economy.
/// assert_eq!(adder.netlist().gate_count(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct RippleAdder {
    netlist: GateNetlist,
    /// Cached unlatched view for combinational evaluation.
    comb: GateNetlist,
    width: usize,
    sum: Vec<NetId>,
    cout: NetId,
}

impl RippleAdder {
    /// Builds an `width`-bit adder; `pipelined` merges a latch into
    /// every cell (ref \[13\] style).
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or on an internal netlist inconsistency.
    pub fn build(width: usize, pipelined: bool) -> Self {
        assert!(width > 0, "adder width must be positive");
        Self::try_build(width, pipelined).expect("adder construction is internally consistent")
    }

    fn try_build(width: usize, pipelined: bool) -> Result<Self, NetlistError> {
        let mut nl = GateNetlist::new();
        let a: Vec<NetId> = (0..width).map(|k| nl.input(&format!("a{k}"))).collect();
        let b: Vec<NetId> = (0..width).map(|k| nl.input(&format!("b{k}"))).collect();
        let cin = nl.input("cin");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(width);
        for k in 0..width {
            let s = if pipelined {
                nl.latched_gate(CellKind::Xor3, &[a[k], b[k], carry], &format!("s{k}"))?
            } else {
                nl.gate(CellKind::Xor3, &[a[k], b[k], carry], &format!("s{k}"))?
            };
            let c = if pipelined {
                nl.latched_gate(CellKind::Maj3, &[a[k], b[k], carry], &format!("c{k}"))?
            } else {
                nl.gate(CellKind::Maj3, &[a[k], b[k], carry], &format!("c{k}"))?
            };
            sum.push(s);
            carry = c;
        }
        for &s in &sum {
            nl.output(s);
        }
        nl.output(carry);
        let comb = crate::pipeline::unpipeline(&nl);
        Ok(RippleAdder {
            netlist: nl,
            comb,
            width,
            sum,
            cout: carry,
        })
    }

    /// Word width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Carry-out net.
    pub fn carry_out(&self) -> NetId {
        self.cout
    }

    /// The gate netlist (2 cells per bit).
    pub fn netlist(&self) -> &GateNetlist {
        &self.netlist
    }

    /// Combinational evaluation: `a + b + cin`, returning
    /// `(sum, carry_out)`. Works on both variants (latches are evaluated
    /// transparently through the unpipelined view).
    ///
    /// # Panics
    ///
    /// Panics if the operands exceed the adder width.
    pub fn add(&self, a: u64, b: u64, cin: bool) -> (u64, bool) {
        assert!(
            self.width == 64 || (a < (1u64 << self.width) && b < (1u64 << self.width)),
            "operands exceed adder width"
        );
        let mut pi = Vec::with_capacity(2 * self.width + 1);
        for k in 0..self.width {
            pi.push((a >> k) & 1 == 1);
        }
        for k in 0..self.width {
            pi.push((b >> k) & 1 == 1);
        }
        pi.push(cin);
        let v = evaluate(&self.comb, &pi, &[]).expect("adder netlist is acyclic");
        let mut s = 0u64;
        for (k, &net) in self.sum.iter().enumerate() {
            s |= (v.get(net) as u64) << k;
        }
        (s, v.get(self.cout))
    }

    /// Energy per addition at operating frequency `fop` and depth-aware
    /// bias sizing, J — and the ref \[13\] headline: the PDP *per stage*
    /// (per bit position, 2 cells).
    ///
    /// # Panics
    ///
    /// Panics if `fop <= 0`.
    pub fn energy_per_op(&self, params: &SclParams, fop: f64) -> AdderEnergy {
        assert!(fop > 0.0, "operating frequency must be positive");
        let depth = self
            .netlist
            .logic_depth()
            .expect("adder netlist is acyclic")
            .max(1);
        let iss = params.iss_for_frequency(fop, depth);
        let power = self.netlist.gate_count() as f64 * params.gate_power(iss);
        let energy = power / fop;
        AdderEnergy {
            power,
            energy_per_op: energy,
            pdp_per_stage: energy / self.width as f64,
            logic_depth: depth,
        }
    }
}

/// Energy report for one adder operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdderEnergy {
    /// Total adder power, W.
    pub power: f64,
    /// Energy per addition, J.
    pub energy_per_op: f64,
    /// Energy per bit-stage per addition, J (ref \[13\] reports 5 fJ).
    pub pdp_per_stage: f64,
    /// Depth used for bias sizing.
    pub logic_depth: usize,
}

/// Streaming interface to the pipelined adder: feeds whole words and
/// applies the systolic input/output skew internally.
#[derive(Debug, Clone)]
pub struct PipelinedAdder {
    adder: RippleAdder,
}

impl PipelinedAdder {
    /// Builds an `width`-bit fully pipelined adder.
    ///
    /// # Panics
    ///
    /// As for [`RippleAdder::build`].
    pub fn build(width: usize) -> Self {
        PipelinedAdder {
            adder: RippleAdder::build(width, true),
        }
    }

    /// The underlying structure.
    pub fn adder(&self) -> &RippleAdder {
        &self.adder
    }

    /// Pipeline latency for a full word, cycles.
    pub fn latency(&self) -> usize {
        // Bit k's sum is correct k+1 cycles after bit 0 enters; the
        // word-skewed drive below needs width cycles of fill plus one.
        self.adder.width + 1
    }

    /// Streams a sequence of `(a, b)` word pairs through the pipeline
    /// cycle by cycle (with input skewing) and returns the sums in
    /// order.
    ///
    /// This exercises the *latched* netlist — the real Fig. 8 pipeline —
    /// rather than the combinational view.
    ///
    /// # Panics
    ///
    /// Panics if any operand exceeds the width.
    pub fn stream(&self, pairs: &[(u64, u64)]) -> Vec<u64> {
        let w = self.adder.width;
        let nl = &self.adder.netlist;
        let mut sim = ClockedSim::new(nl);
        let total = pairs.len() + self.latency();
        let mut sums = vec![0u64; pairs.len()];
        for cycle in 0..total {
            // Input skew: bit k of pair j is presented at cycle j + k.
            let mut pi = vec![false; 2 * w + 1];
            for k in 0..w {
                if let Some(j) = cycle.checked_sub(k) {
                    if let Some(&(a, b)) = pairs.get(j) {
                        pi[k] = (a >> k) & 1 == 1;
                        pi[w + k] = (b >> k) & 1 == 1;
                    }
                }
            }
            let settled = sim.step(&pi).expect("adder netlist is acyclic");
            // Output skew: sum bit k of pair j is valid at cycle
            // j + k + 1 (one latch after its inputs).
            for k in 0..w {
                if let Some(j) = cycle.checked_sub(k + 1) {
                    if j < sums.len() {
                        // The value pinned *before* this cycle's edge is
                        // the latched output from the previous cycle, so
                        // read after stepping: latched outputs hold the
                        // value captured at the end of cycle j+k.
                        sums[j] |= (settled.get(self.adder.sum[k]) as u64) << k;
                    }
                }
            }
        }
        // Mask to width (bits above are never set).
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_bit_exhaustive() {
        let adder = RippleAdder::build(4, false);
        for a in 0..16u64 {
            for b in 0..16u64 {
                for cin in [false, true] {
                    let (s, co) = adder.add(a, b, cin);
                    let full = a + b + cin as u64;
                    assert_eq!(s, full & 0xF, "{a}+{b}+{cin}");
                    assert_eq!(co, full > 0xF, "{a}+{b}+{cin} carry");
                }
            }
        }
    }

    #[test]
    fn thirty_two_bit_spot_checks() {
        let adder = RippleAdder::build(32, false);
        let cases = [
            (0u64, 0u64),
            (1, u32::MAX as u64),
            (0xDEAD_BEEF, 0x1234_5678),
            (u32::MAX as u64, u32::MAX as u64),
            (0x8000_0000, 0x8000_0000),
        ];
        for (a, b) in cases {
            let (s, co) = adder.add(a, b, false);
            let full = a + b;
            assert_eq!(s, full & 0xFFFF_FFFF, "{a:x}+{b:x}");
            assert_eq!(co, full > 0xFFFF_FFFF, "{a:x}+{b:x} carry");
        }
    }

    #[test]
    fn costs_two_cells_per_bit() {
        let adder = RippleAdder::build(32, true);
        assert_eq!(adder.netlist().gate_count(), 64);
        assert_eq!(adder.width(), 32);
        // Flattened: XOR3→2 + MAJ3→5 per bit.
        assert_eq!(adder.netlist().flattened_gate_count(), 32 * 7);
    }

    #[test]
    fn pipelining_collapses_depth_32_to_1() {
        let plain = RippleAdder::build(32, false);
        let piped = RippleAdder::build(32, true);
        assert_eq!(plain.netlist().logic_depth().unwrap(), 32);
        assert_eq!(piped.netlist().logic_depth().unwrap(), 1);
    }

    #[test]
    fn ref13_pdp_class() {
        // Ref [13]: 5 fJ/stage. Our cell calibration gives
        // 2·PDP_cell-class numbers per stage — same femtojoule decade.
        let adder = RippleAdder::build(32, true);
        let params = SclParams::default();
        let e = adder.energy_per_op(&params, 1e5);
        assert_eq!(e.logic_depth, 1);
        assert!(
            e.pdp_per_stage > 0.5e-15 && e.pdp_per_stage < 20e-15,
            "PDP/stage = {:.2e} J",
            e.pdp_per_stage
        );
        // Pipelining gain: the unpipelined adder pays 32× more energy
        // per op at iso-frequency.
        let plain = RippleAdder::build(32, false);
        let e0 = plain.energy_per_op(&params, 1e5);
        assert!((e0.energy_per_op / e.energy_per_op - 32.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_pipeline_matches_arithmetic() {
        let adder = PipelinedAdder::build(8);
        let pairs: Vec<(u64, u64)> = vec![
            (1, 2),
            (250, 10),
            (128, 128),
            (0, 0),
            (255, 255),
            (77, 33),
        ];
        let sums = adder.stream(&pairs);
        for ((a, b), s) in pairs.iter().zip(&sums) {
            assert_eq!(*s, (a + b) & 0xFF, "{a}+{b} -> {s}");
        }
    }

    #[test]
    fn streaming_throughput_one_word_per_cycle() {
        // 40 back-to-back words through a 16-bit pipeline: every result
        // lands despite the single-gate stage delay.
        let adder = PipelinedAdder::build(16);
        let pairs: Vec<(u64, u64)> = (0..40u64).map(|k| (k * 997 % 65536, k * 131 % 65536)).collect();
        let sums = adder.stream(&pairs);
        for ((a, b), s) in pairs.iter().zip(&sums) {
            assert_eq!(*s, (a + b) & 0xFFFF);
        }
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = RippleAdder::build(0, false);
    }
}
