//! Seeded input generation: every workload input is a pure function of
//! the `--seed` argument, so two runs with one seed send identical work.

use std::collections::HashSet;

use islaris_asm::grammar::{EncodingClass, ARM_CLASSES, RISCV_CLASSES};

/// SplitMix64 (Steele et al.): the whole generator is one 64-bit state.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for one named input stream of one seed, so adding a
    /// stream never shifts the values another stream draws.
    #[must_use]
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        let mut mixer = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        SplitMix64(mixer.next_u64())
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A uniform real in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The two ISAs the daemon and the Isla sweep exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Armv8-A.
    Arm,
    /// RV64I.
    Riscv,
}

impl Isa {
    /// The daemon's `arch` field.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            Isa::Arm => "arm",
            Isa::Riscv => "riscv",
        }
    }

    /// The model architecture.
    #[must_use]
    pub fn arch(self) -> islaris_models::Arch {
        match self {
            Isa::Arm => islaris_models::ARM,
            Isa::Riscv => islaris_models::RISCV,
        }
    }

    fn classes(self) -> &'static [EncodingClass] {
        match self {
            Isa::Arm => ARM_CLASSES,
            Isa::Riscv => RISCV_CLASSES,
        }
    }
}

/// One grammar-sampled opcode and the decoder class it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampled {
    /// Its ISA.
    pub isa: Isa,
    /// The 32-bit encoding.
    pub opcode: u32,
    /// The decoder arm it routes to (no earlier class shadows it).
    pub class: &'static str,
}

/// Draws distinct grammar-sampled opcodes, alternating Arm and RISC-V.
/// A class is drawn uniformly, its free bits filled at random; a draw an
/// earlier decoder arm would shadow, or one already taken, is redrawn.
pub struct OpcodeGen {
    rng: SplitMix64,
    taken: HashSet<(Isa, u32)>,
    next_isa: Isa,
}

impl OpcodeGen {
    /// A generator over one seeded stream.
    #[must_use]
    pub fn new(rng: SplitMix64) -> OpcodeGen {
        OpcodeGen {
            rng,
            taken: HashSet::new(),
            next_isa: Isa::Arm,
        }
    }

    /// Marks `(isa, opcode)` as used so no later draw repeats it.
    pub fn reserve(&mut self, isa: Isa, opcode: u32) -> bool {
        self.taken.insert((isa, opcode))
    }

    /// The next distinct opcode of the next ISA in turn.
    pub fn next(&mut self) -> Sampled {
        let isa = self.next_isa;
        self.next_isa = match isa {
            Isa::Arm => Isa::Riscv,
            Isa::Riscv => Isa::Arm,
        };
        self.next_of(isa)
    }

    /// The next distinct opcode of `isa`.
    pub fn next_of(&mut self, isa: Isa) -> Sampled {
        let classes = isa.classes();
        loop {
            let i = self.rng.below(classes.len());
            let class = &classes[i];
            let opcode = class.sample(self.rng.next_u32());
            let shadowed = classes[..i].iter().any(|c| c.matches(opcode));
            if !shadowed && self.reserve(isa, opcode) {
                return Sampled {
                    isa,
                    opcode,
                    class: class.name,
                };
            }
        }
    }
}

/// The RV64I `addi rd, rs1, imm` encoding (`imm` is 12 bits).
#[must_use]
pub fn addi(rd: u32, rs1: u32, imm: u32) -> u32 {
    ((imm & 0xfff) << 20) | ((rs1 & 31) << 15) | ((rd & 31) << 7) | 0x13
}

/// The post-state spec `x<rd> = x<rs1> + sext(imm)` that `addi rd, rs1,
/// imm` satisfies, in the daemon's `check` s-expression syntax.
#[must_use]
pub fn addi_spec(rd: u32, rs1: u32, imm: u32) -> String {
    let sext = ((u64::from(imm & 0xfff) << 52) as i64 >> 52) as u64;
    format!("(= (final x{rd}) (bvadd (init x{rs1}) #x{sext:016x}))")
}

/// One `check` job: an `addi` opcode, a spec about it, and the verdict
/// the spec has by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckJob {
    /// The encoded `addi`.
    pub opcode: u32,
    /// The spec sent to the daemon.
    pub spec: String,
    /// `true` iff the spec carries the instruction's own immediate.
    pub holds: bool,
}

/// A `check` job on a fresh `addi` (rd, rs1 in 1..=31); with `holds`
/// false the spec's immediate is off by a nonzero amount, so the answer
/// must be `refuted`.
pub fn check_job(rng: &mut SplitMix64, ops: &mut OpcodeGen, holds: bool) -> CheckJob {
    loop {
        let rd = 1 + rng.below(31) as u32;
        let rs1 = 1 + rng.below(31) as u32;
        let imm = rng.next_u32() & 0xfff;
        let opcode = addi(rd, rs1, imm);
        if !ops.reserve(Isa::Riscv, opcode) {
            continue;
        }
        let spec_imm = if holds {
            imm
        } else {
            (imm + 1 + rng.below(4095) as u32) & 0xfff
        };
        return CheckJob {
            opcode,
            spec: addi_spec(rd, rs1, spec_imm),
            holds,
        };
    }
}

/// One `serve_cold` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColdReq {
    /// Trace a grammar-sampled opcode.
    Trace(Sampled),
    /// Check a spec against a fresh `addi`.
    Check(CheckJob),
}

/// The `serve_cold` request list: `count` distinct requests in seeded
/// order, exactly one in four a `check` (one in four of those with a
/// wrong immediate) and the rest `trace`s alternating Arm and RISC-V.
/// The mix is fixed rather than drawn per request, so a seed changes
/// which opcodes are sent and in what order, never how much of each kind.
#[must_use]
pub fn cold_requests(seed: u64, count: usize) -> Vec<ColdReq> {
    let mut rng = SplitMix64::stream(seed, 31);
    let mut ops = OpcodeGen::new(SplitMix64::stream(seed, 32));
    let checks = count / 4;
    let mut list: Vec<ColdReq> = (0..count)
        .map(|i| {
            if i < checks {
                ColdReq::Check(check_job(&mut rng, &mut ops, i >= checks / 4))
            } else {
                ColdReq::Trace(ops.next())
            }
        })
        .collect();
    rng.shuffle(&mut list);
    list
}

/// Open-loop arrival offsets (seconds from the window start) for `count`
/// requests spread over `seconds`: a Poisson process conditioned on its
/// count, drawn as normalised exponential gaps, so the mean rate is
/// exactly `count / seconds` whatever the seed.
pub fn poisson_schedule(rng: &mut SplitMix64, count: usize, seconds: f64) -> Vec<f64> {
    let gaps: Vec<f64> = (0..=count).map(|_| -rng.unit().ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut t = 0.0;
    gaps[..count]
        .iter()
        .map(|g| {
            t += g;
            t * seconds / total
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opcodes(seed: u64, n: usize) -> Vec<Sampled> {
        let mut g = OpcodeGen::new(SplitMix64::stream(seed, 1));
        (0..n).map(|_| g.next()).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(opcodes(1, 500), opcodes(1, 500));
        assert_ne!(opcodes(1, 500), opcodes(2, 500));
        let sched = |seed| poisson_schedule(&mut SplitMix64::stream(seed, 2), 500, 20.0);
        assert_eq!(sched(1), sched(1));
        assert_ne!(sched(1), sched(2));
        let order = |seed| {
            let mut v: Vec<usize> = (0..16).collect();
            SplitMix64::stream(seed, 3).shuffle(&mut v);
            v
        };
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
    }

    #[test]
    fn opcodes_are_distinct_alternate_isas_and_reach_their_class() {
        let ops = opcodes(7, 4000);
        let distinct: HashSet<(Isa, u32)> = ops.iter().map(|s| (s.isa, s.opcode)).collect();
        assert_eq!(distinct.len(), ops.len());
        for (i, s) in ops.iter().enumerate() {
            assert_eq!(s.isa, if i % 2 == 0 { Isa::Arm } else { Isa::Riscv });
            assert_eq!(islaris_asm::classify(s.isa.classes(), s.opcode), s.class);
        }
    }

    #[test]
    fn cold_lists_are_distinct_seeded_and_keep_their_mix() {
        assert_eq!(cold_requests(4, 375), cold_requests(4, 375));
        assert_ne!(cold_requests(4, 375), cold_requests(5, 375));
        for seed in 1..=3 {
            let list = cold_requests(seed, 375);
            let mut seen = HashSet::new();
            let mut mix = [0; 4]; // Arm traces, RISC-V traces, true checks, false checks
            for req in &list {
                let (key, kind) = match req {
                    ColdReq::Trace(s) => ((s.isa, s.opcode), usize::from(s.isa == Isa::Riscv)),
                    ColdReq::Check(job) => ((Isa::Riscv, job.opcode), 2 + usize::from(!job.holds)),
                };
                mix[kind] += 1;
                assert!(seen.insert(key), "{key:?} sent twice");
            }
            assert_eq!(mix, [141, 141, 70, 23]);
        }
    }

    #[test]
    fn poisson_schedule_keeps_its_rate() {
        for seed in 1..=5 {
            let sched = poisson_schedule(&mut SplitMix64::stream(seed, 2), 1000, 40.0);
            assert!(sched.windows(2).all(|w| w[0] <= w[1]));
            let last = *sched.last().expect("nonempty");
            assert!(last < 40.0 && sched[0] > 0.0);
            let rate = sched.len() as f64 / last;
            assert!((rate - 25.0).abs() / 25.0 < 0.05, "rate {rate}");
            // Exponential gaps: the median gap is ln 2 of the mean.
            let mut gaps: Vec<f64> = sched.windows(2).map(|w| w[1] - w[0]).collect();
            gaps.sort_by(f64::total_cmp);
            let ratio = gaps[gaps.len() / 2] / 0.04;
            assert!((ratio - std::f64::consts::LN_2).abs() < 0.15, "{ratio}");
        }
    }

    #[test]
    fn addi_encoder_and_spec_match_the_hand_checked_pair() {
        // addi x5, x6, -3
        assert_eq!(addi(5, 6, 0xffd), 0xffd3_0293);
        assert_eq!(
            addi_spec(5, 6, 0xffd),
            "(= (final x5) (bvadd (init x6) #xfffffffffffffffd))"
        );
        assert_eq!(
            addi_spec(1, 2, 0x7ff),
            "(= (final x1) (bvadd (init x2) #x00000000000007ff))"
        );
    }

    #[test]
    fn wrong_specs_never_carry_the_true_immediate() {
        let mut rng = SplitMix64::stream(9, 4);
        let mut g = OpcodeGen::new(SplitMix64::stream(9, 5));
        for _ in 0..500 {
            let job = check_job(&mut rng, &mut g, false);
            let rd = (job.opcode >> 7) & 31;
            let rs1 = (job.opcode >> 15) & 31;
            let imm = job.opcode >> 20;
            assert_ne!(job.spec, addi_spec(rd, rs1, imm));
            assert!((1..32).contains(&rd) && (1..32).contains(&rs1));
        }
    }
}
