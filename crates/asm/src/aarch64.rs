//! AArch64 encoder for the case-study instruction subset.
//!
//! Encodings match the Arm ARM (and the mini-Sail model's decode): the
//! round-trip property "assemble, then run through the model" is tested by
//! the translation validation in `islaris-difftest`.

use crate::ir::{cond_name, AsmError};

/// An AArch64 general-purpose register (`x0`–`x30`), the zero register
/// (`xzr` = 31 in operand position), or `sp` (also 31, in base/dest
/// position of `add`/`sub`/loads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XReg(pub u8);

impl XReg {
    /// The zero register.
    pub const XZR: XReg = XReg(31);
    /// The stack pointer (valid where the encoding reads 31 as SP).
    pub const SP: XReg = XReg(31);

    fn idx(self) -> u32 {
        assert!(self.0 <= 31, "register x{} out of range", self.0);
        u32::from(self.0)
    }
}

/// Condition codes for `b.cond`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cond {
    Eq = 0,
    Ne = 1,
    Cs = 2,
    Cc = 3,
    Mi = 4,
    Pl = 5,
    Vs = 6,
    Vc = 7,
    Hi = 8,
    Ls = 9,
    Ge = 10,
    Lt = 11,
    Gt = 12,
    Le = 13,
    Al = 14,
}

/// Shift kinds for shifted-register operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// Logical shift left.
    Lsl = 0,
    /// Logical shift right.
    Lsr = 1,
    /// Arithmetic shift right.
    Asr = 2,
}

/// System registers known to the assembler (and the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs, non_camel_case_types)]
pub enum SysReg {
    SCTLR_EL1,
    SCTLR_EL2,
    HCR_EL2,
    VBAR_EL1,
    VBAR_EL2,
    SPSR_EL1,
    SPSR_EL2,
    ELR_EL1,
    ELR_EL2,
    ESR_EL1,
    ESR_EL2,
    FAR_EL1,
    FAR_EL2,
    TPIDR_EL0,
    TPIDR_EL1,
    TPIDR_EL2,
    TPIDRRO_EL0,
    TTBR0_EL1,
    TTBR1_EL1,
    TTBR0_EL2,
    TCR_EL1,
    TCR_EL2,
    VTCR_EL2,
    VTTBR_EL2,
    MAIR_EL1,
    MAIR_EL2,
    AMAIR_EL1,
    AMAIR_EL2,
    CPACR_EL1,
    CPTR_EL2,
    HSTR_EL2,
    MDCR_EL2,
    MDSCR_EL1,
    CNTHCTL_EL2,
    CNTVOFF_EL2,
    VPIDR_EL2,
    VMPIDR_EL2,
    ACTLR_EL2,
    CONTEXTIDR_EL1,
    CSSELR_EL1,
    PAR_EL1,
    SP_EL0,
    SP_EL1,
}

impl SysReg {
    /// The 15-bit `(o0-2) @ op1 @ CRn @ CRm @ op2` key of the MSR/MRS
    /// encoding (bits 19:5), mirroring `SysRegRead` in the model.
    #[must_use]
    pub fn key(self) -> u32 {
        let (o0, op1, crn, crm, op2): (u32, u32, u32, u32, u32) = match self {
            SysReg::SCTLR_EL1 => (3, 0, 1, 0, 0),
            SysReg::SCTLR_EL2 => (3, 4, 1, 0, 0),
            SysReg::HCR_EL2 => (3, 4, 1, 1, 0),
            SysReg::VBAR_EL1 => (3, 0, 12, 0, 0),
            SysReg::VBAR_EL2 => (3, 4, 12, 0, 0),
            SysReg::SPSR_EL1 => (3, 0, 4, 0, 0),
            SysReg::SPSR_EL2 => (3, 4, 4, 0, 0),
            SysReg::ELR_EL1 => (3, 0, 4, 0, 1),
            SysReg::ELR_EL2 => (3, 4, 4, 0, 1),
            SysReg::ESR_EL1 => (3, 0, 5, 2, 0),
            SysReg::ESR_EL2 => (3, 4, 5, 2, 0),
            SysReg::FAR_EL1 => (3, 0, 6, 0, 0),
            SysReg::FAR_EL2 => (3, 4, 6, 0, 0),
            SysReg::TPIDR_EL0 => (3, 3, 13, 0, 2),
            SysReg::TPIDR_EL1 => (3, 0, 13, 0, 4),
            SysReg::TPIDR_EL2 => (3, 4, 13, 0, 2),
            SysReg::TPIDRRO_EL0 => (3, 3, 13, 0, 3),
            SysReg::TTBR0_EL1 => (3, 0, 2, 0, 0),
            SysReg::TTBR1_EL1 => (3, 0, 2, 0, 1),
            SysReg::TTBR0_EL2 => (3, 4, 2, 0, 0),
            SysReg::TCR_EL1 => (3, 0, 2, 0, 2),
            SysReg::TCR_EL2 => (3, 4, 2, 0, 2),
            SysReg::VTCR_EL2 => (3, 4, 2, 1, 2),
            SysReg::VTTBR_EL2 => (3, 4, 2, 1, 0),
            SysReg::MAIR_EL1 => (3, 0, 10, 2, 0),
            SysReg::MAIR_EL2 => (3, 4, 10, 2, 0),
            SysReg::AMAIR_EL1 => (3, 0, 10, 3, 0),
            SysReg::AMAIR_EL2 => (3, 4, 10, 3, 0),
            SysReg::CPACR_EL1 => (3, 0, 1, 0, 2),
            SysReg::CPTR_EL2 => (3, 4, 1, 1, 2),
            SysReg::HSTR_EL2 => (3, 4, 1, 1, 3),
            SysReg::MDCR_EL2 => (3, 4, 1, 1, 1),
            SysReg::MDSCR_EL1 => (2, 0, 0, 2, 2),
            SysReg::CNTHCTL_EL2 => (3, 4, 14, 1, 0),
            SysReg::CNTVOFF_EL2 => (3, 4, 14, 0, 3),
            SysReg::VPIDR_EL2 => (3, 4, 0, 0, 0),
            SysReg::VMPIDR_EL2 => (3, 4, 0, 0, 5),
            SysReg::ACTLR_EL2 => (3, 4, 1, 0, 1),
            SysReg::CONTEXTIDR_EL1 => (3, 0, 13, 0, 1),
            SysReg::CSSELR_EL1 => (3, 2, 0, 0, 0),
            SysReg::PAR_EL1 => (3, 0, 7, 4, 0),
            SysReg::SP_EL0 => (3, 0, 4, 1, 0),
            SysReg::SP_EL1 => (3, 4, 4, 1, 0),
        };
        ((o0 - 2) << 14) | (op1 << 11) | (crn << 7) | (crm << 3) | op2
    }

    /// All system registers (used by the pKVM case study's save/restore
    /// sweep and by coverage tests).
    pub const ALL: &'static [SysReg] = &[
        SysReg::SCTLR_EL1,
        SysReg::SCTLR_EL2,
        SysReg::HCR_EL2,
        SysReg::VBAR_EL1,
        SysReg::VBAR_EL2,
        SysReg::SPSR_EL1,
        SysReg::SPSR_EL2,
        SysReg::ELR_EL1,
        SysReg::ELR_EL2,
        SysReg::ESR_EL1,
        SysReg::ESR_EL2,
        SysReg::FAR_EL1,
        SysReg::FAR_EL2,
        SysReg::TPIDR_EL0,
        SysReg::TPIDR_EL1,
        SysReg::TPIDR_EL2,
        SysReg::TPIDRRO_EL0,
        SysReg::TTBR0_EL1,
        SysReg::TTBR1_EL1,
        SysReg::TTBR0_EL2,
        SysReg::TCR_EL1,
        SysReg::TCR_EL2,
        SysReg::VTCR_EL2,
        SysReg::VTTBR_EL2,
        SysReg::MAIR_EL1,
        SysReg::MAIR_EL2,
        SysReg::AMAIR_EL1,
        SysReg::AMAIR_EL2,
        SysReg::CPACR_EL1,
        SysReg::CPTR_EL2,
        SysReg::HSTR_EL2,
        SysReg::MDCR_EL2,
        SysReg::MDSCR_EL1,
        SysReg::CNTHCTL_EL2,
        SysReg::CNTVOFF_EL2,
        SysReg::VPIDR_EL2,
        SysReg::VMPIDR_EL2,
        SysReg::ACTLR_EL2,
        SysReg::CONTEXTIDR_EL1,
        SysReg::CSSELR_EL1,
        SysReg::PAR_EL1,
        SysReg::SP_EL0,
        SysReg::SP_EL1,
    ];

    /// The register's name as used in ITL traces.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SysReg::SCTLR_EL1 => "SCTLR_EL1",
            SysReg::SCTLR_EL2 => "SCTLR_EL2",
            SysReg::HCR_EL2 => "HCR_EL2",
            SysReg::VBAR_EL1 => "VBAR_EL1",
            SysReg::VBAR_EL2 => "VBAR_EL2",
            SysReg::SPSR_EL1 => "SPSR_EL1",
            SysReg::SPSR_EL2 => "SPSR_EL2",
            SysReg::ELR_EL1 => "ELR_EL1",
            SysReg::ELR_EL2 => "ELR_EL2",
            SysReg::ESR_EL1 => "ESR_EL1",
            SysReg::ESR_EL2 => "ESR_EL2",
            SysReg::FAR_EL1 => "FAR_EL1",
            SysReg::FAR_EL2 => "FAR_EL2",
            SysReg::TPIDR_EL0 => "TPIDR_EL0",
            SysReg::TPIDR_EL1 => "TPIDR_EL1",
            SysReg::TPIDR_EL2 => "TPIDR_EL2",
            SysReg::TPIDRRO_EL0 => "TPIDRRO_EL0",
            SysReg::TTBR0_EL1 => "TTBR0_EL1",
            SysReg::TTBR1_EL1 => "TTBR1_EL1",
            SysReg::TTBR0_EL2 => "TTBR0_EL2",
            SysReg::TCR_EL1 => "TCR_EL1",
            SysReg::TCR_EL2 => "TCR_EL2",
            SysReg::VTCR_EL2 => "VTCR_EL2",
            SysReg::VTTBR_EL2 => "VTTBR_EL2",
            SysReg::MAIR_EL1 => "MAIR_EL1",
            SysReg::MAIR_EL2 => "MAIR_EL2",
            SysReg::AMAIR_EL1 => "AMAIR_EL1",
            SysReg::AMAIR_EL2 => "AMAIR_EL2",
            SysReg::CPACR_EL1 => "CPACR_EL1",
            SysReg::CPTR_EL2 => "CPTR_EL2",
            SysReg::HSTR_EL2 => "HSTR_EL2",
            SysReg::MDCR_EL2 => "MDCR_EL2",
            SysReg::MDSCR_EL1 => "MDSCR_EL1",
            SysReg::CNTHCTL_EL2 => "CNTHCTL_EL2",
            SysReg::CNTVOFF_EL2 => "CNTVOFF_EL2",
            SysReg::VPIDR_EL2 => "VPIDR_EL2",
            SysReg::VMPIDR_EL2 => "VMPIDR_EL2",
            SysReg::ACTLR_EL2 => "ACTLR_EL2",
            SysReg::CONTEXTIDR_EL1 => "CONTEXTIDR_EL1",
            SysReg::CSSELR_EL1 => "CSSELR_EL1",
            SysReg::PAR_EL1 => "PAR_EL1",
            SysReg::SP_EL0 => "SP_EL0",
            SysReg::SP_EL1 => "SP_EL1",
        }
    }
}

fn check_imm12(imm: u32) -> Result<u32, AsmError> {
    if imm < (1 << 12) {
        Ok(imm)
    } else {
        Err(AsmError::ImmediateOutOfRange {
            what: "imm12",
            value: i64::from(imm),
        })
    }
}

fn check_branch_offset(bytes: i64, bits: u32, what: &'static str) -> Result<u32, AsmError> {
    if bytes % 4 != 0 {
        return Err(AsmError::MisalignedOffset { what, value: bytes });
    }
    let words = bytes / 4;
    let limit = 1i64 << (bits - 1);
    if words < -limit || words >= limit {
        return Err(AsmError::ImmediateOutOfRange { what, value: bytes });
    }
    Ok((words as u32) & ((1 << bits) - 1))
}

/// `add xd, xn, #imm` (64-bit, SP-capable when d or n is 31).
pub fn add_imm(d: XReg, n: XReg, imm: u32) -> Result<u32, AsmError> {
    Ok(0x9100_0000 | check_imm12(imm)? << 10 | n.idx() << 5 | d.idx())
}

/// `sub xd, xn, #imm`.
pub fn sub_imm(d: XReg, n: XReg, imm: u32) -> Result<u32, AsmError> {
    Ok(0xD100_0000 | check_imm12(imm)? << 10 | n.idx() << 5 | d.idx())
}

/// `subs xzr, xn, #imm` = `cmp xn, #imm`.
pub fn cmp_imm(n: XReg, imm: u32) -> Result<u32, AsmError> {
    Ok(0xF100_0000 | check_imm12(imm)? << 10 | n.idx() << 5 | 31)
}

/// `add xd, xn, xm` (shifted register, LSL #0).
#[must_use]
pub fn add_reg(d: XReg, n: XReg, m: XReg) -> u32 {
    0x8B00_0000 | m.idx() << 16 | n.idx() << 5 | d.idx()
}

/// `add xd, xn, xm, <shift> #amount`.
pub fn add_reg_shifted(
    d: XReg,
    n: XReg,
    m: XReg,
    shift: Shift,
    amount: u8,
) -> Result<u32, AsmError> {
    if amount > 63 {
        return Err(AsmError::ImmediateOutOfRange {
            what: "shift amount",
            value: i64::from(amount),
        });
    }
    Ok(0x8B00_0000
        | (shift as u32) << 22
        | m.idx() << 16
        | u32::from(amount) << 10
        | n.idx() << 5
        | d.idx())
}

/// `sub xd, xn, xm`.
#[must_use]
pub fn sub_reg(d: XReg, n: XReg, m: XReg) -> u32 {
    0xCB00_0000 | m.idx() << 16 | n.idx() << 5 | d.idx()
}

/// `subs xzr, xn, xm` = `cmp xn, xm`.
#[must_use]
pub fn cmp_reg(n: XReg, m: XReg) -> u32 {
    0xEB00_0000 | m.idx() << 16 | n.idx() << 5 | 31
}

/// `and xd, xn, xm`.
#[must_use]
pub fn and_reg(d: XReg, n: XReg, m: XReg) -> u32 {
    0x8A00_0000 | m.idx() << 16 | n.idx() << 5 | d.idx()
}

/// `orr xd, xzr, xm` = `mov xd, xm`.
#[must_use]
pub fn mov_reg(d: XReg, m: XReg) -> u32 {
    0xAA00_03E0 | m.idx() << 16 | d.idx()
}

/// `movz xd, #imm16, lsl #(hw*16)`.
pub fn movz(d: XReg, imm16: u16, hw: u8) -> Result<u32, AsmError> {
    if hw > 3 {
        return Err(AsmError::ImmediateOutOfRange {
            what: "movz hw",
            value: i64::from(hw),
        });
    }
    Ok(0xD280_0000 | u32::from(hw) << 21 | u32::from(imm16) << 5 | d.idx())
}

/// `movk xd, #imm16, lsl #(hw*16)`.
pub fn movk(d: XReg, imm16: u16, hw: u8) -> Result<u32, AsmError> {
    if hw > 3 {
        return Err(AsmError::ImmediateOutOfRange {
            what: "movk hw",
            value: i64::from(hw),
        });
    }
    Ok(0xF280_0000 | u32::from(hw) << 21 | u32::from(imm16) << 5 | d.idx())
}

/// `movn xd, #imm16, lsl #(hw*16)`.
pub fn movn(d: XReg, imm16: u16, hw: u8) -> Result<u32, AsmError> {
    if hw > 3 {
        return Err(AsmError::ImmediateOutOfRange {
            what: "movn hw",
            value: i64::from(hw),
        });
    }
    Ok(0x9280_0000 | u32::from(hw) << 21 | u32::from(imm16) << 5 | d.idx())
}

/// `mov xd, #value` as a movz/movk sequence (1–4 instructions).
#[must_use]
pub fn mov_imm64(d: XReg, value: u64) -> Vec<u32> {
    let mut out = Vec::new();
    let mut first = true;
    for hw in 0..4u8 {
        let part = ((value >> (16 * hw)) & 0xffff) as u16;
        if part != 0 {
            let op = if first {
                movz(d, part, hw).expect("hw in range")
            } else {
                movk(d, part, hw).expect("hw in range")
            };
            out.push(op);
            first = false;
        }
    }
    if out.is_empty() {
        out.push(movz(d, 0, 0).expect("hw in range"));
    }
    out
}

/// `lsr xd, xn, #shift` (UBFM alias).
pub fn lsr_imm(d: XReg, n: XReg, shift: u8) -> Result<u32, AsmError> {
    if shift > 63 {
        return Err(AsmError::ImmediateOutOfRange {
            what: "lsr shift",
            value: i64::from(shift),
        });
    }
    Ok(0xD340_FC00 | u32::from(shift) << 16 | n.idx() << 5 | d.idx())
}

/// `lsl xd, xn, #shift` (UBFM alias), `1 <= shift <= 63`.
pub fn lsl_imm(d: XReg, n: XReg, shift: u8) -> Result<u32, AsmError> {
    if shift == 0 || shift > 63 {
        return Err(AsmError::ImmediateOutOfRange {
            what: "lsl shift",
            value: i64::from(shift),
        });
    }
    let immr = (64 - u32::from(shift)) % 64;
    let imms = 63 - u32::from(shift);
    Ok(0xD340_0000 | immr << 16 | imms << 10 | n.idx() << 5 | d.idx())
}

/// `ldrb wt, [xn, xm]` (register offset, LSL #0).
#[must_use]
pub fn ldrb_reg(t: XReg, n: XReg, m: XReg) -> u32 {
    0x3860_6800 | m.idx() << 16 | n.idx() << 5 | t.idx()
}

/// `strb wt, [xn, xm]`.
#[must_use]
pub fn strb_reg(t: XReg, n: XReg, m: XReg) -> u32 {
    0x3820_6800 | m.idx() << 16 | n.idx() << 5 | t.idx()
}

/// `ldr xt, [xn, #imm]` (imm must be a multiple of 8, `< 32768`).
pub fn ldr_imm(t: XReg, n: XReg, imm: u32) -> Result<u32, AsmError> {
    if imm % 8 != 0 || imm / 8 >= (1 << 12) {
        return Err(AsmError::ImmediateOutOfRange {
            what: "ldr imm",
            value: i64::from(imm),
        });
    }
    Ok(0xF940_0000 | (imm / 8) << 10 | n.idx() << 5 | t.idx())
}

/// `str xt, [xn, #imm]`.
pub fn str_imm(t: XReg, n: XReg, imm: u32) -> Result<u32, AsmError> {
    if imm % 8 != 0 || imm / 8 >= (1 << 12) {
        return Err(AsmError::ImmediateOutOfRange {
            what: "str imm",
            value: i64::from(imm),
        });
    }
    Ok(0xF900_0000 | (imm / 8) << 10 | n.idx() << 5 | t.idx())
}

/// `ldr wt, [xn, #imm]` (32-bit; imm multiple of 4).
pub fn ldr32_imm(t: XReg, n: XReg, imm: u32) -> Result<u32, AsmError> {
    if imm % 4 != 0 || imm / 4 >= (1 << 12) {
        return Err(AsmError::ImmediateOutOfRange {
            what: "ldr32 imm",
            value: i64::from(imm),
        });
    }
    Ok(0xB940_0000 | (imm / 4) << 10 | n.idx() << 5 | t.idx())
}

/// `str wt, [xn, #imm]` (32-bit).
pub fn str32_imm(t: XReg, n: XReg, imm: u32) -> Result<u32, AsmError> {
    if imm % 4 != 0 || imm / 4 >= (1 << 12) {
        return Err(AsmError::ImmediateOutOfRange {
            what: "str32 imm",
            value: i64::from(imm),
        });
    }
    Ok(0xB900_0000 | (imm / 4) << 10 | n.idx() << 5 | t.idx())
}

/// `ldrb wt, [xn, #imm]`.
pub fn ldrb_imm(t: XReg, n: XReg, imm: u32) -> Result<u32, AsmError> {
    Ok(0x3940_0000 | check_imm12(imm)? << 10 | n.idx() << 5 | t.idx())
}

/// `strb wt, [xn, #imm]`.
pub fn strb_imm(t: XReg, n: XReg, imm: u32) -> Result<u32, AsmError> {
    Ok(0x3900_0000 | check_imm12(imm)? << 10 | n.idx() << 5 | t.idx())
}

/// `cbz xt, #offset` (byte offset from this instruction).
pub fn cbz(t: XReg, offset: i64) -> Result<u32, AsmError> {
    Ok(0xB400_0000 | check_branch_offset(offset, 19, "cbz offset")? << 5 | t.idx())
}

/// `cbnz xt, #offset`.
pub fn cbnz(t: XReg, offset: i64) -> Result<u32, AsmError> {
    Ok(0xB500_0000 | check_branch_offset(offset, 19, "cbnz offset")? << 5 | t.idx())
}

/// `b.cond #offset`.
pub fn b_cond(cond: Cond, offset: i64) -> Result<u32, AsmError> {
    Ok(0x5400_0000 | check_branch_offset(offset, 19, "b.cond offset")? << 5 | cond as u32)
}

/// `b #offset`.
pub fn b(offset: i64) -> Result<u32, AsmError> {
    Ok(0x1400_0000 | check_branch_offset(offset, 26, "b offset")?)
}

/// `bl #offset`.
pub fn bl(offset: i64) -> Result<u32, AsmError> {
    Ok(0x9400_0000 | check_branch_offset(offset, 26, "bl offset")?)
}

/// `br xn`.
#[must_use]
pub fn br(n: XReg) -> u32 {
    0xD61F_0000 | n.idx() << 5
}

/// `blr xn`.
#[must_use]
pub fn blr(n: XReg) -> u32 {
    0xD63F_0000 | n.idx() << 5
}

/// `ret` (via x30) or `ret xn`.
#[must_use]
pub fn ret(n: XReg) -> u32 {
    0xD65F_0000 | n.idx() << 5
}

/// `msr <sysreg>, xt`.
#[must_use]
pub fn msr(reg: SysReg, t: XReg) -> u32 {
    0xD510_0000 | reg.key() << 5 | t.idx()
}

/// `mrs xt, <sysreg>`.
#[must_use]
pub fn mrs(t: XReg, reg: SysReg) -> u32 {
    0xD530_0000 | reg.key() << 5 | t.idx()
}

/// `hvc #imm16`.
#[must_use]
pub fn hvc(imm16: u16) -> u32 {
    0xD400_0002 | u32::from(imm16) << 5
}

/// `eret`.
#[must_use]
pub fn eret() -> u32 {
    0xD69F_03E0
}

/// `rbit xd, xn`.
#[must_use]
pub fn rbit(d: XReg, n: XReg) -> u32 {
    0xDAC0_0000 | n.idx() << 5 | d.idx()
}

/// `nop`.
#[must_use]
pub fn nop() -> u32 {
    0xD503_201F
}

/// Renders a `b.cond` mnemonic for listings.
#[must_use]
pub fn cond_mnemonic(c: Cond) -> &'static str {
    cond_name(c as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_encodings() {
        // The paper's Fig. 3 opcode.
        assert_eq!(add_imm(XReg::SP, XReg::SP, 0x40).unwrap(), 0x9101_03FF);
        // hvc #0 (Fig. 9).
        assert_eq!(hvc(0), 0xD400_0002);
        assert_eq!(eret(), 0xD69F_03E0);
        assert_eq!(nop(), 0xD503_201F);
        // GNU as: ret = 0xD65F03C0.
        assert_eq!(ret(XReg(30)), 0xD65F_03C0);
        // cmp x2, x3 = 0xEB03005F.
        assert_eq!(cmp_reg(XReg(2), XReg(3)), 0xEB03_005F);
        // ldrb w4, [x1, x3] = 0x38636824.
        assert_eq!(ldrb_reg(XReg(4), XReg(1), XReg(3)), 0x3863_6824);
        // strb w4, [x0, x3] = 0x38236804.
        assert_eq!(strb_reg(XReg(4), XReg(0), XReg(3)), 0x3823_6804);
        // rbit x0, x1 = 0xDAC00020.
        assert_eq!(rbit(XReg(0), XReg(1)), 0xDAC0_0020);
        // mov x3, #0 = movz x3, #0 = 0xD2800003.
        assert_eq!(movz(XReg(3), 0, 0).unwrap(), 0xD280_0003);
    }

    #[test]
    fn branch_offsets_encode_and_reject() {
        // b . (self-loop) = 0x14000000.
        assert_eq!(b(0).unwrap(), 0x1400_0000);
        // bne .L3 backwards by 16 bytes.
        let op = b_cond(Cond::Ne, -16).unwrap();
        assert_eq!(op & 0xFF00_0000, 0x5400_0000);
        assert_eq!(op & 0xF, 1);
        assert!(b_cond(Cond::Eq, 2).is_err(), "misaligned");
        assert!(cbz(XReg(0), 1 << 30).is_err(), "out of range");
    }

    #[test]
    fn mov_imm64_composes() {
        assert_eq!(mov_imm64(XReg(0), 0), vec![movz(XReg(0), 0, 0).unwrap()]);
        assert_eq!(mov_imm64(XReg(0), 0xa0000).len(), 1); // single movz hw=1? 0xa0000 = 0xa << 16
        assert_eq!(mov_imm64(XReg(0), 0x1234_5678_9abc_def0).len(), 4);
    }

    #[test]
    fn sysreg_keys_are_unique() {
        let mut keys: Vec<u32> = SysReg::ALL.iter().map(|r| r.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), SysReg::ALL.len());
        // Spot checks against the model's constants.
        assert_eq!(SysReg::VBAR_EL2.key(), 0b110011000000000);
        assert_eq!(SysReg::HCR_EL2.key(), 0b110000010001000);
        assert_eq!(SysReg::SCTLR_EL1.key(), 0b100000010000000);
        assert_eq!(SysReg::MDSCR_EL1.key(), 0b000000000010010);
    }

    #[test]
    fn msr_mrs_encode() {
        // msr vbar_el2, x0 = 0xD51EC000? Check L and key placement.
        let op = msr(SysReg::VBAR_EL2, XReg(0));
        assert_eq!(op >> 22, 0b1101010100);
        assert_eq!((op >> 21) & 1, 0, "MSR writes");
        assert_eq!((op >> 20) & 1, 1);
        assert_eq!((op >> 5) & 0x7fff, SysReg::VBAR_EL2.key());
        let op = mrs(XReg(3), SysReg::ESR_EL2);
        assert_eq!((op >> 21) & 1, 1, "MRS reads");
        assert_eq!(op & 0x1f, 3);
    }

    #[test]
    fn imm12_bounds() {
        assert!(add_imm(XReg(0), XReg(0), 4095).is_ok());
        assert!(add_imm(XReg(0), XReg(0), 4096).is_err());
    }
}
