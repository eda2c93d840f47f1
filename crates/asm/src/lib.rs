//! Assemblers for the case-study binaries: AArch64 and RV64I encoders plus
//! a label-resolving program builder.
//!
//! The paper verifies *machine code* — opcodes in memory — produced by GCC,
//! Clang, and hand-written assembly. This crate produces the same opcodes
//! for the reproduced case studies; the round trip through the mini-Sail
//! models is exercised by the translation validation in `islaris-difftest`
//! (`Oracle::check_program`).
//!
//! # Examples
//!
//! The paper's Fig. 7 Arm memcpy inner loop:
//!
//! ```
//! use islaris_asm::aarch64::{self as a64, XReg};
//! use islaris_asm::Asm;
//!
//! let (x0, x1, x2, x3, x4) = (XReg(0), XReg(1), XReg(2), XReg(3), XReg(4));
//! let mut asm = Asm::new(0x1_0000);
//! asm.label("L3");
//! asm.put(a64::ldrb_reg(x4, x1, x3));
//! asm.put(a64::strb_reg(x4, x0, x3));
//! asm.put_or(a64::add_imm(x3, x3, 1));
//! asm.put(a64::cmp_reg(x2, x3));
//! asm.branch_to("L3", |off| a64::b_cond(a64::Cond::Ne, off));
//! let prog = asm.finish()?;
//! assert_eq!(prog.len(), 5);
//! # Ok::<(), islaris_asm::AsmError>(())
//! ```

pub mod aarch64;
pub mod grammar;
pub mod ir;
pub mod riscv;

pub use grammar::{classify, EncodingClass, ARM_CLASSES, RISCV_CLASSES};
pub use ir::{cond_name, Asm, AsmError, Program};
