//! Pins the synthetic operand generator byte for byte.
//!
//! Every oracle in the workspace (the seed engine, the dense references,
//! the serve and router byte checks) derives from
//! `AttentionTrace::generate`. The digests below were recorded from the
//! generator and must not drift: a change to the RNG draw order, the
//! feature basis, the quantizer or the value draw shows up here first.

use pade::workload::trace::{AttentionTrace, TraceConfig};

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn i8_digest(values: &[i8]) -> u64 {
    fnv1a(values.iter().map(|&x| x as u8))
}

/// Digests of one trace's operands.
#[derive(Debug, PartialEq)]
struct Digests {
    q: u64,
    k: u64,
    v: u64,
    v_f32_bits: u64,
    logit_scale_bits: u32,
}

fn digests(config: &TraceConfig) -> Digests {
    let t = AttentionTrace::generate(config);
    Digests {
        q: i8_digest(t.queries().as_slice()),
        k: i8_digest(t.keys().as_slice()),
        v: i8_digest(t.values().as_slice()),
        v_f32_bits: fnv1a(t.values_f32().as_slice().iter().flat_map(|x| x.to_bits().to_le_bytes())),
        logit_scale_bits: t.logit_scale().to_bits(),
    }
}

#[test]
fn small_demo_seed_3_operands_are_pinned() {
    assert_eq!(
        digests(&TraceConfig { seed: 3, ..TraceConfig::small_demo() }),
        Digests {
            q: 0xc8ff_a4c1_f042_1abc,
            k: 0x69b0_dfcd_c7b7_2947,
            v: 0x99e7_7340_0dc8_03a4,
            v_f32_bits: 0xe267_58a2_b894_e318,
            logit_scale_bits: 0x393e_877f,
        }
    );
}

#[test]
fn small_demo_seed_7_operands_are_pinned() {
    assert_eq!(
        digests(&TraceConfig { seed: 7, ..TraceConfig::small_demo() }),
        Digests {
            q: 0xc5eb_afe0_2c1e_6170,
            k: 0x52df_b07c_499d_aebb,
            v: 0xae35_dc11_97e7_60a3,
            v_f32_bits: 0xa91b_9598_6243_29ac,
            logit_scale_bits: 0x392d_4820,
        }
    );
}

#[test]
fn default_config_operands_are_pinned() {
    assert_eq!(
        digests(&TraceConfig::default()),
        Digests {
            q: 0x9513_0454_3be1_368c,
            k: 0xaedd_1ed1_0d53_9471,
            v: 0x3eac_0c71_0f46_d2cd,
            v_f32_bits: 0xdcd5_c71b_d49c_6d7c,
            logit_scale_bits: 0x391f_5a6a,
        }
    );
}
