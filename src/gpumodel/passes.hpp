// The optimisation passes that turn the baseline comparer IR into the
// paper's opt1..opt4 variants and the production opt6. Each mirrors what the
// source-level change lets the real compiler do:
//
//   pass_restrict_cse       (opt1) — with `__restrict` on the pointer
//     arguments, loads of the same address with no intervening may-alias
//     store are merged; the duplicated reference-char loads (and their
//     waitcnt/address code) disappear.
//   pass_register_hoist     (opt2) — loop-invariant global loads
//     (loci[i], flag[i]) move out of loop bodies into one preheader load
//     whose value stays live in a register.
//   pass_cooperative_fetch  (opt3) — the `li == 0` sequential fetch loop
//     (partially unrolled by the compiler, with a remainder loop) is
//     replaced by a short strided loop executed by every work-item.
//   pass_promote_lds_to_reg (opt4) — the pattern character re-read from LDS
//     by every chain condition is read once and kept in a register; the
//     promoted values are work-group-uniform, so they occupy *scalar*
//     registers — across the unrolled iterations this is what pushes SGPR
//     pressure past the occupancy cliff (Table X).
//   pass_mask_lut           (opt6, first step) — the whole 14-condition
//     IUPAC chain of each unrolled iteration collapses into one LDS read of
//     the pattern character's precomputed 16-bit deny LUT plus a
//     nibble/shift/AND test. Applied on top of opt3 *instead of*
//     promote_lds_to_reg: no pattern values need promoting (the chain is
//     gone), so scalar pressure stays at opt3 levels.
//   pass_swar               (opt6) — applied on top of mask_lut: each
//     strand's unrolled per-character loop collapses into ceil(plen/32)
//     two-bit SWAR word evaluations (two-word window fetch, shift-combine,
//     four XOR/AND deny-mask tests, popcount), so the static code shrinks
//     again and local memory holds only the per-word deny masks (the
//     fifth, 'N', scores ambiguous reference bases).
#pragma once

#include "gpumodel/builder.hpp"
#include "gpumodel/kir.hpp"

namespace gpumodel {

void pass_restrict_cse(kir_kernel& k);
void pass_register_hoist(kir_kernel& k);
void pass_cooperative_fetch(kir_kernel& k, const build_params& p);
void pass_promote_lds_to_reg(kir_kernel& k, const build_params& p);
void pass_mask_lut(kir_kernel& k, const build_params& p);
void pass_swar(kir_kernel& k, const build_params& p);

}  // namespace gpumodel
