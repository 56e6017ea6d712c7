#include "gpumodel/builder.hpp"

#include "gpumodel/passes.hpp"
#include "util/strings.hpp"

namespace gpumodel {

namespace {

/// Emit the work-item index prologue: global id, local id, group base.
struct prologue_values {
  int gid;   // global id (vector)
  int li;    // local id (vector)
};

prologue_values emit_prologue(kir_kernel& k) {
  const int wg = k.new_value();    // group id (uniform)
  const int wgs = k.new_value();   // local size (uniform)
  const int tid = k.new_value();   // lane id
  const int gid = k.new_value();
  const int li = k.new_value();
  k.emit(op_kind::salu, "", wg).uniform = true;
  k.emit(op_kind::salu, "", wgs).uniform = true;
  k.emit(op_kind::valu, "", tid);
  k.emit(op_kind::valu, "", gid, {wg, wgs, tid});
  k.emit(op_kind::valu, "", gid, {wg, wgs, tid});  // mad + mov
  k.emit(op_kind::valu, "", li, {gid, wg, wgs});
  return {gid, li};
}

/// Sequential `if (li == 0)` fetch of comp/comp_index into LDS, partially
/// unrolled by the compiler (16x, in load bursts of 8 pairs so the pending
/// load results overlap — this burst is the baseline's vector-register
/// peak), plus the scalar setup (base addresses, trip count) and the
/// remainder loop. All ops carry "comp["-prefixed keys so the cooperative-
/// fetch pass can excise the whole region.
void emit_sequential_fetch(kir_kernel& k, const build_params& p, int li) {
  k.emit(op_kind::vcmp, "", -1, {li});
  k.emit(op_kind::branch, "");  // skip fetch unless li == 0

  // Scalar setup kept live across the whole fetch: two 64-bit base
  // addresses (2 SGPRs each), the trip count, loop counter and bound.
  std::vector<int> setup;
  for (int s = 0; s < 9; ++s) {
    const int v = k.new_value();
    auto& op = k.emit(s < 4 ? op_kind::smem_load : op_kind::salu,
                      util::format("comp[setup#%d]", s), v);
    op.uniform = true;
    setup.push_back(v);
  }

  const u32 burst = 8;
  std::vector<int> pending;
  for (u32 u = 0; u < p.fetch_unroll; ++u) {
    const int a1 = k.new_value();  // &comp[k+u]
    const int v1 = k.new_value();  // comp char
    const int a2 = k.new_value();  // &comp_index[k+u]
    const int v2 = k.new_value();  // index word
    k.emit(op_kind::valu, util::format("comp[a#%u]", u), a1, {setup[0], setup[1]});
    k.emit(op_kind::vmem_load, util::format("comp[k+%u]", u), v1, {a1});
    k.emit(op_kind::valu, util::format("comp_index[a#%u]", u), a2,
           {setup[2], setup[3]});
    k.emit(op_kind::vmem_load, util::format("comp_index[k+%u]", u), v2, {a2});
    pending.push_back(v1);
    pending.push_back(v2);
    if ((u + 1) % burst == 0) {
      // drain the burst into LDS
      for (int v : pending) k.emit(op_kind::lds_write, "comp[w]", -1, {v});
      pending.clear();
    }
  }
  for (int v : pending) k.emit(op_kind::lds_write, "comp[w]", -1, {v});
  k.emit(op_kind::salu, "comp[ctl]", -1, {setup[4], setup[5]});
  k.emit(op_kind::branch, "comp[backedge]");
  k.emit(op_kind::branch, "comp[rem-entry]");
  // Remainder loop body (not unrolled).
  {
    const int a1 = k.new_value(), v1 = k.new_value();
    k.emit(op_kind::valu, "comp[ra1]", a1, {setup[0], setup[6]});
    k.emit(op_kind::vmem_load, "comp[k]r", v1, {a1});
    k.emit(op_kind::lds_write, "comp[w]", -1, {v1});
    const int a2 = k.new_value(), v2 = k.new_value();
    k.emit(op_kind::valu, "comp[ra2]", a2, {setup[2], setup[6]});
    k.emit(op_kind::vmem_load, "comp_index[k]r", v2, {a2});
    k.emit(op_kind::lds_write, "comp[w]", -1, {v2});
    k.emit(op_kind::salu, "comp[ctl2]", -1, {setup[6]});
    k.emit(op_kind::branch, "comp[rem-backedge]");
  }
}

/// One strand section of the comparer: flag tests, the unrolled main loop
/// with the IUPAC chain, and the atomic-append epilogue.
void emit_strand_section(kir_kernel& k, const build_params& p, int gid, int half) {
  const std::string h = half == 0 ? "fw" : "rc";

  // Baseline reloads flag[i] for each short-circuit test (L9/L26); the
  // branch between them is a basic-block boundary, so even local CSE
  // cannot merge them — only registering (opt2) removes the repeats.
  for (int t = 0; t < 2; ++t) {
    const int a = k.new_value();
    const int f = k.new_value();
    k.emit(op_kind::valu, "", a, {gid});
    auto& ld = k.emit(op_kind::vmem_load, "flag[i]", f, {a});
    ld.loop_invariant = true;
    k.emit(op_kind::vcmp, "", -1, {f});
    k.emit(op_kind::branch, "");
  }

  const int lmm = k.new_value();
  k.emit(op_kind::valu, "", lmm);  // lmm_count = 0

  for (u32 u = 0; u < p.main_unroll; ++u) {
    const std::string iu = h + util::format("#%u", u);
    // k = l_comp_index[half*plen + j+u]
    const int kidx = k.new_value();
    k.emit(op_kind::lds_read, "l_comp_index/" + iu, kidx);
    k.emit(op_kind::vcmp, "", -1, {kidx});  // k == -1?
    k.emit(op_kind::branch, "");

    // Baseline: loci[i] re-read from global memory in every unrolled
    // iteration (the compiler does not CSE across the loop's block
    // boundaries; distinct keys model that).
    const int la = k.new_value();
    const int locus = k.new_value();
    k.emit(op_kind::valu, "", la, {gid});
    auto& lload = k.emit(op_kind::vmem_load, "loci[i]", locus, {la});
    lload.loop_invariant = true;  // hoistable once registered (opt2)

    // chr[loci[i]+k]: without __restrict the compiler must keep a second
    // load of the same word (the mm_* stores may alias chr); with restrict
    // the local-CSE pass merges them (opt1).
    const int ra = k.new_value();
    const int ref = k.new_value();
    k.emit(op_kind::valu, "", ra, {locus, kidx});
    k.emit(op_kind::vmem_load, "chr[loci+k]/" + iu, ref, {ra});
    const int ra2 = k.new_value();
    const int ref2 = k.new_value();
    k.emit(op_kind::valu, "chr[a2]/" + iu, ra2, {locus, kidx});
    k.emit(op_kind::vmem_load, "chr[loci+k]/" + iu, ref2, {ra2});

    // The chain: one LDS pattern read per condition (promoted to a scalar
    // register by opt4), compare against pattern and reference, two mask
    // ops (s_and + s_or) per condition.
    for (u32 c = 0; c < p.chain_conditions; ++c) {
      const int pc = k.new_value();
      k.emit(op_kind::lds_read, "l_comp[k]/" + iu, pc);
      k.emit(op_kind::vcmp, "", -1, {pc});
      k.emit(op_kind::vcmp, "", -1, {c % 2 == 0 ? ref : ref2});
      k.emit(op_kind::salu, "", -1, {});
      k.emit(op_kind::salu, "", -1, {});
    }
    // lmm_count++ / threshold early-exit.
    k.emit(op_kind::valu, "", lmm, {lmm});
    k.emit(op_kind::vcmp, "", -1, {lmm});
    k.emit(op_kind::branch, "");
  }
  // Loop control.
  k.emit(op_kind::salu, "", -1, {});
  k.emit(op_kind::branch, "");

  // Epilogue: threshold test + atomic append + three stores (L19-L23); the
  // locus is re-read (mm_loci[old] = loci[i]).
  k.emit(op_kind::vcmp, "", -1, {lmm});
  k.emit(op_kind::branch, "");
  const int old = k.new_value();
  k.emit(op_kind::atomic, "entrycount", old);
  for (int s = 0; s < 3; ++s) {
    const int a = k.new_value();
    k.emit(op_kind::valu, "", a, {old});
    k.emit(op_kind::vmem_store, "", -1, {a, lmm});
  }
  const int la = k.new_value();
  const int locus = k.new_value();
  k.emit(op_kind::valu, "", la, {gid});
  auto& ld = k.emit(op_kind::vmem_load, "loci[i]", locus, {la});
  ld.loop_invariant = true;
  k.emit(op_kind::vmem_store, "", -1, {locus});
}

}  // namespace

kir_kernel build_comparer_base(const build_params& p) {
  kir_kernel k;
  k.name = "comparer";
  k.lds_bytes = p.plen * 2 * (1 + 4);
  // Fixed scalar overhead: kernel-argument segment (14 args), dispatch and
  // queue pointers, exec/vcc.
  k.base_sgprs = 55;
  k.base_vgprs = 4;

  const auto pv = emit_prologue(k);
  emit_sequential_fetch(k, p, pv.li);
  k.emit(op_kind::barrier, "");
  // bounds check i >= locicnts
  k.emit(op_kind::vcmp, "", -1, {pv.gid});
  k.emit(op_kind::branch, "");
  emit_strand_section(k, p, pv.gid, 0);
  emit_strand_section(k, p, pv.gid, 1);
  k.emit(op_kind::branch, "");  // s_endpgm
  return k;
}

kir_kernel build_finder(const build_params& p) {
  kir_kernel k;
  k.name = "finder";
  k.lds_bytes = p.plen * 2 * (1 + 4);
  k.base_sgprs = 38;
  k.base_vgprs = 3;

  const auto pv = emit_prologue(k);
  emit_sequential_fetch(k, p, pv.li);
  k.emit(op_kind::barrier, "");
  k.emit(op_kind::vcmp, "", -1, {pv.gid});
  k.emit(op_kind::branch, "");
  // Two strand-match loops (the PAM loop has ~2 live positions; modelled
  // without unrolling).
  for (int half = 0; half < 2; ++half) {
    const int kidx = k.new_value();
    k.emit(op_kind::lds_read, "l_pat_index", kidx);
    k.emit(op_kind::vcmp, "", -1, {kidx});
    k.emit(op_kind::branch, "");
    const int pc = k.new_value();
    const int ref = k.new_value();
    k.emit(op_kind::lds_read, "l_pat", pc);
    k.emit(op_kind::vmem_load, "chr[i+k]", ref, {pv.gid, kidx});
    for (u32 c = 0; c < p.chain_conditions; ++c) {
      k.emit(op_kind::vcmp, "", -1, {pc});
      k.emit(op_kind::vcmp, "", -1, {ref});
      k.emit(op_kind::salu, "", -1, {});
    }
    k.emit(op_kind::branch, "");
  }
  const int old = k.new_value();
  k.emit(op_kind::atomic, "entrycount", old);
  k.emit(op_kind::vmem_store, "", -1, {old});
  k.emit(op_kind::vmem_store, "", -1, {old});
  k.emit(op_kind::branch, "");
  return k;
}

kir_kernel build_comparer_variant(cof::comparer_variant v, const build_params& p) {
  kir_kernel k = build_comparer_base(p);
  using cv = cof::comparer_variant;
  const int level = static_cast<int>(v);
  if (level >= static_cast<int>(cv::opt1)) pass_restrict_cse(k);
  if (level >= static_cast<int>(cv::opt2)) pass_register_hoist(k);
  if (level >= static_cast<int>(cv::opt3)) pass_cooperative_fetch(k, p);
  // opt4 promotes the chain's LDS pattern reads into scalar registers.
  // opt6 instead deletes the chain entirely (deny-LUT test), so there is
  // nothing left to promote, then collapses the deny-LUT iterations into
  // 64-bit SWAR word tests.
  if (v == cv::opt4) pass_promote_lds_to_reg(k, p);
  if (v == cv::opt6) {
    pass_mask_lut(k, p);
    pass_swar(k, p);
  }
  k.name = std::string("comparer/") + cof::comparer_variant_name(v);
  return k;
}

}  // namespace gpumodel
