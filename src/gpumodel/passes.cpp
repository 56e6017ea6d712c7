#include "gpumodel/passes.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "util/strings.hpp"

namespace gpumodel {

namespace {

/// Rewrite uses according to the replacement map.
void apply_replacements(std::vector<kir_op>& ops, const std::map<int, int>& replace) {
  if (replace.empty()) return;
  for (auto& op : ops) {
    for (int& u : op.uses) {
      auto it = replace.find(u);
      if (it != replace.end()) u = it->second;
    }
  }
}

/// Remove pure address-arithmetic ops whose results are never used.
void dce_dead_valu(kir_kernel& k) {
  for (;;) {
    std::set<int> used;
    for (const auto& op : k.ops) {
      for (int u : op.uses) used.insert(u);
    }
    const auto before = k.ops.size();
    std::erase_if(k.ops, [&](const kir_op& op) {
      const bool pure = (op.kind == op_kind::valu || op.kind == op_kind::salu ||
                         op.kind == op_kind::smem_load) &&
                        op.def >= 0;
      return pure && used.find(op.def) == used.end();
    });
    if (k.ops.size() == before) return;
  }
}

}  // namespace

void pass_restrict_cse(kir_kernel& k) {
  k.no_alias = true;
  // Local (basic-block-scoped) CSE of global loads: with `__restrict` the
  // compiler may merge loads of the same address as long as no store or
  // atomic intervenes; branches delimit blocks and reset the window.
  std::map<std::string, int> window;
  std::map<int, int> replace;
  std::vector<kir_op> out;
  out.reserve(k.ops.size());
  for (auto& op : k.ops) {
    if (op.kind == op_kind::branch || op.kind == op_kind::vmem_store ||
        op.kind == op_kind::atomic || op.kind == op_kind::barrier) {
      window.clear();
    }
    if (op.kind == op_kind::vmem_load && !op.addr_key.empty()) {
      auto [it, inserted] = window.emplace(op.addr_key, op.def);
      if (!inserted) {
        replace[op.def] = it->second;
        continue;  // drop the duplicate load
      }
    }
    out.push_back(op);
  }
  apply_replacements(out, replace);
  k.ops = std::move(out);
  dce_dead_valu(k);
}

void pass_register_hoist(kir_kernel& k) {
  // Loop-invariant per-work-item loads (loci[i], flag[i]) are performed
  // once and kept in a register: keep the first load of each address, make
  // later ones reuse its value. The survivor's live range then spans every
  // former reload site, which the register sweep picks up automatically.
  std::map<std::string, int> canonical;
  std::map<int, int> replace;
  std::vector<kir_op> out;
  out.reserve(k.ops.size());
  for (auto& op : k.ops) {
    if (op.loop_invariant && op.kind == op_kind::vmem_load) {
      auto [it, inserted] = canonical.emplace(op.addr_key, op.def);
      if (!inserted) {
        replace[op.def] = it->second;
        continue;
      }
    }
    out.push_back(op);
  }
  apply_replacements(out, replace);
  k.ops = std::move(out);
  dce_dead_valu(k);
}

void pass_cooperative_fetch(kir_kernel& k, const build_params& p) {
  // Excise the sequential fetch region (every op keyed "comp[...") and the
  // `li == 0` machinery it hid behind, then emit the short strided loop all
  // work-items execute.
  std::vector<kir_op> out;
  out.reserve(k.ops.size());
  bool removed_any = false;
  for (auto& op : k.ops) {
    const bool fetch_op =
        !op.addr_key.empty() && (util::starts_with(op.addr_key, "comp[") ||
                                 util::starts_with(op.addr_key, "comp_index["));
    if (fetch_op) {
      removed_any = true;
      continue;
    }
    out.push_back(op);
  }
  COF_CHECK_MSG(removed_any, "cooperative-fetch pass found no fetch region");
  k.ops = std::move(out);
  dce_dead_valu(k);

  // Strided cooperative loop: one body, every work-item participates.
  (void)p;
  kir_kernel tmp;
  tmp.next_value = k.next_value;
  const int kk = tmp.new_value();
  tmp.emit(op_kind::valu, "", kk);                       // k = li
  const int v1 = tmp.new_value(), v2 = tmp.new_value();
  tmp.emit(op_kind::vmem_load, "coop[comp]", v1, {kk});
  tmp.emit(op_kind::vmem_load, "coop[index]", v2, {kk});
  tmp.emit(op_kind::lds_write, "", -1, {v1});
  tmp.emit(op_kind::lds_write, "", -1, {v2});
  tmp.emit(op_kind::valu, "", kk, {kk});                 // k += wg_size
  tmp.emit(op_kind::vcmp, "", -1, {kk});
  tmp.emit(op_kind::branch, "");
  k.next_value = tmp.next_value;

  auto it = std::find_if(k.ops.begin(), k.ops.end(), [](const kir_op& op) {
    return op.kind == op_kind::barrier;
  });
  COF_CHECK_MSG(it != k.ops.end(), "comparer IR lost its barrier");
  k.ops.insert(it, tmp.ops.begin(), tmp.ops.end());
}

void pass_promote_lds_to_reg(kir_kernel& k, const build_params& p) {
  // The chain re-reads l_comp[k] / l_comp_index[...] from LDS; keep one
  // read per unrolled iteration and mark it uniform (the pattern is
  // work-group-invariant, so the value lands in a scalar register). The
  // freed schedule lets the compiler preload the whole pattern window right
  // after the barrier; each promoted sub-dword char additionally needs a
  // scalar byte-extract whose result stays live alongside it, and the index
  // arithmetic turns scalar. Together these are the SGPR-pressure jump of
  // Table X.
  (void)p;
  std::map<std::string, int> canonical;
  std::map<int, int> replace;
  std::vector<kir_op> hoisted;
  std::vector<kir_op> out;
  out.reserve(k.ops.size());
  for (auto& op : k.ops) {
    const bool promoted_char = op.kind == op_kind::lds_read &&
                               util::starts_with(op.addr_key, "l_comp[k]/");
    const bool promoted_index = op.kind == op_kind::lds_read &&
                                util::starts_with(op.addr_key, "l_comp_index/");
    if (promoted_char || promoted_index) {
      auto [it, inserted] = canonical.emplace(op.addr_key, op.def);
      if (!inserted) {
        replace[op.def] = it->second;
        continue;
      }
      op.uniform = true;
      hoisted.push_back(op);
      if (promoted_char) {
        // s_bfe byte extract: the unpacked char value, same lifetime.
        kir_op bfe;
        bfe.kind = op_kind::salu;
        bfe.def = -1;  // patched below (needs a fresh value id)
        bfe.uses = {op.def};
        bfe.uniform = true;
        hoisted.push_back(bfe);
      }
      continue;
    }
    out.push_back(op);
  }
  // Assign value ids to the byte-extract results and keep them live to the
  // end by adding them as uses of the final op.
  std::vector<int> extracts;
  for (auto& op : hoisted) {
    if (op.kind == op_kind::salu && op.def == -1) {
      op.def = k.new_value();
      extracts.push_back(op.def);
    }
  }
  // Scalar index bookkeeping (j counter, bound, base) that the scalarised
  // chain keeps live across both sections.
  for (int s = 0; s < 3; ++s) {
    kir_op idx;
    idx.kind = op_kind::salu;
    idx.def = k.new_value();
    idx.uniform = true;
    hoisted.push_back(idx);
    extracts.push_back(idx.def);
  }

  apply_replacements(out, replace);

  auto it = std::find_if(out.begin(), out.end(), [](const kir_op& op) {
    return op.kind == op_kind::barrier;
  });
  COF_CHECK_MSG(it != out.end(), "comparer IR lost its barrier");
  out.insert(it + 1, hoisted.begin(), hoisted.end());

  // Pin the promoted values' live ranges to the end of the kernel (they are
  // reused by both strand sections).
  COF_CHECK(!out.empty());
  for (int v : extracts) out.back().uses.push_back(v);
  for (const auto& [key, val] : canonical) out.back().uses.push_back(val);
  k.ops = std::move(out);
}

void pass_mask_lut(kir_kernel& k, const build_params& p) {
  // Replace each unrolled iteration's Boolean chain with the deny-LUT test.
  // The builder emits the chain as consecutive 5-op condition groups
  //   lds_read l_comp[k]/<iu>, vcmp(pat), vcmp(ref), s_and, s_or
  // repeated chain_conditions times per iteration; none of the earlier
  // passes reorder or split them (restrict/hoist only touch vmem loads,
  // cooperative fetch only the comp[...] region). The first group of an
  // iteration becomes
  //   lds_read l_comp_lut/<iu>    (the u16 deny LUT)
  //   valu nibble(ref)            (reference char -> 4-bit LUT index)
  //   valu mask >> nib & 1        (shift + and)
  //   vcmp                        (the mismatch branch condition)
  // and every further group of that iteration is deleted outright.
  static const std::string kChainKey = "l_comp[k]/";
  std::set<std::string> rewritten;
  std::vector<kir_op> out;
  out.reserve(k.ops.size());
  usize i = 0;
  bool removed_any = false;
  while (i < k.ops.size()) {
    const kir_op& op = k.ops[i];
    if (!(op.kind == op_kind::lds_read && util::starts_with(op.addr_key, kChainKey))) {
      out.push_back(op);
      ++i;
      continue;
    }
    COF_CHECK_MSG(i + 4 < k.ops.size() && k.ops[i + 1].kind == op_kind::vcmp &&
                      k.ops[i + 2].kind == op_kind::vcmp &&
                      k.ops[i + 3].kind == op_kind::salu &&
                      k.ops[i + 4].kind == op_kind::salu,
                  "mask-lut pass expects the chain's 5-op condition groups");
    removed_any = true;
    const std::string iu = op.addr_key.substr(kChainKey.size());
    if (rewritten.insert(iu).second) {
      // vcmp(ref) carries the reference-char value the LUT is indexed by.
      COF_CHECK_MSG(!k.ops[i + 2].uses.empty(), "chain ref compare lost its use");
      const int ref = k.ops[i + 2].uses[0];
      kir_op rd;
      rd.kind = op_kind::lds_read;
      rd.addr_key = "l_comp_lut/" + iu;
      rd.def = k.new_value();
      out.push_back(rd);
      kir_op nib;
      nib.kind = op_kind::valu;
      nib.def = k.new_value();
      nib.uses = {ref};
      out.push_back(nib);
      kir_op test;
      test.kind = op_kind::valu;
      test.def = k.new_value();
      test.uses = {rd.def, nib.def};
      out.push_back(test);
      kir_op cmp;
      cmp.kind = op_kind::vcmp;
      cmp.uses = {test.def};
      out.push_back(cmp);
    }
    i += 5;  // drop the condition group
  }
  COF_CHECK_MSG(removed_any, "mask-lut pass found no IUPAC chain");
  k.ops = std::move(out);
  dce_dead_valu(k);
  // LDS now holds the u16 deny LUTs instead of the pattern chars.
  k.lds_bytes = p.plen * 2 * (2 + 4);
}

void pass_swar(kir_kernel& k, const build_params& p) {
  // Applied on top of mask_lut: each strand's unrolled per-character loop
  // (lds_read l_comp_index, byte-wide chr load, deny-LUT test — repeated
  // main_unroll times) collapses into ceil(plen/32) word evaluations of the
  // 2-bit packed chunk: an unaligned two-word window fetch of packed codes
  // and ambiguity flags, shift-combine, four XOR/AND SWAR tests against the
  // per-word deny masks in LDS, and one popcount feeding the running
  // mismatch count. Iterations are located by their l_comp_index read and
  // consumed through their lmm-increment/threshold/branch tail; the first
  // iteration of a half is rewritten, the rest are deleted.
  static const std::string kIdxKey = "l_comp_index/";
  const u32 words = (p.plen + 31) / 32;
  std::vector<kir_op> out;
  out.reserve(k.ops.size());
  bool removed_any = false;
  usize i = 0;
  while (i < k.ops.size()) {
    const kir_op& op = k.ops[i];
    if (!(op.kind == op_kind::lds_read && util::starts_with(op.addr_key, kIdxKey))) {
      out.push_back(op);
      ++i;
      continue;
    }
    removed_any = true;
    const std::string iu = op.addr_key.substr(kIdxKey.size());
    // Consume the whole iteration: everything up to and including the
    // branch that follows the vcmp that follows the lmm self-increment
    // (valu whose def appears in its own uses).
    usize j = i;
    int lmm = -1;
    while (j < k.ops.size()) {
      const kir_op& cur = k.ops[j];
      if (cur.kind == op_kind::branch && j >= i + 2 &&
          k.ops[j - 1].kind == op_kind::vcmp && k.ops[j - 2].kind == op_kind::valu &&
          k.ops[j - 2].def >= 0 && !k.ops[j - 2].uses.empty() &&
          k.ops[j - 2].def == k.ops[j - 2].uses[0]) {
        lmm = k.ops[j - 2].def;
        ++j;
        break;
      }
      ++j;
    }
    COF_CHECK_MSG(lmm >= 0, "swar pass expects the lmm increment/branch tail");
    if (iu.size() >= 2 && iu.compare(iu.size() - 2, 2, "#0") == 0) {
      const std::string h = iu.substr(0, iu.size() - 2);
      const usize mark = k.ops.size();
      for (u32 w = 0; w < words; ++w) {
        const std::string wk = h + util::format("@%u", w);
        // Two-word window fetch of the packed codes and ambiguity flags
        // (one shared address computation per array).
        const int pa = k.new_value();
        k.emit(op_kind::valu, "chr2[a]/" + wk, pa);
        const int lo = k.new_value(), hi = k.new_value();
        k.emit(op_kind::vmem_load, "chr2[lo]/" + wk, lo, {pa});
        k.emit(op_kind::vmem_load, "chr2[hi]/" + wk, hi, {pa});
        const int aa = k.new_value();
        k.emit(op_kind::valu, "amb2[a]/" + wk, aa);
        const int alo = k.new_value(), ahi = k.new_value();
        k.emit(op_kind::vmem_load, "amb2[lo]/" + wk, alo, {aa});
        k.emit(op_kind::vmem_load, "amb2[hi]/" + wk, ahi, {aa});
        // Shift-combine into the 64-bit window (ref and amb), plus the
        // ragged-tail active mask.
        const int ref = k.new_value();
        k.emit(op_kind::valu, "", ref, {lo, hi});
        k.emit(op_kind::valu, "", ref, {lo, hi});
        const int amb = k.new_value();
        k.emit(op_kind::valu, "", amb, {alo, ahi});
        k.emit(op_kind::valu, "", amb, {alo, ahi});
        // Four code tests: deny-mask LDS read, XOR/NOT/AND fold, OR into
        // the accumulated mismatch word.
        const int mm = k.new_value();
        k.emit(op_kind::valu, "", mm);
        for (int c = 0; c < 4; ++c) {
          const int deny = k.new_value();
          k.emit(op_kind::lds_read,
                 "l_comp_swar/" + wk + util::format("#%d", c), deny);
          const int eq = k.new_value();
          k.emit(op_kind::valu, "", eq, {ref});
          k.emit(op_kind::valu, "", mm, {mm, eq, deny});
        }
        // Mask off ambiguous lanes ('N' deny-mask fallback) and popcount
        // into the running mismatch count.
        const int ndeny = k.new_value();
        k.emit(op_kind::lds_read, "l_comp_swar/" + wk + "#n", ndeny);
        const int pc = k.new_value();
        k.emit(op_kind::valu, "", pc, {mm, amb, ndeny});
        k.emit(op_kind::valu, "", pc, {pc});
        k.emit(op_kind::valu, "", lmm, {lmm, pc});
        // Threshold early-exit.
        k.emit(op_kind::vcmp, "", -1, {lmm});
        k.emit(op_kind::branch, "");
      }
      // emit() appended to k.ops; move the new block into place.
      out.insert(out.end(), k.ops.begin() + static_cast<long>(mark), k.ops.end());
      k.ops.erase(k.ops.begin() + static_cast<long>(mark), k.ops.end());
    }
    i = j;  // drop the consumed iteration
  }
  COF_CHECK_MSG(removed_any, "swar pass found no unrolled compare iterations");
  k.ops = std::move(out);
  dce_dead_valu(k);
  // LDS now holds only the per-word deny masks (four codes plus 'N').
  k.lds_bytes = 2 * words * 5 * 8;
}

}  // namespace gpumodel
