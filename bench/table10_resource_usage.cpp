// Table X — code length, register usage, and occupancy of the comparer
// variants, from the kernel-IR compiler model (builder -> passes ->
// register sweep -> ISA sizing -> occupancy).
#include <cstdio>

#include "bench_common.hpp"
#include "gpumodel/isa.hpp"
#include "gpumodel/listing.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  util::cli cli("table10_resource_usage",
                "Reproduce Table X (resource usage and occupancy)");
  cli.flag("mix", "also print the per-variant instruction mix");
  cli.opt("asm", "print the pseudo-ISA listing of a variant (base..opt4, opt6, or none)",
          "none");
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Table X", "resource usage and occupancy of the kernels");
  using cv = cof::comparer_variant;

  const int paper_code[5] = {6064, 5852, 5408, 4408, 3660};
  const int paper_sgpr[5] = {64, 64, 64, 57, 82};
  const int paper_vgpr[5] = {22, 22, 22, 10, 10};
  const int paper_occ[5] = {10, 10, 10, 10, 9};

  std::printf("\n%-12s %6s %6s %6s %6s %6s\n", "Metric", "base", "opt1", "opt2",
              "opt3", "opt4");
  gpumodel::resource_row rows[5];
  for (int v = 0; v < 5; ++v) rows[v] = gpumodel::resource_usage(static_cast<cv>(v));

  auto print_row = [&](const char* name, auto get, const int* paper) {
    std::printf("%-12s", name);
    for (int v = 0; v < 5; ++v) std::printf(" %6u", get(rows[v]));
    std::printf("   (paper:");
    for (int v = 0; v < 5; ++v) std::printf(" %d", paper[v]);
    std::printf(")\n");
  };
  print_row("Code length", [](const auto& r) { return r.code_bytes; }, paper_code);
  print_row("#SGPRs", [](const auto& r) { return r.sgprs; }, paper_sgpr);
  print_row("#VGPRs", [](const auto& r) { return r.vgprs; }, paper_vgpr);
  print_row("Occupancy", [](const auto& r) { return r.occupancy; }, paper_occ);

  std::printf(
      "\nNote: the camera-ready table's register-row labels are swapped\n"
      "relative to the prose; we follow the table (SGPR 82 -> occupancy 9 via\n"
      "the 800-SGPR/SIMD file, which the prose's numbers cannot produce).\n");

  const std::string asm_variant = cli.get("asm");
  if (asm_variant != "none") {
    for (int v = 0; v < cof::kNumComparerVariants; ++v) {
      if (asm_variant == cof::comparer_variant_name(static_cast<cv>(v))) {
        std::printf("\n%s", gpumodel::assembly_listing(
                                 gpumodel::build_comparer_variant(static_cast<cv>(v)))
                                 .c_str());
      }
    }
  }

  if (cli.get_flag("mix")) {
    std::printf("\nInstruction mix (emitted instructions):\n");
    std::printf("%-6s %6s %6s %6s %6s %6s %6s %7s %7s\n", "var", "valu", "salu",
                "vcmp", "vmem", "smem", "lds", "branch", "total");
    for (int v = 0; v < cof::kNumComparerVariants; ++v) {
      const auto k = gpumodel::build_comparer_variant(static_cast<cv>(v));
      const auto m = gpumodel::instruction_mix(k);
      std::printf("%-6s %6u %6u %6u %6u %6u %6u %7u %7u\n",
                  cof::comparer_variant_name(static_cast<cv>(v)), m.valu, m.salu,
                  m.vcmp, m.vmem, m.smem, m.lds, m.branch, m.total);
    }
  }
  return 0;
}
