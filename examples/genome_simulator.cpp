// genome_simulator — generate synthetic human-like assemblies (the stand-in
// for the UCSC hg19/hg38 downloads), optionally plant known off-target
// sites, and write everything to FASTA for use with casoffinder_cli.
//
//   $ ./examples/genome_simulator --assembly hg19 --scale 4096 --out /tmp/hg19.fa
//         --plant-guide GGCCGACCTGTCGCTGACGCNGG --plant-count 10 --plant-mm 2
#include <cstdio>

#include "core/pattern.hpp"
#include "genome/fasta.hpp"
#include "genome/twobit_file.hpp"
#include "genome/synth.hpp"
#include "genome/twobit.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  util::cli cli("genome_simulator", "Generate synthetic hg19/hg38-like assemblies");
  cli.opt("assembly", "hg19 or hg38", "hg19");
  cli.opt("scale", "divide real chromosome lengths by this", "4096");
  cli.opt("seed", "generator seed", "0");
  cli.opt("out", "output FASTA path (empty = stats only)", "");
  cli.opt("plant-guide", "guide+PAM to plant (e.g. GGCC...GCNGG)", "");
  cli.opt("plant-count", "number of sites to plant", "10");
  cli.opt("plant-mm", "mismatches per planted site", "0");
  cli.opt("pattern", "PAM pattern used to protect planted PAMs",
          "NNNNNNNNNNNNNNNNNNNNNRG");
  if (!cli.parse(argc, argv)) return 1;
  util::set_log_level(util::log_level::info);

  const auto scale = cli.get_u64("scale");
  const auto seed = cli.get_u64("seed");
  auto params = cli.get("assembly") == "hg38"
                    ? genome::hg38_like(scale, seed ? seed : 38)
                    : genome::hg19_like(scale, seed ? seed : 19);

  util::stopwatch sw;
  auto g = genome::generate(params);
  std::printf("generated %s: %zu chromosomes, %s total, %s searchable (%.2fs)\n",
              g.assembly.c_str(), g.chroms.size(),
              util::human_bytes(g.total_bases()).c_str(),
              util::human_bytes(g.non_n_bases()).c_str(), sw.seconds());
  for (size_t i = 0; i < std::min<size_t>(5, g.chroms.size()); ++i) {
    std::printf("  %-8s %12zu bp\n", g.chroms[i].name.c_str(),
                g.chroms[i].seq.size());
  }
  if (g.chroms.size() > 5) std::printf("  ... and %zu more\n", g.chroms.size() - 5);

  const std::string guide = cli.get("plant-guide");
  if (!guide.empty()) {
    const auto sites = genome::plant_sites(
        g, cof::normalize_sequence(guide), cof::normalize_sequence(cli.get("pattern")),
        cli.get_u64("plant-count"), static_cast<unsigned>(cli.get_u64("plant-mm")),
        seed + 1);
    std::printf("planted %zu sites with %llu mismatches:\n", sites.size(),
                static_cast<unsigned long long>(cli.get_u64("plant-mm")));
    for (const auto& s : sites) {
      std::printf("  %-8s %10zu %c %s\n", g.chroms[s.chrom_index].name.c_str(),
                  s.position, s.strand, s.written.c_str());
    }
  }

  // 2-bit footprint comparison (the upstream memory optimisation).
  util::usize packed = 0;
  for (const auto& c : g.chroms) packed += genome::twobit_seq::encode(c.seq).packed_bytes();
  std::printf("2-bit packed footprint: %s (%.1fx smaller than char)\n",
              util::human_bytes(packed).c_str(),
              static_cast<double>(g.total_bases()) / static_cast<double>(packed));

  const std::string out = cli.get("out");
  if (!out.empty()) {
    sw.reset();
    if (genome::is_twobit_path(out)) {
      genome::write_twobit_file(out, g);
    } else {
      genome::write_fasta_file(out, g.chroms);
    }
    std::printf("wrote %s (%.2fs)\n", out.c_str(), sw.seconds());
  }
  return 0;
}
