// Quickstart: search a synthetic genome for off-target sites of one guide.
//
//   $ ./examples/quickstart
//
// Demonstrates the three-call public API: parse an input, load a genome,
// run the search — here with the SYCL host program on the simulated
// accelerator, checked against the serial reference.
#include <cstdio>

#include "core/engine.hpp"
#include "genome/synth.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

int main() {
  util::set_log_level(util::log_level::warn);

  // 1. Describe the search: genome, PAM pattern, guides (Cas-OFFinder's
  //    input format; "synth:hg19:8192" = 1/8192-scale synthetic hg19).
  const cof::search_config cfg = cof::parse_input(
      "synth:hg19:8192\n"
      "NNNNNNNNNNNNNNNNNNNNNRG\n"
      "GGCCGACCTGTCGCTGACGCNNN 4\n"
      "CGCCAGCGTCAGCGACAGGTNNN 4\n");

  // 2. Load the genome (here: generate it) and plant a couple of known
  //    off-target sites so the demo has guaranteed hits.
  genome::genome_t g = genome::load_genome(cfg.genome_path);
  const std::string guide = cfg.queries[0].seq.substr(0, 20) + "NGG";
  genome::plant_sites(g, guide, cfg.pattern, 3, 2, /*seed=*/1234);
  std::printf("genome: %s, %zu chromosomes, %s\n", g.assembly.c_str(),
              g.chroms.size(), util::human_bytes(g.total_bases()).c_str());

  // 3. Run the search on the device pipeline of your choice.
  cof::engine_options opt;
  opt.backend = cof::backend_kind::sycl;  // or ::opencl / ::serial
  const auto result = cof::run_search(cfg, g, opt);

  std::printf("found %zu off-target sites in %.3f s (%zu chunks, %llu PAM hits)\n\n",
              result.records.size(), result.metrics.elapsed_seconds,
              result.metrics.chunks,
              static_cast<unsigned long long>(result.metrics.pipeline.total_loci));

  std::vector<std::string> qseqs;
  for (const auto& q : cfg.queries) qseqs.push_back(q.seq);
  std::printf("%s", cof::format_records(result.records, qseqs, g).c_str());

  // Cross-check against the serial reference implementation.
  const auto serial = cof::run_search(cfg, g, {.backend = cof::backend_kind::serial});
  COF_CHECK_MSG(serial.records == result.records,
                "device pipeline disagrees with the serial reference");
  std::printf("\nverified against the serial reference: %zu records identical\n",
              serial.records.size());
  return 0;
}
