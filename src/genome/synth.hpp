// Synthetic human-assembly generator — the stand-in for the UCSC hg19/hg38
// downloads this environment cannot perform (documented substitution, see
// DESIGN.md §2). Assemblies are deterministic in the seed, with:
//
//   * per-chromosome lengths proportional to the real assemblies' lengths
//     (a scale knob divides them, default 1:1 tables below);
//   * telomere/centromere N-gaps plus scattered assembly gaps — hg19-like
//     presets carry a larger gap fraction than hg38-like ones, mirroring the
//     gap-filling between the real assemblies (so hg38 has more searchable
//     sequence and longer search times, as in the paper's Table VIII);
//   * GC-content bias;
//   * Alu-like repeat insertions, which create the near-duplicate sites that
//     make off-target search non-trivial;
//   * optional planted off-target sites with a known mismatch count, giving
//     tests an exact recall oracle.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "genome/fasta.hpp"
#include "util/rng.hpp"

namespace genome {

struct synth_params {
  std::string assembly = "synthetic";
  /// Chromosome name -> length in bases (after scaling).
  std::vector<std::pair<std::string, usize>> chromosomes;
  double gc_content = 0.41;       // human-like
  double gap_fraction = 0.05;     // fraction of bases inside N-gaps
  double repeat_density = 0.10;   // fraction of bases covered by repeats
  util::u64 seed = 0xC0FFEE;
};

/// A site deliberately written into the assembly.
struct planted_site {
  usize chrom_index;
  usize position;
  char strand;        // '+' or '-'
  unsigned mismatches;  // vs the guide it was derived from
  std::string written;  // the bases actually written
};

genome_t generate(const synth_params& params);

/// hg19-like / hg38-like presets. `scale` divides the real chromosome
/// lengths (scale=256 gives a ~12 Mbp assembly). Chromosome count shrinks
/// gracefully at large scales (tiny chromosomes are dropped).
synth_params hg19_like(usize scale, util::u64 seed = 19);
synth_params hg38_like(usize scale, util::u64 seed = 38);

/// Overwrite `count` random non-gap locations with copies of `guide`
/// (IUPAC codes concretised to a member base) mutated at exactly
/// `mismatches` positions; roughly half the copies are planted
/// reverse-complemented. Only positions where `pattern` is 'N' and the
/// guide is concrete are mutated — i.e. the PAM stays intact, so a search
/// with (pattern, guide-with-N-PAM) must recover every planted site with
/// exactly the planted mismatch count. Returns the ground truth.
std::vector<planted_site> plant_sites(genome_t& g, const std::string& guide,
                                      const std::string& pattern, usize count,
                                      unsigned mismatches, util::u64 seed);

/// Parse a "synth:" genome URI: synth:hg19[:scale[:seed]] or
/// synth:hg38[:scale[:seed]]. Returns nullopt if `uri` lacks the prefix;
/// throws fasta_error for an unknown assembly, a scale that is not a whole
/// number >= 1 or leaves no chromosome, or a seed that is not a number.
std::optional<genome_t> load_synth_uri(const std::string& uri);

}  // namespace genome
