#include "genome/synth.hpp"

#include <algorithm>

#include "genome/iupac.hpp"
#include "util/strings.hpp"

namespace genome {

namespace {

// Real assembly chromosome lengths in kilobases (GRCh37 / GRCh38), used as
// the proportional basis for the synthetic presets.
struct chrom_len {
  const char* name;
  usize hg19_kb;
  usize hg38_kb;
};

constexpr chrom_len kHuman[] = {
    {"chr1", 249250, 248956},  {"chr2", 243199, 242193},  {"chr3", 198022, 198295},
    {"chr4", 191154, 190214},  {"chr5", 180915, 181538},  {"chr6", 171115, 170805},
    {"chr7", 159138, 159345},  {"chr8", 146364, 145138},  {"chr9", 141213, 138394},
    {"chr10", 135534, 133797}, {"chr11", 135006, 135086}, {"chr12", 133851, 133275},
    {"chr13", 115169, 114364}, {"chr14", 107349, 107043}, {"chr15", 102531, 101991},
    {"chr16", 90354, 90338},   {"chr17", 81195, 83257},   {"chr18", 78077, 80373},
    {"chr19", 59128, 58617},   {"chr20", 63025, 64444},   {"chr21", 48129, 46709},
    {"chr22", 51304, 50818},   {"chrX", 155270, 156040},  {"chrY", 59373, 57227},
};

// A fixed Alu-like 64-mer used as the repeat consensus (shortened from the
// ~300 bp Alu consensus; the property that matters is many near-identical
// copies scattered through the assembly).
constexpr const char* kRepeatConsensus =
    "GGCCGGGCGCGGTGGCTCACGCCTGTAATCCCAGCACTTTGGGAGGCCGAGGCGGGCGGATCAC";

char random_base(util::rng& rng, double gc) {
  // P(G)=P(C)=gc/2, P(A)=P(T)=(1-gc)/2.
  const double r = rng.next_double();
  if (r < gc / 2) return 'G';
  if (r < gc) return 'C';
  return r < gc + (1.0 - gc) / 2 ? 'A' : 'T';
}

/// Write an N-gap of `len` at `pos` (clamped).
void write_gap(std::string& seq, usize pos, usize len) {
  const usize end = std::min(seq.size(), pos + len);
  for (usize i = pos; i < end; ++i) seq[i] = 'N';
}

}  // namespace

genome_t generate(const synth_params& params) {
  COF_CHECK_MSG(!params.chromosomes.empty(), "synth_params needs chromosomes");
  genome_t g;
  g.assembly = params.assembly;
  util::rng master(params.seed);

  const std::string repeat = kRepeatConsensus;
  for (const auto& [name, length] : params.chromosomes) {
    util::rng rng = master.fork();
    chromosome c;
    c.name = name;
    c.seq.resize(length);
    for (usize i = 0; i < length; ++i) c.seq[i] = random_base(rng, params.gc_content);

    // Repeat insertions: copies of the consensus with ~5% point mutations.
    if (length > repeat.size() * 2) {
      const usize copies =
          static_cast<usize>(params.repeat_density * static_cast<double>(length) /
                             static_cast<double>(repeat.size()));
      for (usize r = 0; r < copies; ++r) {
        const usize pos = rng.next_below(length - repeat.size());
        const bool rc = rng.next_bool(0.5);
        const std::string copy = rc ? reverse_complement(repeat) : repeat;
        for (usize j = 0; j < copy.size(); ++j) {
          c.seq[pos + j] = rng.next_bool(0.05) ? random_base(rng, 0.5) : copy[j];
        }
      }
    }

    // Gaps: telomeres (0.5% each end), a centromere block (60% of the gap
    // budget) near the middle, and scattered small gaps for the remainder.
    if (params.gap_fraction > 0 && length > 1000) {
      const auto gap_budget =
          static_cast<usize>(params.gap_fraction * static_cast<double>(length));
      const usize telomere = std::max<usize>(1, length / 200);
      write_gap(c.seq, 0, telomere);
      write_gap(c.seq, length - telomere, telomere);
      usize remaining = gap_budget > 2 * telomere ? gap_budget - 2 * telomere : 0;
      const usize centromere = remaining * 3 / 5;
      if (centromere > 0) {
        const usize mid = length / 2 - std::min(length / 2, centromere / 2);
        write_gap(c.seq, mid, centromere);
        remaining -= centromere;
      }
      while (remaining > 0) {
        const usize glen = std::min<usize>(remaining, 100 + rng.next_below(900));
        const usize pos = rng.next_below(length - glen);
        write_gap(c.seq, pos, glen);
        remaining -= glen;
      }
    }
    g.chroms.push_back(std::move(c));
  }
  return g;
}

namespace {

synth_params human_preset(const char* assembly, bool hg38, usize scale,
                          util::u64 seed) {
  COF_CHECK(scale >= 1);
  synth_params p;
  p.assembly = assembly;
  p.seed = seed;
  // hg38 filled many hg19 gaps: give it a smaller gap fraction, so its
  // searchable (non-N) sequence is larger, as on the real assemblies.
  p.gap_fraction = hg38 ? 0.035 : 0.065;
  for (const auto& c : kHuman) {
    const usize kb = hg38 ? c.hg38_kb : c.hg19_kb;
    const usize len = kb * 1000 / scale;
    if (len >= 2048) p.chromosomes.emplace_back(c.name, len);
  }
  if (hg38) {
    // The full hg38 download additionally carries ALT/patch contigs
    // (~170 Mb of near-duplicate sequence with few gaps), which the hg19
    // chromFa bundle lacks — part of why hg38 searches run longer.
    const usize alt_total_kb = 170000;
    const usize alts = 8;
    for (usize a = 0; a < alts; ++a) {
      const usize len = alt_total_kb * 1000 / alts / scale;
      if (len >= 2048) {
        p.chromosomes.emplace_back(util::format("chr_alt%zu", a + 1), len);
      }
    }
  }
  return p;
}

}  // namespace

synth_params hg19_like(usize scale, util::u64 seed) {
  return human_preset("hg19-synth", /*hg38=*/false, scale, seed);
}

synth_params hg38_like(usize scale, util::u64 seed) {
  return human_preset("hg38-synth", /*hg38=*/true, scale, seed);
}

std::vector<planted_site> plant_sites(genome_t& g, const std::string& guide,
                                      const std::string& pattern, usize count,
                                      unsigned mismatches, util::u64 seed) {
  COF_CHECK_MSG(!g.chroms.empty(), "empty genome");
  COF_CHECK_MSG(guide.size() == pattern.size(), "guide/pattern length mismatch");
  COF_CHECK_MSG(mismatches <= guide.size(), "more mismatches than guide bases");
  util::rng rng(seed);
  std::vector<planted_site> planted;
  const usize glen = guide.size();

  // Mutations only where the guide is concrete AND the pattern does not
  // constrain the site (so the PAM survives and a query with 'N' at the PAM
  // sees exactly `mismatches` mismatches).
  std::vector<usize> concrete;
  for (usize i = 0; i < glen; ++i) {
    if (upper_base(guide[i]) != 'N' && upper_base(pattern[i]) == 'N') {
      concrete.push_back(i);
    }
  }
  COF_CHECK_MSG(concrete.size() >= mismatches, "guide too degenerate to mutate");

  usize attempts = 0;
  while (planted.size() < count && attempts < count * 200) {
    ++attempts;
    const usize ci = rng.next_below(g.chroms.size());
    std::string& seq = g.chroms[ci].seq;
    if (seq.size() < glen + 2) continue;
    const usize pos = rng.next_below(seq.size() - glen);
    // Reject sites inside or adjacent to gaps.
    bool bad = false;
    for (usize j = 0; j < glen && !bad; ++j) bad = seq[pos + j] == 'N';
    if (bad) continue;

    // Concretise the guide (each IUPAC code -> one base from its set),
    // then mutate exactly `mismatches` concrete positions.
    std::string site(glen, 'A');
    for (usize j = 0; j < glen; ++j) {
      const char pc = upper_base(guide[j]);
      const util::u8 mask = iupac_mask(pc);
      char base;
      do {
        base = "ACGT"[rng.next_below(4)];
      } while ((iupac_mask(base) & mask) == 0);
      site[j] = base;
    }
    std::vector<usize> mut = concrete;
    for (unsigned m = 0; m < mismatches; ++m) {
      const usize pick = m + rng.next_below(mut.size() - m);
      std::swap(mut[m], mut[pick]);
      const usize j = mut[m];
      const char pc = upper_base(guide[j]);
      char base;
      do {
        base = "ACGT"[rng.next_below(4)];
        // must be a mismatch under the kernels' semantics
      } while (!casoffinder_mismatch(pc, base) || base == site[j]);
      site[j] = base;
    }

    const bool rc = rng.next_bool(0.5);
    const std::string written = rc ? reverse_complement(site) : site;
    seq.replace(pos, glen, written);
    planted.push_back(planted_site{ci, pos, rc ? '-' : '+', mismatches, written});
  }
  COF_CHECK_MSG(planted.size() == count, "could not place all planted sites");
  return planted;
}

std::optional<genome_t> load_synth_uri(const std::string& uri) {
  if (!util::starts_with(uri, "synth:")) return std::nullopt;
  auto bad = [&](const std::string& what) { return fasta_error(what + ": " + uri); };
  const auto parts = util::split(uri, ":");
  if (parts.size() < 2 || parts.size() > 4) {
    throw bad("synth URI wants synth:hg19|hg38[:scale[:seed]]");
  }
  unsigned long long scale = 256, seed = 0;
  if (parts.size() >= 3 && (!util::parse_u64(parts[2], scale) || scale == 0)) {
    throw bad("bad synth scale (a whole number >= 1)");
  }
  if (parts.size() >= 4 && !util::parse_u64(parts[3], seed)) throw bad("bad synth seed");
  const std::string which = util::to_upper(parts[1]);
  synth_params p;
  if (which == "HG19") {
    p = hg19_like(scale, seed != 0 ? seed : 19);
  } else if (which == "HG38") {
    p = hg38_like(scale, seed != 0 ? seed : 38);
  } else {
    throw bad("unknown synth assembly (use hg19 or hg38)");
  }
  if (p.chromosomes.empty()) throw bad("synth scale leaves no chromosome");
  return generate(p);
}

}  // namespace genome
