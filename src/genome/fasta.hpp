// FASTA reading/writing and the in-memory genome representation. Handles
// single- and multi-record files, directory loading (UCSC chromFa layout),
// arbitrary line wrapping, lower-case (soft-masked) bases, and '>'
// description lines — the parsing duties Cas-OFFinder delegates to an
// external parser library.
#pragma once

#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace genome {

using util::usize;

/// The genome layer's one input error: a genome line that cannot be read.
/// Malformed FASTA (sequence data before the first '>' header, a header
/// with an empty name), a file that cannot be opened, a directory without
/// FASTA files, a source with no records, a truncated or inconsistent .2bit
/// file, or a malformed synth: URI. Thrown by every reader (load_genome,
/// parse_fasta, read_fasta_file, summarize_source, fasta_stream,
/// read_twobit_file, load_synth_uri), so hostile input fails with a clean
/// error; the CLI reports it and exits 2.
class fasta_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Decode the bytes of one FASTA sequence line onto `out`, at most
/// `max_bases` bases: every byte but the six isspace bytes, through
/// upper_base (NUL and bytes >= 0x80 are kept as they are). Where the
/// host's SIMD lanes are enabled (util::simd_lanes_enabled), a line of 32
/// bytes or more is upper-cased 32 bytes per AVX2 step up to the first step
/// that holds an isspace byte; every other byte takes one table lookup.
/// Returns the number of input bytes consumed, all of them unless max_bases
/// stopped it first.
usize append_bases(std::string_view line, std::string& out,
                   usize max_bases = std::numeric_limits<usize>::max());

struct chromosome {
  std::string name;  // first word of the header line
  std::string seq;   // upper-cased bases
};

struct genome_t {
  std::string assembly;  // label, e.g. "hg19-synth"
  std::vector<chromosome> chroms;

  usize total_bases() const {
    usize n = 0;
    for (const auto& c : chroms) n += c.seq.size();
    return n;
  }
  /// Bases that are a concrete A/C/G/T (i.e. searchable sequence).
  usize non_n_bases() const;
};

/// Parse FASTA text (multi-record). Throws fasta_error on malformed input.
std::vector<chromosome> parse_fasta(std::string_view text);

/// Read one FASTA file. Throws fasta_error when it cannot be opened.
std::vector<chromosome> read_fasta_file(const std::string& path);

/// Load a genome line, the one loader every entry point calls: a
/// "synth:hg19|hg38[:scale[:seed]]" URI (synth.hpp), a .2bit file, or a
/// FASTA file or directory of *.fa/*.fasta/*.fna files (UCSC layout,
/// chromosomes ordered by file name then record). Throws fasta_error when
/// the line cannot be read.
genome_t load_genome(const std::string& line);

/// True for a genome line load_genome reads as FASTA: neither a synth: URI
/// nor a .2bit file. Only these stream record by record (fasta_stream);
/// the others load whole.
bool is_fasta_line(const std::string& line);

/// Order-sensitive word-wise hash (util::word_hash) over every chromosome's
/// name and bases, framed as name NUL bases NUL — the genome identity an
/// index is keyed on. Two genomes with equal names and sizes but different
/// sequence hash differently.
util::u64 content_hash(const genome_t& g);

/// Summary of a genome line: chromosome names, total base count and the
/// content_hash() of the genome load_genome would return. A FASTA line is
/// summarised in one streamed pass without materialising any sequence;
/// synth: and .2bit lines are summarised from the loaded genome. Returns
/// nullopt for a line that names nothing on disk; throws fasta_error as
/// load_genome does.
struct source_summary {
  std::vector<std::string> names;
  usize total_bases = 0;
  util::u64 hash = 0;

  /// The summary of a genome in memory.
  static source_summary of(const genome_t& g);
};
std::optional<source_summary> summarize_source(const std::string& line);

/// Serialise records as FASTA with the given line width.
std::string write_fasta(const std::vector<chromosome>& records, usize width = 60);

/// Write a genome to one FASTA file.
void write_fasta_file(const std::string& path, const std::vector<chromosome>& records,
                      usize width = 60);

}  // namespace genome
