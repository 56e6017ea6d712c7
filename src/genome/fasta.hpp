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

/// Malformed or unreadable FASTA input: sequence data before the first '>'
/// header, a header with an empty name, a file that cannot be opened, a
/// directory without FASTA files, or a genome source with no records.
/// Thrown by parse_fasta, load_genome, summarize_source, fasta_files_at and
/// the streamed reader alike, so a hostile source fails with a clean error.
class fasta_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Decode the bytes of one FASTA sequence line onto `out`, at most
/// `max_bases` bases: every byte but the six isspace bytes, through
/// upper_base (NUL and bytes >= 0x80 are kept as they are). One table
/// lookup per byte and one resize per call. Returns the number of input
/// bytes consumed, all of them unless max_bases stopped it first.
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

/// Load a genome from a path: a FASTA file, or a directory of *.fa/*.fasta
/// files (UCSC layout). Chromosomes are ordered by file name then record.
/// A source with no records throws fasta_error, as the streamed reader
/// does.
genome_t load_genome(const std::string& path);

/// Order-sensitive FNV-1a over every chromosome's name and bases — the
/// genome identity an index is keyed on. Two genomes with equal names and
/// sizes but different sequence hash differently.
util::u64 content_hash(const genome_t& g);

/// Decode-free summary of a genome source: chromosome names, total base
/// count and the same content_hash() a full load would produce, computed in
/// one pass with parse_fasta's exact char rules but without materialising
/// any sequence. Returns nullopt for sources that cannot be summarised
/// cheaply (missing paths, .2bit containers, synth: URIs).
struct source_summary {
  std::vector<std::string> names;
  usize total_bases = 0;
  util::u64 hash = 0;
};
std::optional<source_summary> summarize_source(const std::string& path);

/// Serialise records as FASTA with the given line width.
std::string write_fasta(const std::vector<chromosome>& records, usize width = 60);

/// Write a genome to one FASTA file.
void write_fasta_file(const std::string& path, const std::vector<chromosome>& records,
                      usize width = 60);

}  // namespace genome
