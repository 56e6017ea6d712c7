// Cas-OFFinder input-file format:
//
//   line 1: genome location — a FASTA file, a directory of FASTA files, or
//           (this reproduction's extension) a "synth:hg19[:scale[:seed]]" URI
//   line 2: the PAM-bearing search pattern, IUPAC codes allowed
//   rest  : one query per line: <sequence> <max_mismatches>
//
// All queries must have the pattern's length. '#' and empty lines ignored.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace cof {

using util::u16;

struct query_spec {
  std::string seq;
  u16 max_mismatches = 0;
};

struct search_config {
  std::string genome_path;
  std::string pattern;
  std::vector<query_spec> queries;
};

/// A malformed or unreadable input file. The message names what is wrong
/// and quotes the offending field.
class config_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parse the input-file text. Throws config_error on malformed input: a
/// missing genome or pattern line, no queries, a query line without exactly
/// two fields, a mismatch count that is not a number in [0, 65535], a
/// guide whose length differs from the pattern's, or a non-IUPAC character
/// in the pattern or a guide.
search_config parse_input(std::string_view text);

/// Read and parse an input file from disk. Throws config_error when the
/// file cannot be opened or does not parse.
search_config read_input_file(const std::string& path);

/// Parse one `GUIDE[:MM]` guide spec (the CLI's --query, a serve line): the
/// guide as written and its mismatch count, 5 when `:MM` is absent. Throws
/// config_error for an empty guide or an MM that is not a number in
/// [0, 65535]; the guide's alphabet and length are the search's to check.
query_spec parse_guide(std::string_view spec);

/// parse_input's alphabet rule for a config built in code: throws
/// config_error when the pattern or a guide is empty or holds a non-IUPAC
/// character.
void check_alphabet(const search_config& cfg);

/// parse_input's length rule for a config built in code: throws
/// config_error when a guide's length differs from the pattern's.
void check_guide_lengths(const search_config& cfg);

/// The chunker's rule for a device search: throws config_error unless
/// `max_chunk` exceeds the overlap of consecutive chunks, the pattern's
/// length minus one. Call after check_alphabet (a non-empty pattern).
void check_chunk_size(const std::string& pattern, util::usize max_chunk);

/// The example input of the upstream Cas-OFFinder README [17] (the paper
/// evaluates with it), with the genome line retargeted to a synth URI.
std::string example_input(const std::string& genome_line = "synth:hg19");

}  // namespace cof
