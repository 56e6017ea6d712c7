// Streaming FASTA reader: iterates records and yields their sequence in
// caller-sized blocks without materialising whole chromosomes — what lets
// Cas-OFFinder feed multi-gigabyte assemblies through device-sized chunks
// on a modest host. Handles arbitrary line wrapping, CRLF, '>' descriptions
// and ';' comments like the in-memory parser, and throws the same
// fasta_error on malformed input.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace genome {

using util::usize;

class fasta_stream {
 public:
  explicit fasta_stream(const std::string& path);

  /// Advance to the next record header. Returns false at end of file.
  bool next_record();

  /// Name of the current record (first word of its header line).
  const std::string& record_name() const { return name_; }

  /// Append up to `max_bases` upper-cased bases of the current record to
  /// `out` (room for all of them reserved once, each line decoded by
  /// append_bases). Returns the number appended; 0 means the record is
  /// exhausted.
  usize read_bases(std::string& out, usize max_bases);

  /// Convenience: drain the rest of the current record.
  std::string read_all();

 private:
  /// Refill the line buffer with the next line that is neither blank nor a
  /// comment, trimmed: line_pos_ at its first non-space byte, trailing
  /// space cut. Returns false at EOF.
  bool fill_line();
  /// The line fill_line just read is a '>' header.
  bool at_header() const { return line_[line_pos_] == '>'; }

  std::ifstream in_;
  std::string path_;
  std::string name_;
  std::string line_;        // current (partial) sequence line
  usize line_pos_ = 0;      // consumed prefix of line_
  bool pending_header_ = false;  // line_ holds the next '>' header
  bool in_record_ = false;
  bool eof_ = false;
};

/// Enumerate the FASTA files a genome path denotes: one file, or a sorted
/// directory of *.fa/*.fasta/*.fna. The one lister behind load_genome,
/// summarize_source and the streamed reader; a directory without FASTA
/// files throws fasta_error.
std::vector<std::string> fasta_files_at(const std::string& path);

}  // namespace genome
