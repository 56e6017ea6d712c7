// Streaming FASTA reader, the one FASTA line parser: iterates records and
// yields their sequence in caller-sized blocks without materialising whole
// chromosomes — what lets Cas-OFFinder feed multi-gigabyte assemblies
// through device-sized chunks on a modest host. Reads one file or a
// directory of FASTA files in blocks of kBlockBytes, or FASTA text held in
// memory in place, splitting lines at '\n' with memchr; handles arbitrary
// line wrapping, CRLF, '>' descriptions and ';' comments, and throws
// fasta_error on malformed input.
// parse_fasta, read_fasta_file, load_genome and summarize_source all read
// through it.
#pragma once

#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/common.hpp"

namespace genome {

using util::usize;

class fasta_stream {
 public:
  /// Bytes of the source read at once; a line longer than this is gathered
  /// across reads.
  static constexpr usize kBlockBytes = usize{1} << 16;

  /// Open a FASTA file, or each FASTA file of a directory in turn
  /// (fasta_files_at order). A record never spans files: every file must
  /// start with a '>' header. Throws fasta_error when a file cannot be
  /// opened or a directory holds no FASTA file.
  explicit fasta_stream(const std::string& path);

  /// Read FASTA text held in memory: lines are split straight from
  /// `text`, with no copy and no read block, so it must outlive the stream.
  static fasta_stream from_text(std::string_view text);

  /// Advance to the next record header. Returns false at the end of the
  /// source; a source that ends without any record throws fasta_error.
  bool next_record();

  /// Name of the current record (first word of its header line).
  const std::string& record_name() const { return name_; }

  /// Append up to `max_bases` upper-cased bases of the current record to
  /// `out` (room for all of them reserved once, before the first, and for
  /// text no more than it has left; each line decoded by append_bases).
  /// Returns the number appended; 0 means the record is exhausted.
  usize read_bases(std::string& out, usize max_bases);

  /// Convenience: drain the rest of the current record.
  std::string read_all();

 private:
  struct text_tag {};
  fasta_stream(text_tag, std::string_view text);
  /// Open the next file of files_. Returns false when none is left.
  bool open_next_file();
  /// The next raw line of the current file, its '\n' cut: a view of the
  /// block, or of carry_ for a line that straddles two reads (or ends the
  /// source without a newline). Valid until the next call. False at the
  /// source's end.
  bool next_line(std::string_view& line);
  /// Point line_ at the next line of the current file that is neither blank
  /// nor a comment, trimmed (indent and trailing space, CR included, cut).
  /// Returns false at the file's end.
  bool fill_line();
  /// The line fill_line just read is a '>' header.
  bool at_header() const { return line_.front() == '>'; }

  std::unique_ptr<std::istream> in_;  // the open file; null for text
  std::string source_;              // the path or "FASTA text", for messages
  std::vector<std::string> files_;  // a path's FASTA files
  usize next_file_ = 0;
  std::string file_;                // the file in_ reads
  std::string name_;
  std::vector<char> buffer_;  // a file's reads, kBlockBytes; empty for text
  const char* block_ = nullptr;  // the bytes being split: buffer_ or the text
  usize block_pos_ = 0;     // next unsplit byte of block_
  usize block_end_ = 0;     // bytes of block_ (the last read, or the text)
  std::vector<char> carry_; // a line gathered across reads
  std::string_view line_;   // unconsumed rest of the current trimmed line
  usize records_ = 0;
  bool pending_header_ = false;  // line_ holds the next '>' header
  bool in_record_ = false;
  bool eof_ = false;        // the current file is exhausted
};

/// Enumerate the FASTA files a genome path denotes: one file, or a sorted
/// directory of *.fa/*.fasta/*.fna. A directory without FASTA files throws
/// fasta_error.
std::vector<std::string> fasta_files_at(const std::string& path);

}  // namespace genome
