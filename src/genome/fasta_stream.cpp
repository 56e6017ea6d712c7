#include "genome/fasta_stream.hpp"

#include <algorithm>
#include <filesystem>

#include "fault/fault.hpp"
#include "genome/fasta.hpp"
#include "util/strings.hpp"

namespace genome {

fasta_stream::fasta_stream(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_.good()) throw fasta_error("cannot open FASTA file: " + path);
}

bool fasta_stream::fill_line() {
  // Same mid-parse site as the buffered parser: one hit per line pulled off
  // the file, firing inside next_record/read_bases of a live stream.
  fault::inject_point(fault::site::fasta_parse);
  line_.clear();
  line_pos_ = 0;
  while (std::getline(in_, line_)) {
    // Classify the trimmed line, as parse_fasta does: skip blanks and legacy
    // ';' comments, and keep only the trimmed text (line_pos_ past the
    // indent, trailing space and CR cut), so an indented '>' is a header
    // here too.
    const auto trimmed = util::trim(line_);
    if (trimmed.empty() || trimmed[0] == ';') continue;
    line_pos_ = static_cast<usize>(trimmed.data() - line_.data());
    line_.resize(line_pos_ + trimmed.size());
    return true;
  }
  eof_ = true;
  return false;
}

bool fasta_stream::next_record() {
  // Skip the remainder of the current record.
  if (in_record_ && !pending_header_) {
    while (fill_line()) {
      if (at_header()) {
        pending_header_ = true;
        break;
      }
    }
  }
  if (!pending_header_) {
    while (fill_line()) {
      if (at_header()) {
        pending_header_ = true;
        break;
      }
      // Sequence data before any header is malformed.
      if (!in_record_) {
        throw fasta_error("FASTA sequence data before any '>' header in " + path_);
      }
    }
  }
  if (!pending_header_) return false;

  const auto words = util::split(std::string_view(line_).substr(line_pos_ + 1));
  if (words.empty()) throw fasta_error("FASTA header with empty name in " + path_);
  name_ = std::string(words[0]);
  pending_header_ = false;
  in_record_ = true;
  line_.clear();
  line_pos_ = 0;
  return true;
}

usize fasta_stream::read_bases(std::string& out, usize max_bases) {
  COF_CHECK_MSG(in_record_, "read_bases before next_record");
  const usize start = out.size();
  out.reserve(start + max_bases);
  while (out.size() - start < max_bases) {
    // A parked '>' line belongs to the next record; never consume it here.
    if (pending_header_ || eof_) break;
    if (line_pos_ >= line_.size()) {
      if (!fill_line()) break;
      if (at_header()) {
        pending_header_ = true;
        break;
      }
    }
    line_pos_ += append_bases(std::string_view(line_).substr(line_pos_), out,
                              max_bases - (out.size() - start));
  }
  return out.size() - start;
}

std::string fasta_stream::read_all() {
  std::string out;
  while (read_bases(out, 1 << 20) != 0) {
  }
  return out;
}

std::vector<std::string> fasta_files_at(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::directory_iterator(path)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".fa" || ext == ".fasta" || ext == ".fna") {
        files.push_back(entry.path().string());
      }
    }
    if (files.empty()) throw fasta_error("no FASTA files in directory: " + path);
    std::sort(files.begin(), files.end());
  } else {
    files.push_back(path);
  }
  return files;
}

}  // namespace genome
