#include "genome/fasta_stream.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/fault.hpp"
#include "genome/fasta.hpp"
#include "util/strings.hpp"

namespace genome {

fasta_stream::fasta_stream(const std::string& path)
    : source_(path), files_(fasta_files_at(path)) {
  open_next_file();
}

fasta_stream::fasta_stream(std::unique_ptr<std::istream> in, std::string source)
    : in_(std::move(in)), source_(std::move(source)), file_(source_) {}

fasta_stream fasta_stream::from_text(std::string_view text) {
  return fasta_stream(std::make_unique<std::istringstream>(std::string(text)),
                      "FASTA text");
}

bool fasta_stream::open_next_file() {
  if (next_file_ >= files_.size()) return false;
  file_ = files_[next_file_++];
  auto in = std::make_unique<std::ifstream>(file_, std::ios::binary);
  if (!in->good()) throw fasta_error("cannot open FASTA file: " + file_);
  in_ = std::move(in);
  eof_ = false;
  return true;
}

bool fasta_stream::fill_line() {
  // The mid-parse fault site: one hit per line pulled off the source, firing
  // inside next_record/read_bases of a live stream.
  fault::inject_point(fault::site::fasta_parse);
  line_.clear();
  line_pos_ = 0;
  while (std::getline(*in_, line_)) {
    // Classify the trimmed line: skip blanks and legacy ';' comments, and
    // keep only the trimmed text (line_pos_ past the indent, trailing space
    // and CR cut), so an indented '>' is a header.
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
  // Skip the rest of the current record up to the next header; at a file's
  // end, go on with the next file, which must start with a header.
  while (!pending_header_) {
    if (fill_line()) {
      if (at_header()) {
        pending_header_ = true;
      } else if (!in_record_) {
        throw fasta_error("FASTA sequence data before any '>' header in " + file_);
      }
      continue;
    }
    in_record_ = false;
    if (!open_next_file()) {
      if (records_ == 0) throw fasta_error("genome has no sequences: " + source_);
      return false;
    }
  }

  const auto words = util::split(std::string_view(line_).substr(line_pos_ + 1));
  if (words.empty()) throw fasta_error("FASTA header with empty name in " + file_);
  name_ = std::string(words[0]);
  ++records_;
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
