#include "genome/fasta_stream.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "fault/fault.hpp"
#include "genome/fasta.hpp"
#include "util/strings.hpp"

namespace genome {

fasta_stream::fasta_stream(const std::string& path)
    : source_(path), files_(fasta_files_at(path)), buffer_(kBlockBytes) {
  open_next_file();
}

fasta_stream::fasta_stream(text_tag, std::string_view text)
    : source_("FASTA text"), file_(source_), block_(text.data()), block_end_(text.size()) {}

fasta_stream fasta_stream::from_text(std::string_view text) {
  return fasta_stream(text_tag{}, text);
}

bool fasta_stream::open_next_file() {
  if (next_file_ >= files_.size()) return false;
  file_ = files_[next_file_++];
  auto in = std::make_unique<std::ifstream>(file_, std::ios::binary);
  if (!in->good()) throw fasta_error("cannot open FASTA file: " + file_);
  in_ = std::move(in);
  block_ = buffer_.data();
  block_pos_ = block_end_ = 0;
  eof_ = false;
  return true;
}

bool fasta_stream::next_line(std::string_view& line) {
  carry_.clear();
  for (;;) {
    const char* at = block_ + block_pos_;
    const usize avail = block_end_ - block_pos_;
    if (const void* nl = avail != 0 ? std::memchr(at, '\n', avail) : nullptr) {
      const auto len = static_cast<usize>(static_cast<const char*>(nl) - at);
      block_pos_ += len + 1;
      if (carry_.empty()) {
        line = std::string_view(at, len);
        return true;
      }
      carry_.insert(carry_.end(), at, at + len);
      line = std::string_view(carry_.data(), carry_.size());
      return true;
    }
    carry_.insert(carry_.end(), at, at + avail);
    block_pos_ = block_end_ = 0;
    // Text is one block; a file reads its next.
    if (in_ != nullptr) {
      in_->read(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
      block_end_ = static_cast<usize>(in_->gcount());
    }
    if (block_end_ == 0) {
      // The source's end: a last line without a newline is still a line.
      line = std::string_view(carry_.data(), carry_.size());
      return !carry_.empty();
    }
  }
}

bool fasta_stream::fill_line() {
  // The mid-parse fault site: one hit per call, that is per line handed to
  // next_record/read_bases of a live stream (the blank and comment lines
  // skipped on the way count with it).
  fault::inject_point(fault::site::fasta_parse);
  std::string_view raw;
  while (next_line(raw)) {
    // Classify the trimmed line: skip blanks and legacy ';' comments, and
    // keep only the trimmed text (indent, trailing space and CR cut), so an
    // indented '>' is a header.
    const auto trimmed = util::trim(raw);
    if (trimmed.empty() || trimmed[0] == ';') continue;
    line_ = trimmed;
    return true;
  }
  line_ = {};
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

  const auto words = util::split(line_.substr(1));
  if (words.empty()) throw fasta_error("FASTA header with empty name in " + file_);
  name_ = std::string(words[0]);
  ++records_;
  pending_header_ = false;
  in_record_ = true;
  line_ = {};
  return true;
}

usize fasta_stream::read_bases(std::string& out, usize max_bases) {
  COF_CHECK_MSG(in_record_, "read_bases before next_record");
  const usize start = out.size();
  bool reserved = false;
  while (out.size() - start < max_bases) {
    // A parked '>' line belongs to the next record; never consume it here.
    if (pending_header_ || eof_) break;
    if (line_.empty()) {
      if (!fill_line()) break;
      if (at_header()) {
        pending_header_ = true;
        break;
      }
    }
    if (!reserved) {
      // Room for every base this call can append, reserved before the first
      // one: max_bases, or for text no more than the bytes it has left.
      const usize left = in_ == nullptr ? line_.size() + (block_end_ - block_pos_) : max_bases;
      out.reserve(start + std::min(max_bases, left));
      reserved = true;
    }
    line_.remove_prefix(append_bases(line_, out, max_bases - (out.size() - start)));
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
