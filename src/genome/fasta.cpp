#include "genome/fasta.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/fault.hpp"
#include "genome/fasta_stream.hpp"
#include "genome/iupac.hpp"
#include "genome/twobit_file.hpp"
#include "util/strings.hpp"

namespace genome {

namespace {

/// Incremental FNV-1a64. Chromosomes are framed as name NUL bases NUL so
/// the hash is order- and boundary-sensitive.
struct fnv64 {
  util::u64 h = 1469598103934665603ULL;
  void feed(char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  void feed(std::string_view s) {
    for (const char c : s) feed(c);
  }
};

/// The whole text of one FASTA file.
std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw fasta_error("cannot open FASTA file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Per byte: its decoded base in the low byte, and bit 8 set unless it is
/// one of the six isspace bytes, which a sequence line drops.
constexpr std::array<util::u16, 256> kBaseDecode = [] {
  std::array<util::u16, 256> t{};
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool space =
        c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
    t[static_cast<usize>(b)] = static_cast<util::u16>(
        static_cast<unsigned char>(upper_base(c)) | (space ? 0u : 0x100u));
  }
  return t;
}();

/// The name of a '>' header line: its first word; a header without one is
/// malformed.
std::string_view header_name(std::string_view line) {
  const auto words = util::split(line.substr(1));
  if (words.empty()) throw fasta_error("FASTA header with empty name");
  return words[0];
}

/// Counting/hashing twin of parse_fasta: identical line and char rules,
/// no sequence materialised. `open` tracks an unclosed chromosome frame
/// across files (directory sources concatenate).
void summarize_fasta_text(std::string_view text, source_summary& out,
                          fnv64& hash, bool& open) {
  std::string bases;
  for (std::string_view line : util::split_lines(text)) {
    line = util::trim(line);
    if (line.empty() || line[0] == ';') continue;
    if (line[0] == '>') {
      const std::string_view name = header_name(line);
      if (open) hash.feed('\0');  // close the previous chromosome's bases
      out.names.emplace_back(name);
      hash.feed(name);
      hash.feed('\0');
      open = true;
      continue;
    }
    if (!open) throw fasta_error("FASTA sequence data before any '>' header");
    bases.clear();
    append_bases(line, bases);
    hash.feed(bases);
    out.total_bases += bases.size();
  }
}

}  // namespace

usize append_bases(std::string_view line, std::string& out, usize max_bases) {
  const usize old = out.size();
  out.resize(old + std::min(line.size(), max_bases));
  char* dst = out.data() + old;
  usize n = 0;
  usize i = 0;
  for (; i < line.size() && n < max_bases; ++i) {
    const util::u16 v = kBaseDecode[static_cast<unsigned char>(line[i])];
    dst[n] = static_cast<char>(v & 0xff);
    n += v >> 8;
  }
  out.resize(old + n);
  return i;
}

usize genome_t::non_n_bases() const {
  usize n = 0;
  for (const auto& c : chroms) {
    for (char b : c.seq) {
      if (b == 'A' || b == 'C' || b == 'G' || b == 'T') ++n;
    }
  }
  return n;
}

std::vector<chromosome> parse_fasta(std::string_view text) {
  std::vector<chromosome> records;
  chromosome* cur = nullptr;
  for (std::string_view line : util::split_lines(text)) {
    line = util::trim(line);
    if (line.empty() || line[0] == ';') continue;  // ';' comments (legacy)
    if (line[0] == '>') {
      records.push_back(chromosome{std::string(header_name(line)), {}});
      cur = &records.back();
      continue;
    }
    if (cur == nullptr) throw fasta_error("FASTA sequence data before any '>' header");
    // Mid-parse fault site: one hit per sequence line, so hit:N lands inside
    // a record with part of its bases already appended.
    fault::inject_point(fault::site::fasta_parse);
    append_bases(line, cur->seq);
  }
  return records;
}

std::vector<chromosome> read_fasta_file(const std::string& path) {
  return parse_fasta(read_text(path));
}

genome_t load_genome(const std::string& path) {
  namespace fs = std::filesystem;
  if (is_twobit_path(path)) return read_twobit_file(path);
  genome_t g;
  g.assembly = fs::path(path).filename().string();
  for (const auto& f : fasta_files_at(path)) {
    for (auto& r : read_fasta_file(f)) g.chroms.push_back(std::move(r));
  }
  if (g.chroms.empty()) throw fasta_error("genome has no sequences: " + path);
  return g;
}

util::u64 content_hash(const genome_t& g) {
  fnv64 hash;
  for (const auto& c : g.chroms) {
    hash.feed(c.name);
    hash.feed('\0');
    hash.feed(c.seq);
    hash.feed('\0');
  }
  return hash.h;
}

std::optional<source_summary> summarize_source(const std::string& path) {
  namespace fs = std::filesystem;
  if (path.empty() || is_twobit_path(path) || !fs::exists(path)) {
    return std::nullopt;
  }
  source_summary out;
  fnv64 hash;
  bool open = false;
  for (const auto& f : fasta_files_at(path)) {
    summarize_fasta_text(read_text(f), out, hash, open);
  }
  if (open) hash.feed('\0');  // close the last chromosome's frame
  out.hash = hash.h;
  return out;
}

std::string write_fasta(const std::vector<chromosome>& records, usize width) {
  COF_CHECK(width > 0);
  std::string out;
  for (const auto& r : records) {
    out += '>';
    out += r.name;
    out += '\n';
    for (usize i = 0; i < r.seq.size(); i += width) {
      out.append(r.seq, i, std::min(width, r.seq.size() - i));
      out += '\n';
    }
  }
  return out;
}

void write_fasta_file(const std::string& path, const std::vector<chromosome>& records,
                      usize width) {
  std::ofstream out(path, std::ios::binary);
  COF_CHECK_MSG(out.good(), "cannot open for write: " + path);
  out << write_fasta(records, width);
  COF_CHECK_MSG(out.good(), "write failed: " + path);
}

}  // namespace genome
