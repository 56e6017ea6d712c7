#include "genome/fasta.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>

#include "genome/fasta_stream.hpp"
#include "genome/iupac.hpp"
#include "genome/synth.hpp"
#include "genome/twobit_file.hpp"
#include "util/cpufeat.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace genome {

namespace {

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

#if defined(__x86_64__)

/// upper_base over the whitespace-free prefix of src[0, n), n >= 32, into
/// dst: 32 bytes per AVX2 step, the last step overlapping the one before
/// (it rewrites the same bytes). Returns the prefix's length, a multiple of
/// 32 that stops at the first step holding one of the six isspace bytes, or
/// n when there is none. Runs only where util::simd_lanes_enabled() holds.
__attribute__((target("avx2"))) usize avx2_upper_prefix(const char* src, usize n,
                                                         char* dst) {
  // Signed byte compares: NUL and bytes >= 0x80 are neither space nor
  // lower case, as in kBaseDecode.
  const __m256i after_z = _mm256_set1_epi8('z' + 1);
  const __m256i before_a = _mm256_set1_epi8('a' - 1);
  const __m256i after_cr = _mm256_set1_epi8('\r' + 1);
  const __m256i before_tab = _mm256_set1_epi8('\t' - 1);
  const __m256i space = _mm256_set1_epi8(' ');
  const __m256i case_bit = _mm256_set1_epi8(0x20);
  for (usize i = 0;;) {
    const usize at = std::min(i, n - 32);
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + at));
    const __m256i ws = _mm256_or_si256(
        _mm256_cmpeq_epi8(v, space),
        _mm256_and_si256(_mm256_cmpgt_epi8(v, before_tab), _mm256_cmpgt_epi8(after_cr, v)));
    if (!_mm256_testz_si256(ws, ws)) return i;
    const __m256i lower =
        _mm256_and_si256(_mm256_cmpgt_epi8(v, before_a), _mm256_cmpgt_epi8(after_z, v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + at),
                        _mm256_sub_epi8(v, _mm256_and_si256(lower, case_bit)));
    if (at + 32 == n) return n;
    i = at + 32;
  }
}

#endif  // __x86_64__

/// A synth: URI: a genome line that names a generated genome, not a file.
bool is_synth_uri(const std::string& line) { return util::starts_with(line, "synth:"); }

/// Every record of a FASTA stream, in order.
std::vector<chromosome> read_records(fasta_stream s) {
  std::vector<chromosome> records;
  while (s.next_record()) records.push_back(chromosome{s.record_name(), s.read_all()});
  return records;
}

}  // namespace

usize append_bases(std::string_view line, std::string& out, usize max_bases) {
  const usize old = out.size();
  const usize len = std::min(line.size(), max_bases);
  out.resize(old + len);
  char* dst = out.data() + old;
  usize i = 0;
#if defined(__x86_64__)
  if (len >= 32 && util::simd_lanes_enabled()) i = avx2_upper_prefix(line.data(), len, dst);
#endif
  // The rest of the line (all of it when the prefix stopped at once, or on
  // a scalar host), one table lookup per byte.
  usize n = i;
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
  return read_records(fasta_stream::from_text(text));
}

std::vector<chromosome> read_fasta_file(const std::string& path) {
  return read_records(fasta_stream(path));
}

bool is_fasta_line(const std::string& line) {
  return !is_synth_uri(line) && !is_twobit_path(line);
}

genome_t load_genome(const std::string& line) {
  if (auto synth = load_synth_uri(line)) return std::move(*synth);
  if (is_twobit_path(line)) return read_twobit_file(line);
  genome_t g;
  g.assembly = std::filesystem::path(line).filename().string();
  g.chroms = read_fasta_file(line);
  return g;
}

util::u64 content_hash(const genome_t& g) {
  util::word_hash hash;
  for (const auto& c : g.chroms) {
    hash.feed(c.name);
    hash.feed('\0');
    hash.feed(c.seq);
    hash.feed('\0');
  }
  return hash.digest();
}

source_summary source_summary::of(const genome_t& g) {
  source_summary sum;
  for (const auto& c : g.chroms) sum.names.push_back(c.name);
  sum.total_bases = g.total_bases();
  sum.hash = content_hash(g);
  return sum;
}

std::optional<source_summary> summarize_source(const std::string& line) {
  // Any line but a synth: URI must name a file or directory.
  if (!is_synth_uri(line) && !std::filesystem::exists(line)) {
    return std::nullopt;
  }
  if (!is_fasta_line(line)) return source_summary::of(load_genome(line));
  // content_hash's framing, fed from the stream one block at a time.
  source_summary out;
  util::word_hash hash;
  fasta_stream s(line);
  std::string bases;
  while (s.next_record()) {
    out.names.push_back(s.record_name());
    hash.feed(s.record_name());
    hash.feed('\0');
    for (bases.clear(); s.read_bases(bases, 1 << 16) != 0; bases.clear()) {
      hash.feed(bases);
      out.total_bases += bases.size();
    }
    hash.feed('\0');
  }
  out.hash = hash.digest();
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
