#include "core/config.hpp"

#include <fstream>
#include <sstream>

#include "core/pattern.hpp"
#include "util/strings.hpp"

namespace cof {

namespace {

void require(bool ok, const std::string& message) {
  if (!ok) throw config_error(message);
}

}  // namespace

search_config parse_input(std::string_view text) {
  search_config cfg;
  int field = 0;  // 0 = genome, 1 = pattern, 2+ = queries
  for (std::string_view raw : util::split_lines(text)) {
    const std::string_view line = util::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    switch (field) {
      case 0:
        cfg.genome_path = std::string(line);
        ++field;
        break;
      case 1:
        cfg.pattern = normalize_sequence(line, "pattern");
        ++field;
        break;
      default: {
        const auto words = util::split(line);
        require(words.size() == 2,
                "query line must be '<sequence> <max_mismatches>': " +
                    std::string(line));
        query_spec q;
        q.seq = normalize_sequence(words[0], "guide");
        unsigned long long mm = 0;
        require(util::parse_u64(words[1], mm) && mm <= 0xFFFF,
                "bad mismatch count (0..65535): " + std::string(words[1]));
        q.max_mismatches = static_cast<u16>(mm);
        cfg.queries.push_back(std::move(q));
        break;
      }
    }
  }
  require(field >= 2, "input needs a genome line and a pattern line");
  require(!cfg.queries.empty(), "input has no queries");
  check_guide_lengths(cfg);
  return cfg;
}

query_spec parse_guide(std::string_view spec) {
  query_spec q;
  q.seq = std::string(spec);
  q.max_mismatches = 5;
  if (const auto colon = spec.rfind(':'); colon != std::string_view::npos) {
    q.seq = std::string(spec.substr(0, colon));
    unsigned long long mm = 0;
    require(util::parse_u64(spec.substr(colon + 1), mm) && mm <= 0xFFFF,
            "guide wants GUIDE[:MM] with MM in 0..65535: " + std::string(spec));
    q.max_mismatches = static_cast<u16>(mm);
  }
  require(!q.seq.empty(), "empty guide: " + std::string(spec));
  return q;
}

void check_alphabet(const search_config& cfg) {
  (void)normalize_sequence(cfg.pattern, "pattern");
  for (const auto& q : cfg.queries) (void)normalize_sequence(q.seq, "guide");
}

void check_guide_lengths(const search_config& cfg) {
  for (const auto& q : cfg.queries) {
    require(q.seq.size() == cfg.pattern.size(),
            "query length differs from pattern length: " + q.seq);
  }
}

void check_chunk_size(const std::string& pattern, util::usize max_chunk) {
  const util::usize overlap = pattern.size() - 1;
  require(max_chunk > overlap,
          util::format("chunk size %zu must exceed the pattern length minus one (%zu)",
                       max_chunk, overlap));
}

search_config read_input_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open input file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_input(ss.str());
}

std::string example_input(const std::string& genome_line) {
  // Pattern and queries from the upstream README example [17].
  return genome_line +
         "\n"
         "NNNNNNNNNNNNNNNNNNNNNRG\n"
         "GGCCGACCTGTCGCTGACGCNNN 5\n"
         "CGCCAGCGTCAGCGACAGGTNNN 5\n"
         "ACGGCGCCAGCGTCAGCGACNNN 5\n";
}

}  // namespace cof
