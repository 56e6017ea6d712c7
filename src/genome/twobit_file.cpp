#include "genome/twobit_file.hpp"

#include <algorithm>
#include <fstream>
#include <utility>
#include <vector>

#include "util/strings.hpp"

namespace genome {

namespace {

using util::u32;
using util::u8;

void put_u32(std::string& out, u32 v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

/// Bounds-checked little-endian cursor over a .2bit image: sizes and counts
/// are checked against the bytes left, in 64-bit arithmetic, before
/// anything is allocated or written; a hostile file throws fasta_error.
struct reader {
  const std::string& path;
  std::string data;
  usize pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw fasta_error(what + ": " + path);
  }
  /// Throws unless `n` more bytes are left.
  void need(util::u64 n) const {
    if (pos > data.size() || n > data.size() - pos) fail("truncated .2bit file");
  }
  u32 get_u32() {
    need(4);
    const auto* p = reinterpret_cast<const unsigned char*>(data.data() + pos);
    pos += 4;
    return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
  }
  u8 get_u8() {
    need(1);
    return static_cast<u8>(data[pos++]);
  }
  std::string get_bytes(usize n) {
    need(n);
    std::string s = data.substr(pos, n);
    pos += n;
    return s;
  }
};

/// One index entry and its record's tables, read and bounds-checked before
/// any base is decoded.
struct twobit_record {
  std::string name;
  usize begin = 0;   // the record's first byte
  usize packed = 0;  // its first packed-base byte
  u32 dna_size = 0;
  std::vector<u32> nstarts, nsizes;
};

// UCSC base order: T=0, C=1, A=2, G=3.
constexpr char kDecode[4] = {'T', 'C', 'A', 'G'};

u8 encode_base(char c) {
  switch (c) {
    case 'T': return 0;
    case 'C': return 1;
    case 'A': return 2;
    case 'G': return 3;
    default: return 0;  // N blocks carry the ambiguity; pack as T
  }
}

}  // namespace

bool is_twobit_path(const std::string& path) {
  return path.size() > 5 && path.substr(path.size() - 5) == ".2bit";
}

void write_twobit_file(const std::string& path, const genome_t& g) {
  // Header + index first (offsets need the index size, so lay it out in two
  // passes).
  std::string index;
  usize index_size = 0;
  for (const auto& c : g.chroms) {
    COF_CHECK_MSG(c.name.size() <= 255, ".2bit sequence name too long: " + c.name);
    index_size += 1 + c.name.size() + 4;
  }
  const usize header_size = 16;

  // Per-sequence records.
  std::vector<std::string> records;
  records.reserve(g.chroms.size());
  for (const auto& c : g.chroms) {
    std::string rec;
    put_u32(rec, static_cast<u32>(c.seq.size()));
    // N blocks: runs of non-ACGT.
    std::vector<u32> nstarts, nsizes;
    for (usize i = 0; i < c.seq.size();) {
      const char b = c.seq[i];
      if (b == 'A' || b == 'C' || b == 'G' || b == 'T') {
        ++i;
        continue;
      }
      const usize start = i;
      while (i < c.seq.size() && c.seq[i] != 'A' && c.seq[i] != 'C' &&
             c.seq[i] != 'G' && c.seq[i] != 'T') {
        ++i;
      }
      nstarts.push_back(static_cast<u32>(start));
      nsizes.push_back(static_cast<u32>(i - start));
    }
    put_u32(rec, static_cast<u32>(nstarts.size()));
    for (u32 s : nstarts) put_u32(rec, s);
    for (u32 s : nsizes) put_u32(rec, s);
    put_u32(rec, 0);  // maskBlockCount (input is upper-cased)
    put_u32(rec, 0);  // reserved
    // Packed DNA, first base in the high bits.
    u8 byte = 0;
    int filled = 0;
    for (char b : c.seq) {
      byte = static_cast<u8>((byte << 2) | encode_base(b));
      if (++filled == 4) {
        rec.push_back(static_cast<char>(byte));
        byte = 0;
        filled = 0;
      }
    }
    if (filled != 0) {
      byte = static_cast<u8>(byte << (2 * (4 - filled)));
      rec.push_back(static_cast<char>(byte));
    }
    records.push_back(std::move(rec));
  }

  std::string out;
  put_u32(out, kTwoBitSignature);
  put_u32(out, 0);  // version
  put_u32(out, static_cast<u32>(g.chroms.size()));
  put_u32(out, 0);  // reserved
  usize offset = header_size + index_size;
  for (usize i = 0; i < g.chroms.size(); ++i) {
    out.push_back(static_cast<char>(g.chroms[i].name.size()));
    out += g.chroms[i].name;
    put_u32(out, static_cast<u32>(offset));
    offset += records[i].size();
  }
  for (const auto& rec : records) out += rec;

  std::ofstream f(path, std::ios::binary);
  COF_CHECK_MSG(f.good(), "cannot open for write: " + path);
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  COF_CHECK_MSG(f.good(), "write failed: " + path);
}

genome_t read_twobit_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) throw fasta_error("cannot open .2bit file: " + path);
  reader r{path, {}};
  r.data.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());

  if (r.get_u32() != kTwoBitSignature) r.fail("not a .2bit file (bad signature)");
  if (r.get_u32() != 0) r.fail("unsupported .2bit version");
  const u32 count = r.get_u32();
  r.get_u32();  // reserved

  // The index (name, record offset per entry), then each entry's record
  // tables, all before any base is decoded.
  std::vector<twobit_record> recs;
  for (u32 i = 0; i < count; ++i) {
    twobit_record rec;
    rec.name = r.get_bytes(r.get_u8());
    rec.begin = r.get_u32();
    recs.push_back(std::move(rec));
  }
  const usize index_end = r.pos;
  std::vector<std::pair<usize, usize>> ranges;  // each record's bytes, [begin, end)
  for (auto& rec : recs) {
    if (rec.begin < index_end) r.fail("record starts inside the .2bit header or index");
    r.pos = rec.begin;
    rec.dna_size = r.get_u32();
    const u32 nblocks = r.get_u32();
    r.need(util::u64{nblocks} * 8);
    rec.nstarts.resize(nblocks);
    rec.nsizes.resize(nblocks);
    for (auto& v : rec.nstarts) v = r.get_u32();
    for (auto& v : rec.nsizes) v = r.get_u32();
    const u32 maskblocks = r.get_u32();
    r.need(util::u64{maskblocks} * 8);
    r.pos += usize{maskblocks} * 8;  // mask tables: the search ignores case
    r.get_u32();  // reserved
    const util::u64 packed_bytes = (util::u64{rec.dna_size} + 3) / 4;
    r.need(packed_bytes);
    for (u32 b = 0; b < nblocks; ++b) {
      if (util::u64{rec.nstarts[b]} + rec.nsizes[b] > rec.dna_size) {
        r.fail("N block out of range");
      }
    }
    rec.packed = r.pos;
    ranges.emplace_back(rec.begin, r.pos + packed_bytes);
  }
  // Records own disjoint bytes, so the decoded bases never exceed four per
  // byte of the file.
  std::sort(ranges.begin(), ranges.end());
  for (usize k = 1; k < ranges.size(); ++k) {
    if (ranges[k].first < ranges[k - 1].second) r.fail("overlapping .2bit records");
  }

  genome_t g;
  g.assembly = path;
  for (auto& rec : recs) {
    chromosome c;
    c.name = std::move(rec.name);
    c.seq.resize(rec.dna_size);
    const char* packed = r.data.data() + rec.packed;
    for (u32 i = 0; i < rec.dna_size; ++i) {
      const u8 byte = static_cast<u8>(packed[i >> 2]);
      const int shift = 2 * (3 - static_cast<int>(i & 3));
      c.seq[i] = kDecode[(byte >> shift) & 3];
    }
    for (usize b = 0; b < rec.nstarts.size(); ++b) {
      std::fill_n(c.seq.begin() + rec.nstarts[b], rec.nsizes[b], 'N');
    }
    g.chroms.push_back(std::move(c));
  }
  return g;
}

}  // namespace genome
