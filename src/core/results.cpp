#include "core/results.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <queue>
#include <tuple>

#include "fault/fault.hpp"
#include "genome/iupac.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace cof {

namespace {
auto key(const ot_record& r) {
  return std::tie(r.query_index, r.chrom_index, r.position, r.direction);
}
}  // namespace

void sort_records(std::vector<ot_record>& records) {
  std::sort(records.begin(), records.end(),
            [](const ot_record& a, const ot_record& b) { return key(a) < key(b); });
}

void sort_and_dedup(std::vector<ot_record>& records) {
  sort_records(records);
  records.erase(std::unique(records.begin(), records.end(),
                            [](const ot_record& a, const ot_record& b) {
                              return key(a) == key(b);
                            }),
                records.end());
}

std::string make_site_string(const std::string& query, std::string_view ref_slice,
                             char direction) {
  COF_CHECK(query.size() == ref_slice.size());
  std::string site = direction == '+' ? std::string(ref_slice)
                                      : genome::reverse_complement(ref_slice);
  for (usize k = 0; k < site.size(); ++k) {
    if (genome::casoffinder_mismatch(query[k], site[k])) {
      site[k] = static_cast<char>(site[k] - 'A' + 'a');
    }
  }
  return site;
}

std::string format_records(const std::vector<ot_record>& records,
                           const std::vector<std::string>& query_seqs,
                           const genome::genome_t& g) {
  std::string out;
  for (const auto& r : records) {
    out += util::format("%s\t%s\t%llu\t%s\t%c\t%u\n",
                        query_seqs.at(r.query_index).c_str(),
                        g.chroms.at(r.chrom_index).name.c_str(),
                        static_cast<unsigned long long>(r.position), r.site.c_str(),
                        r.direction, static_cast<unsigned>(r.mismatches));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spill runs: fixed-field little-endian serialisation, one run per spilled
// batch. Run layout: u64 count, u64 payload bytes, then `count` records of
//   u32 query_index, u32 chrom_index, u64 position, char direction,
//   u16 mismatches, u32 site length, site bytes.
// ---------------------------------------------------------------------------

namespace {

template <class T>
void put_raw(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void serialize_record(std::string& buf, const ot_record& r) {
  put_raw(buf, r.query_index);
  put_raw(buf, r.chrom_index);
  put_raw(buf, r.position);
  put_raw(buf, r.direction);
  put_raw(buf, r.mismatches);
  put_raw(buf, static_cast<u32>(r.site.size()));
  buf.append(r.site);
}

/// A serialised record's fixed fields, before its site bytes.
constexpr usize kRecordHead = 2 * sizeof(u32) + sizeof(u64) + sizeof(char) +
                              sizeof(u16) + sizeof(u32);
constexpr usize kRunHead = 2 * sizeof(u64);
/// Read window of one run under merge: its bytes are read this many at a
/// time (fewer at the run's end), never a record at a time.
constexpr usize kMergeWindow = usize{8} << 10;

template <class T>
T take_raw(const char*& p) {
  T v{};
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

/// One positioned read of exactly `n` bytes at `offset`.
void read_at(std::ifstream& in, const std::string& path, u64 offset, char* dst,
             usize n) {
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(dst, static_cast<std::streamsize>(n));
  if (static_cast<usize>(in.gcount()) != n) {
    throw spill_error("spill read failed: " + path);
  }
}

/// One sorted run under merge. `head` is its next record, parsed from a
/// window over the run's payload; the window is refilled with one
/// positioned read on the file the run shares with its neighbours when the
/// next record runs past it.
class run_cursor {
 public:
  run_cursor(std::ifstream& in, const std::string& path, u64 offset, u64 bytes,
             u64 count)
      : in_(&in),
        path_(&path),
        file_pos_(offset),
        file_end_(offset + bytes),
        remaining_(count),
        window_(static_cast<usize>(std::min<u64>(kMergeWindow, bytes))) {}

  /// Parse the run's next record into `head`; false once the run is spent,
  /// which frees its window.
  bool advance() {
    if (remaining_ == 0) {
      window_ = {};
      return false;
    }
    fill(kRecordHead);
    u32 site_len = 0;
    std::memcpy(&site_len, window_.data() + lo_ + kRecordHead - sizeof(u32),
                sizeof(u32));
    const usize len = kRecordHead + site_len;
    fill(len);
    const char* p = window_.data() + lo_;
    head.query_index = take_raw<u32>(p);
    head.chrom_index = take_raw<u32>(p);
    head.position = take_raw<u64>(p);
    head.direction = take_raw<char>(p);
    head.mismatches = take_raw<u16>(p);
    p += sizeof(u32);  // site_len, read above
    head.site.assign(p, site_len);
    lo_ += len;
    --remaining_;
    return true;
  }

  ot_record head;

 private:
  /// Make the window hold at least `n` unparsed bytes: slide the unparsed
  /// tail to the front, then top the window up from the file.
  void fill(usize n) {
    const usize have = hi_ - lo_;
    if (have >= n) return;
    if (n - have > file_end_ - file_pos_) {
      throw spill_error("truncated spill run: " + *path_);
    }
    std::memmove(window_.data(), window_.data() + lo_, have);
    lo_ = 0;
    hi_ = have;
    if (window_.size() < n) window_.resize(n);  // a record wider than a window
    const usize want = static_cast<usize>(
        std::min<u64>(window_.size() - hi_, file_end_ - file_pos_));
    read_at(*in_, *path_, file_pos_, window_.data() + hi_, want);
    file_pos_ += want;
    hi_ += want;
  }

  std::ifstream* in_;
  const std::string* path_;
  u64 file_pos_;   // first run byte not yet read into the window
  u64 file_end_;   // end of the run's payload
  u64 remaining_;  // records not yet parsed
  std::vector<char> window_;
  usize lo_ = 0;  // the unparsed bytes are window_[lo_, hi_)
  usize hi_ = 0;
};

}  // namespace

record_spill_writer::record_spill_writer(std::string path)
    : path_(std::move(path)),
      out_(path_, std::ios::binary | std::ios::trunc) {
  COF_CHECK_MSG(out_.good(), "cannot create spill file " + path_);
}

record_spill_writer::~record_spill_writer() {
  out_.close();
  std::remove(path_.c_str());
}

void record_spill_writer::spill(std::vector<ot_record>& batch) {
  if (batch.empty()) return;
  obs::span sp("spill", "io");
  sp.arg("records", static_cast<double>(batch.size()));
  sort_records(batch);
  std::string payload;
  for (const auto& r : batch) serialize_record(payload, r);
  const u64 count = batch.size();
  const u64 bytes = payload.size();
  const std::streampos run_start = out_.tellp();
  bool failed = fault::should_fail(fault::site::spill_write);
  if (!failed) {
    out_.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out_.write(reinterpret_cast<const char*>(&bytes), sizeof(bytes));
    out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    failed = !out_.good();
  }
  if (failed) {
    // Roll back to the previous run boundary so the file never holds a
    // partial run; the batch stays populated for the caller's retry.
    out_.clear();
    out_.seekp(run_start);
    throw spill_error("spill write failed: " + path_);
  }
  ++runs_;
  records_ += count;
  bytes_ += sizeof(count) + sizeof(bytes) + bytes;
  peak_run_bytes_ = std::max(peak_run_bytes_, payload.size());
  batch.clear();
}

void record_spill_writer::finish() {
  out_.flush();
  if (!out_.good() || fault::should_fail(fault::site::spill_write)) {
    out_.clear();
    throw spill_error("spill flush failed: " + path_);
  }
  out_.close();
}

u64 merge_spill_runs(const std::vector<std::string>& paths,
                     const std::function<void(ot_record&&)>& sink) {
  obs::span sp("merge", "io");
  sp.arg("files", static_cast<double>(paths.size()));
  fault::inject_point(fault::site::spill_merge);
  // One cursor per run; the runs of a file share its stream and each reads
  // through its own window.
  std::vector<std::unique_ptr<std::ifstream>> files;
  std::vector<run_cursor> cursors;
  for (const auto& path : paths) {
    auto in = std::make_unique<std::ifstream>(path, std::ios::binary | std::ios::ate);
    if (!in->good()) throw spill_error("cannot open spill file " + path);
    const u64 size = static_cast<u64>(in->tellg());
    // Index the run headers: (count, bytes) then a payload to skip over. A
    // file cut short fails here, before any record reaches the sink.
    for (u64 offset = 0; offset < size;) {
      if (size - offset < kRunHead) {
        throw spill_error("truncated spill run header: " + path);
      }
      char head[kRunHead] = {};
      read_at(*in, path, offset, head, kRunHead);
      const char* p = head;
      const u64 count = take_raw<u64>(p);
      const u64 bytes = take_raw<u64>(p);
      if (bytes > size - offset - kRunHead) {
        throw spill_error("truncated spill run: " + path);
      }
      if (count != 0) cursors.emplace_back(*in, path, offset + kRunHead, bytes, count);
      offset += kRunHead + bytes;
    }
    files.push_back(std::move(in));
  }

  // Prime every cursor with its first record.
  for (auto& c : cursors) c.advance();

  // Min-heap on the canonical key; ties broken arbitrarily (duplicate keys
  // carry byte-identical payloads, so dedup keeps an equivalent record).
  auto greater = [&cursors](usize a, usize b) {
    return key(cursors[b].head) < key(cursors[a].head);
  };
  std::priority_queue<usize, std::vector<usize>, decltype(greater)> heap(greater);
  for (usize i = 0; i < cursors.size(); ++i) heap.push(i);

  u64 emitted = 0;
  std::tuple<u32, u32, u64, char> last;
  while (!heap.empty()) {
    const usize i = heap.top();
    heap.pop();
    run_cursor& c = cursors[i];
    if (emitted == 0 || key(c.head) != last) {
      last = key(c.head);
      ++emitted;
      sink(std::move(c.head));
    }
    if (c.advance()) heap.push(i);
  }
  return emitted;
}

}  // namespace cof
