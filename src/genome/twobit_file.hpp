// UCSC .2bit container I/O — the format the paper's genome source
// (hgdownload.soe.ucsc.edu [15]) actually distributes assemblies in.
// Implements the published layout: little-endian header with signature
// 0x1A412743, sequence index, and per-sequence records holding N-block and
// soft-mask-block tables plus DNA packed at 2 bits/base (T=0 C=1 A=2 G=3,
// first base in the highest bits of each byte).
#pragma once

#include <string>

#include "genome/fasta.hpp"

namespace genome {

inline constexpr util::u32 kTwoBitSignature = 0x1A412743;

/// Serialise a genome to .2bit. Every non-ACGT base becomes an N block;
/// lower-case (soft-masked) input is not distinguished (the in-memory
/// representation is upper-cased).
void write_twobit_file(const std::string& path, const genome_t& g);

/// Load a .2bit file (N blocks restored as 'N'; mask blocks ignored, as the
/// search is case-insensitive). Throws fasta_error for a file that cannot
/// be opened, is truncated, holds a field past its bounds, or whose records
/// overlap or start inside the header or index (checked before any base is
/// decoded, so the bases never exceed four per byte of the file).
genome_t read_twobit_file(const std::string& path);

/// True if the path has a .2bit extension (load_genome dispatches on this).
bool is_twobit_path(const std::string& path);

}  // namespace genome
