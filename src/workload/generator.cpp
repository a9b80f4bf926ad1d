#include "workload/generator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace ppfs::workload {

namespace {

// Word-at-a-time pattern kernel. pattern_byte(tag, off) is T ^ (bits 32..39
// of off*B), with T = pattern_byte(tag, 0) and B = kPatternOffMul. Over the
// eight offsets off..off+7, off*B grows by B per byte. Split X = off*B into
// its low half L and the byte Hh at bits 32..39, and B likewise into Bl and
// Bh: byte i of the word is Hh + i*Bh + c_i (mod 256), where c_i is the
// carry of L + i*Bl out of the low 32 bits. Because 7*Bl < 2^32, c_i is 0
// or 1, and it is 1 exactly for i > q = (2^32 - 1 - L) / Bl, so (q, Hh)
// selects the whole word from a table. q runs 0..8; rows 7 and 8 (no byte
// carries) are equal, which keeps the row index free of a clamp.
constexpr std::uint32_t kBl = static_cast<std::uint32_t>(kPatternOffMul);
constexpr std::uint64_t kBh = (kPatternOffMul >> 32) & 0xff;
static_assert(std::uint64_t{7} * kBl < (std::uint64_t{1} << 32),
              "each byte of a word carries at most once");
static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "words are laid out for a little- or big-endian host");

constexpr std::uint64_t kWordStep = 8 * kPatternOffMul;  // X advance per word (mod 2^64)
constexpr std::uint64_t kEachByte = 0x0101010101010101ull;

// Shift that puts byte i of a word at out[i] once the word is memcpy'd.
constexpr unsigned byte_shift(unsigned i) {
  return 8 * (std::endian::native == std::endian::little ? i : 7 - i);
}

using WordTable = std::array<std::array<std::uint64_t, 256>, 9>;

constexpr WordTable make_word_table() {
  WordTable t{};
  for (unsigned q = 0; q < t.size(); ++q) {
    for (unsigned hh = 0; hh < 256; ++hh) {
      std::uint64_t w = 0;
      for (unsigned i = 0; i < 8; ++i) {
        const std::uint64_t c = i > q ? 1 : 0;
        w |= ((hh + i * kBh + c) & 0xff) << byte_shift(i);
      }
      t[q][hh] = w;
    }
  }
  return t;
}

constexpr WordTable kWords = make_word_table();

// The pattern's eight bytes at the offsets whose X is `x`; `tag_bytes` is T
// in every byte.
inline std::uint64_t pattern_word(std::uint64_t tag_bytes, std::uint64_t x) {
  const std::uint32_t q = ~static_cast<std::uint32_t>(x) / kBl;
  return kWords[q][(x >> 32) & 0xff] ^ tag_bytes;
}

inline std::uint64_t tag_bytes_of(std::uint64_t tag) {
  return std::to_integer<std::uint64_t>(pattern_byte(tag, 0)) * kEachByte;
}

}  // namespace

const char* pattern_name(AccessPattern p) {
  switch (p) {
    case AccessPattern::kInterleaved: return "interleaved";
    case AccessPattern::kOwnRegion: return "own-region";
    case AccessPattern::kStrided: return "strided";
    case AccessPattern::kListIo: return "listio";
  }
  return "?";
}

FileOffset strided_offset(const WorkloadSpec& w, int rank, int nprocs, std::uint64_t k) {
  const auto step = static_cast<FileOffset>(nprocs) * w.stride;
  return (static_cast<FileOffset>(rank) + k * step) * w.request_size;
}

std::uint64_t strided_reads_per_node(const WorkloadSpec& w, int nprocs) {
  const ByteCount round = w.request_size * static_cast<ByteCount>(nprocs) *
                          static_cast<ByteCount>(w.stride);
  return round ? w.file_size / round : 0;
}

ByteCount listio_frame_bytes(const WorkloadSpec& w) {
  return w.request_size * (2 * static_cast<ByteCount>(w.listio_extents) + 1);
}

FileOffset listio_offset(const WorkloadSpec& w, int rank, int nprocs, std::uint64_t k) {
  const auto extents = static_cast<std::uint64_t>(w.listio_extents);
  const std::uint64_t frame = k / extents;
  const std::uint64_t slot = k % extents;
  const ByteCount share = w.file_size / nprocs;
  return static_cast<FileOffset>(rank) * share + frame * listio_frame_bytes(w) +
         slot * 2 * w.request_size;
}

std::uint64_t listio_reads_per_node(const WorkloadSpec& w, int nprocs) {
  const ByteCount share = w.file_size / nprocs;
  const ByteCount frame = listio_frame_bytes(w);
  return frame ? (share / frame) * static_cast<std::uint64_t>(w.listio_extents) : 0;
}

void fill_pattern(std::uint64_t tag, FileOffset start, std::span<std::byte> out) {
  const std::uint64_t tag_bytes = tag_bytes_of(tag);
  std::uint64_t x = start * kPatternOffMul;
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8, x += kWordStep) {
    const std::uint64_t w = pattern_word(tag_bytes, x);
    std::memcpy(out.data() + i, &w, 8);
  }
  if (i < out.size()) {
    const std::uint64_t w = pattern_word(tag_bytes, x);
    std::memcpy(out.data() + i, &w, out.size() - i);
  }
}

std::size_t find_pattern_mismatch(std::uint64_t tag, FileOffset start,
                                  std::span<const std::byte> data) {
  // Word compares find the first bad word; bytes locate the index in it.
  const auto first_bad_byte = [&](std::size_t i) {
    while (data[i] == pattern_byte(tag, start + i)) ++i;
    return i;
  };
  const std::uint64_t tag_bytes = tag_bytes_of(tag);
  std::uint64_t x = start * kPatternOffMul;
  std::size_t i = 0;
  // Four words per test: one branch per 32 bytes keeps the loads streaming.
  for (; i + 32 <= data.size(); i += 32, x += 4 * kWordStep) {
    std::uint64_t got[4];
    std::memcpy(got, data.data() + i, sizeof got);
    const std::uint64_t diff = (got[0] ^ pattern_word(tag_bytes, x)) |
                               (got[1] ^ pattern_word(tag_bytes, x + kWordStep)) |
                               (got[2] ^ pattern_word(tag_bytes, x + 2 * kWordStep)) |
                               (got[3] ^ pattern_word(tag_bytes, x + 3 * kWordStep));
    if (diff != 0) return first_bad_byte(i);
  }
  // The last 0..31 bytes a word at a time; bytes past the end compare equal.
  for (; i < data.size(); i += 8, x += kWordStep) {
    const std::uint64_t want = pattern_word(tag_bytes, x);
    std::uint64_t got = want;
    std::memcpy(&got, data.data() + i, std::min<std::size_t>(8, data.size() - i));
    if (got != want) return first_bad_byte(i);
  }
  return kNoMismatch;
}

}  // namespace ppfs::workload
