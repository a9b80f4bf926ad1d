// Tests for the experiment driver and report utilities — these validate
// the harness the paper-table benches are built on.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "workload/experiment.hpp"
#include "workload/generator.hpp"
#include "workload/report.hpp"

namespace ppfs::workload {
namespace {

using pfs::IoMode;

MachineSpec small_machine() {
  MachineSpec m;
  m.ncompute = 4;
  m.nio = 4;
  return m;
}

WorkloadSpec small_spec(IoMode mode) {
  WorkloadSpec w;
  w.mode = mode;
  w.request_size = 64 * 1024;
  w.file_size = 2 * 1024 * 1024;
  w.verify = true;
  return w;
}

TEST(Experiment, RecordModeDeliversWholeFileVerified) {
  Experiment e(small_machine());
  const auto res = e.run(small_spec(IoMode::kRecord));
  EXPECT_EQ(res.total_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(res.reads, 32u);  // 8 rounds x 4 nodes
  EXPECT_EQ(res.verify_failures, 0u);
  EXPECT_GT(res.observed_read_bw_mbs, 0.0);
  EXPECT_GT(res.wall_elapsed, 0.0);
  EXPECT_EQ(res.node_read_time.size(), 4u);
}

TEST(Experiment, EveryModeRunsCleanAndVerifies) {
  Experiment e(small_machine());
  for (auto mode : pfs::all_io_modes()) {
    const auto res = e.run(small_spec(mode));
    EXPECT_EQ(res.verify_failures, 0u) << to_string(mode);
    EXPECT_GT(res.total_bytes, 0u) << to_string(mode);
    if (mode == IoMode::kGlobal) {
      // Every node reads the whole file.
      EXPECT_EQ(res.total_bytes, 4u * 2 * 1024 * 1024);
    } else {
      EXPECT_EQ(res.total_bytes, 2u * 1024 * 1024);
    }
  }
}

TEST(Experiment, SeparateFilesWorkloadVerifies) {
  Experiment e(small_machine());
  auto w = small_spec(IoMode::kAsync);
  w.separate_files = true;
  const auto res = e.run(w);
  EXPECT_EQ(res.verify_failures, 0u);
  EXPECT_EQ(res.total_bytes, 2u * 1024 * 1024);
}

TEST(Experiment, PrefetchingCountsHitsInSteadyState) {
  Experiment e(small_machine());
  auto w = small_spec(IoMode::kRecord);
  w.prefetch = true;
  w.compute_delay = 0.1;
  const auto res = e.run(w);
  EXPECT_EQ(res.verify_failures, 0u);
  // 8 reads per node: first misses, the rest should hit.
  EXPECT_EQ(res.prefetch.misses, 4u);
  EXPECT_EQ(res.prefetch.hits_ready + res.prefetch.hits_in_flight, 28u);
}

TEST(Experiment, PrefetchWithDelayRaisesObservedBandwidth) {
  // The paper's central claim, at harness level.
  Experiment e(small_machine());
  auto base = small_spec(IoMode::kRecord);
  base.file_size = 4 * 1024 * 1024;
  base.compute_delay = 0.05;
  auto pf = base;
  pf.prefetch = true;
  const auto without = e.run(base);
  const auto with = e.run(pf);
  EXPECT_GT(with.observed_read_bw_mbs, without.observed_read_bw_mbs * 1.5);
}

TEST(Experiment, NoDelayPrefetchDoesNotWin) {
  Experiment e(small_machine());
  auto base = small_spec(IoMode::kRecord);
  auto pf = base;
  pf.prefetch = true;
  const auto without = e.run(base);
  const auto with = e.run(pf);
  EXPECT_LE(with.observed_read_bw_mbs, without.observed_read_bw_mbs * 1.05);
}

TEST(Experiment, DeterministicAcrossRuns) {
  Experiment e(small_machine());
  const auto a = e.run(small_spec(IoMode::kRecord));
  const auto b = e.run(small_spec(IoMode::kRecord));
  EXPECT_DOUBLE_EQ(a.wall_elapsed, b.wall_elapsed);
  EXPECT_DOUBLE_EQ(a.observed_read_bw_mbs, b.observed_read_bw_mbs);
}

TEST(Experiment, CustomStripeAttrsRespected) {
  Experiment e(small_machine());
  auto w = small_spec(IoMode::kRecord);
  pfs::StripeAttrs attrs;
  attrs.stripe_unit = 256 * 1024;
  attrs.stripe_group = {0};  // everything on one I/O node
  w.attrs = attrs;
  const auto narrow = e.run(w);
  const auto wide = e.run(small_spec(IoMode::kRecord));
  EXPECT_EQ(narrow.verify_failures, 0u);
  // One I/O node must be slower than four.
  EXPECT_LT(narrow.observed_read_bw_mbs, wide.observed_read_bw_mbs);
}

TEST(Experiment, ReadAccessTimeGrowsWithRequestSize) {
  Experiment e(small_machine());
  const auto t64 = e.read_access_time(64 * 1024);
  const auto t256 = e.read_access_time(256 * 1024);
  const auto t1m = e.read_access_time(1024 * 1024);
  EXPECT_GT(t64, 0.0);
  EXPECT_LT(t64, t256);
  EXPECT_LT(t256, t1m);
}

TEST(Experiment, TooSmallFileThrows) {
  Experiment e(small_machine());
  auto w = small_spec(IoMode::kRecord);
  w.file_size = w.request_size;  // less than one request per node
  EXPECT_THROW(e.run(w), std::invalid_argument);
}

TEST(Pattern, MismatchDetection) {
  std::vector<std::byte> buf(100);
  fill_pattern(7, 1000, buf);
  EXPECT_EQ(find_pattern_mismatch(7, 1000, buf), kNoMismatch);
  EXPECT_NE(find_pattern_mismatch(8, 1000, buf), kNoMismatch);
  buf[42] = static_cast<std::byte>(static_cast<unsigned char>(buf[42]) ^ 0xff);
  EXPECT_EQ(find_pattern_mismatch(7, 1000, buf), 42u);
}

// --- the word-at-a-time pattern kernels against pattern_byte ---------------

constexpr std::uint64_t kTags[] = {0, 1, 7, std::numeric_limits<std::uint64_t>::max()};

/// fill_pattern into the middle of a guarded buffer must equal pattern_byte
/// byte for byte, leave the guard bytes alone, and verify clean.
::testing::AssertionResult fills_like_reference(std::uint64_t tag, FileOffset start,
                                                std::size_t len) {
  constexpr std::size_t kGuard = 8;
  constexpr std::byte kGuardByte{0x5a};
  std::vector<std::byte> buf(len + 2 * kGuard, kGuardByte);
  const auto body = std::span(buf).subspan(kGuard, len);
  fill_pattern(tag, start, body);
  for (std::size_t i = 0; i < len; ++i) {
    if (body[i] != pattern_byte(tag, start + i)) {
      return ::testing::AssertionFailure() << "tag " << tag << " start " << start << " len "
                                           << len << ": byte " << i << " differs";
    }
  }
  for (std::size_t i = 0; i < kGuard; ++i) {
    if (buf[i] != kGuardByte || buf[kGuard + len + i] != kGuardByte) {
      return ::testing::AssertionFailure()
             << "tag " << tag << " start " << start << " len " << len << ": wrote a guard byte";
    }
  }
  if (const std::size_t bad = find_pattern_mismatch(tag, start, body); bad != kNoMismatch) {
    return ::testing::AssertionFailure()
           << "tag " << tag << " start " << start << " len " << len << ": mismatch at " << bad;
  }
  return ::testing::AssertionSuccess();
}

/// Starts whose word sits just below and at each offset-carry threshold:
/// byte i (1..7) of the word at `start` carries out of the low 32 bits of
/// start*kPatternOffMul once that low half reaches 2^32 - i*Bl.
std::vector<FileOffset> carry_threshold_starts() {
  const auto bl = static_cast<std::uint32_t>(kPatternOffMul);
  std::uint32_t inv = bl;  // Newton's iteration for bl^-1 mod 2^32 (bl is odd)
  for (int k = 0; k < 5; ++k) inv *= 2u - bl * inv;
  std::vector<FileOffset> starts;
  for (std::uint32_t i = 1; i < 8; ++i) {
    const std::uint32_t threshold = 0u - i * bl;  // 2^32 - i*Bl
    for (std::uint32_t low : {threshold - 1, threshold}) {
      const FileOffset s = static_cast<std::uint32_t>(low * inv);
      starts.push_back(s);
      starts.push_back(s + (FileOffset{1} << 40));  // same low half, high start
    }
  }
  return starts;
}

TEST(Pattern, CarryThresholdStartsAreExact) {
  const auto starts = carry_threshold_starts();
  ASSERT_EQ(starts.size(), 28u);
  const auto bl = static_cast<std::uint32_t>(kPatternOffMul);
  for (std::size_t k = 0; k < starts.size(); k += 4) {
    const std::uint32_t i = 1 + static_cast<std::uint32_t>(k / 4);
    EXPECT_EQ(static_cast<std::uint32_t>(starts[k] * kPatternOffMul), 0u - i * bl - 1);
    EXPECT_EQ(static_cast<std::uint32_t>(starts[k + 2] * kPatternOffMul), 0u - i * bl);
  }
}

TEST(Pattern, FillMatchesByteReference) {
  for (std::uint64_t tag : kTags) {
    for (FileOffset start = 0; start < 16; ++start) {
      for (std::size_t len = 0; len <= 40; ++len) {
        ASSERT_TRUE(fills_like_reference(tag, start, len));
      }
    }
    for (FileOffset start : carry_threshold_starts()) {
      for (FileOffset nudge : {FileOffset{0}, FileOffset{1}}) {
        ASSERT_TRUE(fills_like_reference(tag, start - nudge, 41));
      }
    }
    for (FileOffset start : {FileOffset{1} << 40, (FileOffset{1} << 40) + 13,
                             (FileOffset{1} << 63) - 5}) {
      ASSERT_TRUE(fills_like_reference(tag, start, 40));
    }
    ASSERT_TRUE(fills_like_reference(tag, 0, 1024 * 1024));
    ASSERT_TRUE(fills_like_reference(tag, 1000003, 1024 * 1024 + 5));
  }
}

TEST(Pattern, MismatchReportsTheExactIndex) {
  // 47 bytes: a head word, four body words and a 7-byte tail; every
  // position is flipped once, for starts of each alignment.
  for (std::uint64_t tag : kTags) {
    for (FileOffset start : {FileOffset{0}, FileOffset{3}, FileOffset{7},
                             (FileOffset{1} << 40) + 5}) {
      std::vector<std::byte> buf(47);
      fill_pattern(tag, start, buf);
      for (std::size_t pos = 0; pos < buf.size(); ++pos) {
        const std::byte flip{static_cast<unsigned char>(1u << (pos % 8))};
        buf[pos] ^= flip;
        EXPECT_EQ(find_pattern_mismatch(tag, start, buf), pos)
            << "tag " << tag << " start " << start;
        buf[pos] ^= flip;
      }
      EXPECT_EQ(find_pattern_mismatch(tag, start, buf), kNoMismatch);
    }
  }
  // A 1 MB span: each position mod 8 in the head, the body and the tail.
  std::vector<std::byte> big(1024 * 1024 + 5);
  fill_pattern(9, 77, big);
  for (std::size_t base : {std::size_t{0}, big.size() / 2, big.size() - 13}) {
    for (std::size_t pos = base; pos < base + 8; ++pos) {
      big[pos] ^= std::byte{0xff};
      EXPECT_EQ(find_pattern_mismatch(9, 77, big), pos);
      big[pos] ^= std::byte{0xff};
    }
  }
  EXPECT_EQ(find_pattern_mismatch(9, 77, big), kNoMismatch);
}

TEST(Pattern, MismatchReportsTheEarlierOfTwo) {
  std::vector<std::byte> buf(61);  // seven words and a 5-byte tail
  fill_pattern(7, 5, buf);
  for (auto [first, second] : {std::pair<std::size_t, std::size_t>{2, 6},  // one word
                               {6, 9},                                      // adjacent words
                               {12, 60}}) {                                 // body and tail
    buf[first] ^= std::byte{0x10};
    buf[second] ^= std::byte{0x10};
    EXPECT_EQ(find_pattern_mismatch(7, 5, buf), first);
    buf[first] ^= std::byte{0x10};
    buf[second] ^= std::byte{0x10};
  }
}

TEST(Pattern, EmptySpanIsClean) {
  EXPECT_EQ(find_pattern_mismatch(7, 123, std::span<const std::byte>{}), kNoMismatch);
  fill_pattern(7, 123, std::span<std::byte>{});  // writes nothing
}

TEST(Report, TextTableAlignsColumns) {
  TextTable t({"Request", "BW (MB/s)"});
  t.add_row({"64KB", "3.10"});
  t.add_row({"1MB", "12.75"});
  t.add_rule();
  t.add_row({"total", "15.85"});
  const auto s = t.str();
  EXPECT_NE(s.find("Request"), std::string::npos);
  EXPECT_NE(s.find("64KB"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  // Every line has the same length (alignment).
  std::size_t line_len = std::string::npos;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const auto nl = s.find('\n', pos);
    const auto len = nl - pos;
    if (line_len == std::string::npos) line_len = len;
    EXPECT_EQ(len, line_len);
    pos = nl + 1;
  }
}

TEST(Report, TextTableRejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Report, ByteFormatting) {
  EXPECT_EQ(fmt_bytes(64 * 1024), "64KB");
  EXPECT_EQ(fmt_bytes(1024 * 1024), "1MB");
  EXPECT_EQ(fmt_bytes(8ull * 1024 * 1024 * 1024), "8GB");
  EXPECT_EQ(fmt_bytes(1000), "1000B");
  EXPECT_EQ(fmt_bytes(1536), "1536B");
}

TEST(Report, NumberFormatting) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_time(0.4123), "0.412s");
  EXPECT_EQ(fmt_percent(0.875), "87.5%");
}

// Regression: a zero-op experiment (or a zero-bandwidth baseline in a
// --compare speedup) divides 0/0, and the NaN used to print as "nan"/"nan%"
// mid-table. Non-finite values now render as "n/a" / "0.0%".
TEST(Report, NonFiniteValuesDoNotPrintNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(fmt_double(nan), "n/a");
  EXPECT_EQ(fmt_double(inf), "n/a");
  EXPECT_EQ(fmt_double(-inf), "n/a");
  EXPECT_EQ(fmt_percent(nan), "0.0%");
  EXPECT_EQ(fmt_percent(inf), "0.0%");
  EXPECT_EQ(fmt_percent(0.0), "0.0%");
  // fmt_time rides on fmt_double, so a NaN duration degrades the same way.
  EXPECT_EQ(fmt_time(nan), "n/as");
}

}  // namespace
}  // namespace ppfs::workload
