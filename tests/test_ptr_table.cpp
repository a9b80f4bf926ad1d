// Property tests for PtrTable, the open-addressing pointer-keyed table
// behind SimCheck's per-event hooks, with std::unordered_map as the
// reference model. Keys are synthetic 16- and 64-byte-aligned addresses
// (never dereferenced), the alignments of FrameArena frames and of heap
// objects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <unordered_map>
#include <vector>

#include "sim/check/ptr_table.hpp"

namespace ppfs::sim::check {
namespace {

using Table = PtrTable<std::int64_t>;
using Reference = std::unordered_map<const void*, std::int64_t>;

const void* key_at(std::uint64_t i, std::uint64_t align) {
  return reinterpret_cast<const void*>(0x7f3a00000000ull + i * align);
}

// Table and reference agree on size, on every live key's value, and on
// the absence of every other key of the universe.
void expect_agrees(const Table& t, const Reference& ref, std::uint64_t universe,
                   std::uint64_t align) {
  ASSERT_EQ(t.size(), ref.size());
  for (std::uint64_t i = 0; i < universe; ++i) {
    const void* k = key_at(i, align);
    const auto it = ref.find(k);
    const std::int64_t* v = t.find(k);
    if (it == ref.end()) {
      ASSERT_EQ(v, nullptr) << "key " << i << " found after erase";
    } else {
      ASSERT_NE(v, nullptr) << "key " << i << " lost";
      ASSERT_EQ(*v, it->second) << "key " << i;
    }
  }
}

class PtrTableProperty : public ::testing::TestWithParam<std::uint64_t> {};

// ~10^5 seeded operations in phases: insert-heavy growth, a mixed phase,
// and an erase-heavy drain whose backward shifts run across the end of the
// slot array many times.
TEST_P(PtrTableProperty, SeededOpsAgreeWithReference) {
  const std::uint64_t align = GetParam();
  constexpr std::uint64_t kUniverse = 6000;
  std::mt19937_64 rng(0x5eed0000 + align);
  Table t;
  Reference ref;
  std::uint64_t ops = 0;
  // Percent of insert / erase operations per phase; the rest are lookups.
  const struct { int insert, erase, count; } phases[] = {
      {70, 10, 20000}, {35, 35, 20000}, {10, 80, 20000},
      {60, 30, 15000}, {5, 90, 15000}, {40, 40, 10000},
  };
  for (const auto& ph : phases) {
    for (int n = 0; n < ph.count; ++n, ++ops) {
      const void* k = key_at(rng() % kUniverse, align);
      const int roll = static_cast<int>(rng() % 100);
      if (roll < ph.insert) {
        const auto delta = static_cast<std::int64_t>(rng() % 7) - 3;
        t[k] += delta;
        ref[k] += delta;
      } else if (roll < ph.insert + ph.erase) {
        ASSERT_EQ(t.erase(k), ref.erase(k) == 1);
      } else {
        const auto it = ref.find(k);
        const std::int64_t* v = t.find(k);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
      }
      if (ops % 5000 == 0) expect_agrees(t, ref, kUniverse, align);
    }
    expect_agrees(t, ref, kUniverse, align);
    ASSERT_LE(2 * t.size(), t.capacity());
  }
  EXPECT_EQ(ops, 100000u);
}

INSTANTIATE_TEST_SUITE_P(Alignments, PtrTableProperty, ::testing::Values(16u, 64u));

// Keys whose home slots are the last two of the array build one probe run
// that wraps to slot 0. Erasing them in every order must keep every other
// key reachable: each erase shifts entries back across the wrap-around.
TEST(PtrTable, BackwardShiftAcrossWrapAround) {
  for (const std::uint64_t align : {16u, 64u}) {
    Table probe_layout;
    probe_layout[key_at(0, align)] = 0;  // allocates the minimum capacity
    const std::size_t cap = probe_layout.capacity();
    // Two keys homed at cap-2, two at cap-1, two at 0: a six-entry run
    // occupying slots cap-2 .. 3.
    std::vector<const void*> run;
    const std::size_t homes[] = {cap - 2, cap - 2, cap - 1, cap - 1, 0, 0};
    for (const std::size_t home : homes) {
      for (std::uint64_t i = 1;; ++i) {
        const void* k = key_at(i, align);
        if (probe_layout.home_slot(k) == home &&
            std::find(run.begin(), run.end(), k) == run.end()) {
          run.push_back(k);
          break;
        }
      }
    }
    std::vector<std::size_t> order(run.size());
    std::iota(order.begin(), order.end(), 0);
    do {
      Table t;
      for (std::size_t i = 0; i < run.size(); ++i) t[run[i]] = static_cast<std::int64_t>(i);
      ASSERT_EQ(t.capacity(), cap);
      std::vector<bool> live(run.size(), true);
      for (const std::size_t victim : order) {
        ASSERT_TRUE(t.erase(run[victim]));
        live[victim] = false;
        for (std::size_t i = 0; i < run.size(); ++i) {
          const std::int64_t* v = t.find(run[i]);
          if (live[i]) {
            ASSERT_NE(v, nullptr) << "align " << align << ": key " << i << " lost";
            ASSERT_EQ(*v, static_cast<std::int64_t>(i));
          } else {
            ASSERT_EQ(v, nullptr);
          }
        }
      }
      ASSERT_EQ(t.size(), 0u);
    } while (std::next_permutation(order.begin(), order.end()));
  }
}

// The table grows only when an insert would push the load past 1/2, keeps
// every value across the rehash, and never grows for a key already present.
TEST(PtrTable, GrowthWhileNearlyFull) {
  Table t;
  std::uint64_t next = 0;
  t[key_at(next, 16)] = 0;
  ++next;
  while (t.capacity() < 8192) {
    const std::size_t cap = t.capacity();
    while (2 * (t.size() + 1) <= cap) {
      t[key_at(next, 16)] = static_cast<std::int64_t>(next);
      ++next;
    }
    ASSERT_EQ(2 * t.size(), cap);  // exactly at the load limit
    t[key_at(0, 16)] += 0;         // present: no growth
    ASSERT_EQ(t.capacity(), cap);
    t[key_at(next, 16)] = static_cast<std::int64_t>(next);  // one more: doubles
    ++next;
    ASSERT_EQ(t.capacity(), 2 * cap);
    for (std::uint64_t i = 0; i < next; ++i) {
      const std::int64_t* v = t.find(key_at(i, 16));
      ASSERT_NE(v, nullptr) << "key " << i << " lost growing to " << 2 * cap;
      ASSERT_EQ(*v, static_cast<std::int64_t>(i));
    }
  }
}

// Deletion leaves no tombstones: churning 10^5 distinct keys through a
// table that never holds more than eight keeps the minimum capacity.
TEST(PtrTable, ChurnKeepsMinimumCapacity) {
  PtrSet s;
  std::vector<const void*> live;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    const void* k = key_at(i, 64);
    s.insert(k);
    live.push_back(k);
    if (live.size() == 8) {
      for (const void* d : live) ASSERT_TRUE(s.erase(d));
      live.clear();
    }
  }
  EXPECT_EQ(s.capacity(), 16u);
  EXPECT_EQ(s.size(), live.size());
  for (const void* k : live) EXPECT_TRUE(s.contains(k));
}

TEST(PtrTable, EmptyAndNullKeysFindNothing) {
  Table t;
  EXPECT_EQ(t.find(key_at(1, 16)), nullptr);
  EXPECT_FALSE(t.erase(key_at(1, 16)));
  EXPECT_EQ(t.find(nullptr), nullptr);
  t[key_at(1, 16)] = 5;
  EXPECT_EQ(t.find(nullptr), nullptr);
  EXPECT_FALSE(t.erase(nullptr));
  EXPECT_FALSE(t.erase(key_at(2, 16)));
  EXPECT_EQ(t.size(), 1u);
}

}  // namespace
}  // namespace ppfs::sim::check
