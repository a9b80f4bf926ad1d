// PtrTable: the pointer-keyed hash table behind SimCheck's per-event hooks.
//
// The auditor looks up a coroutine frame on every schedule and dispatch, a
// frame address on every Task creation and destruction, and a Resource on
// every acquire and release. A node-based std::unordered_map/set allocated
// or freed a node on each of those inserts and erases; this table keeps its
// entries inline in one flat slot array, so steady-state inserts and erases
// touch no allocator (the array only reallocates when it doubles).
//
//  * Open addressing with linear probing; a null key marks an empty slot,
//    so keys must be non-null (a lookup of nullptr simply finds nothing).
//  * Erase is a real deletion by backward shift: the entries of the probe
//    run after the hole slide back into it, so no tombstones pile up and a
//    lookup's probe length depends only on the live entries.
//  * The home slot is the top bits of the key times a 64-bit odd constant
//    (Fibonacci hashing). Frame addresses come from FrameArena blocks that
//    share their low bits; the product mixes every key bit into the bits
//    that choose the slot.
//  * The load factor stays at or below 1/2.
//
// Never iterated: the slot order depends on addresses, so nothing may walk
// it into the event stream (and the interface offers no way to).
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace ppfs::sim::check {

/// Value type of a membership-only PtrTable (PtrSet); it takes no space.
struct NoValue {};

template <typename V>
class PtrTable {
 public:
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// The value stored under `key`, or nullptr when absent.
  const V* find(const void* key) const noexcept {
    if (size_ == 0) return nullptr;
    const Slot& s = slots_[probe(key)];
    return s.key != nullptr ? &s.value : nullptr;
  }
  V* find(const void* key) noexcept { return const_cast<V*>(std::as_const(*this).find(key)); }
  bool contains(const void* key) const noexcept { return find(key) != nullptr; }

  /// The value stored under `key`, value-initialised when first inserted.
  V& operator[](const void* key) {
    assert(key != nullptr);
    if (2 * (size_ + 1) > capacity_) {
      if (V* v = find(key)) return *v;  // present: no growth needed
      grow();
    }
    Slot& s = slots_[probe(key)];
    if (s.key == nullptr) {
      s.key = key;
      ++size_;
    }
    return s.value;
  }

  /// Insert `key` with a value-initialised value if absent.
  void insert(const void* key) { (void)(*this)[key]; }

  /// Remove `key`; returns whether it was present.
  bool erase(const void* key) noexcept {
    if (size_ == 0) return false;
    std::size_t hole = probe(key);
    if (slots_[hole].key == nullptr) return false;
    for (std::size_t j = next(hole); slots_[j].key != nullptr; j = next(j)) {
      // The entry at j may move back into the hole unless its home slot
      // lies cyclically in (hole, j]: then the hole is before its home.
      const std::size_t from_home = (j - home_slot(slots_[j].key)) & (capacity_ - 1);
      if (from_home >= ((j - hole) & (capacity_ - 1))) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// The slot a key's probe starts at (capacity() must be non-zero).
  /// Exposed so tests can build probe runs that wrap around the array.
  std::size_t home_slot(const void* key) const noexcept {
    assert(capacity_ != 0);
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(key)) * kFibonacci) >>
        shift_);
  }

 private:
  static constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ull;  // 2^64 / golden ratio
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    const void* key = nullptr;
    [[no_unique_address]] V value{};
  };

  std::size_t next(std::size_t i) const noexcept { return (i + 1) & (capacity_ - 1); }

  /// Index of `key`'s slot, or of the empty slot that ends its probe run.
  /// The load factor keeps at least one slot empty, so the probe ends.
  std::size_t probe(const void* key) const noexcept {
    std::size_t i = home_slot(key);
    while (slots_[i].key != nullptr && slots_[i].key != key) i = next(i);
    return i;
  }

  void grow() {
    const std::size_t grown = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    std::unique_ptr<Slot[]> old = std::exchange(slots_, std::make_unique<Slot[]>(grown));
    const std::size_t old_capacity = std::exchange(capacity_, grown);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity_));
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old[i].key != nullptr) slots_[probe(old[i].key)] = std::move(old[i]);
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t capacity_ = 0;  // zero or a power of two
  unsigned shift_ = 64;       // 64 - log2(capacity_)
  std::size_t size_ = 0;
};

/// Membership-only table: insert / contains / erase.
using PtrSet = PtrTable<NoValue>;

}  // namespace ppfs::sim::check
