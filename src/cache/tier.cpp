#include "cache/tier.hpp"

#include <algorithm>
#include <utility>

namespace ppfs::cache {

CacheTierStats& CacheTierStats::operator+=(const CacheTierStats& o) {
  lookups += o.lookups;
  hits += o.hits;
  misses += o.misses;
  inserts += o.inserts;
  evictions += o.evictions;
  journal_flushes += o.journal_flushes;
  recoveries += o.recoveries;
  recovered_blocks += o.recovered_blocks;
  torn_entries_dropped += o.torn_entries_dropped;
  stale_entries_dropped += o.stale_entries_dropped;
  out_of_range_bits_dropped += o.out_of_range_bits_dropped;
  if (o.recoveries > 0) {
    warm_lookups += o.warm_lookups;
    warm_hits += o.warm_hits;
  }
  bytes_served += o.bytes_served;
  last_recovery_time = std::max(last_recovery_time, o.last_recovery_time);
  total_recovery_time += o.total_recovery_time;
  return *this;
}

CacheTier::CacheTier(sim::Simulation& sim, std::string name, CacheTierParams params,
                     InodeQuery gen_of, InodeQuery blocks_of)
    : sim_(sim),
      name_(std::move(name)),
      params_(params),
      gen_of_(std::move(gen_of)),
      blocks_of_(std::move(blocks_of)),
      channel_(sim, 1),
      eviction_(make_eviction(params.eviction)) {}

CacheTier::~CacheTier() {
  if (auto* a = auditor()) {
    a->check_cache_bitmap_conservation(sim_.now(), this, resident_blocks_,
                                       /*in_destructor=*/true);
  }
}

// --- data path --------------------------------------------------------------

bool CacheTier::resident(std::uint32_t ino, std::uint64_t lblock) const noexcept {
  const auto it = info_.find(ino);
  return it != info_.end() && it->second.test(lblock);
}

void CacheTier::note_hit(std::uint32_t ino, std::uint64_t lblock) {
  ++stats_.lookups;
  ++stats_.hits;
  ++stats_.warm_lookups;
  ++stats_.warm_hits;
  stats_.bytes_served += params_.block_bytes;
  eviction_->on_access(BlockKey{ino, lblock});
}

void CacheTier::note_miss_blocks(std::uint64_t count) {
  stats_.lookups += count;
  stats_.misses += count;
  stats_.warm_lookups += count;
}

sim::Task<void> CacheTier::read_hit(std::uint64_t blocks) {
  co_await transfer(blocks * params_.block_bytes);
}

sim::Task<void> CacheTier::transfer(ByteCount bytes) {
  auto guard = co_await channel_.acquire();
  const sim::SimTime t =
      params_.device_latency + static_cast<double>(bytes) / params_.device_bandwidth;
  channel_.note_busy(t);
  co_await sim_.delay(t);
}

void CacheTier::insert(std::uint32_t ino, std::uint64_t generation, std::uint64_t lblock) {
  auto it = info_.find(ino);
  if (it != info_.end() && it->second.generation != generation) {
    // The file was recreated under this ino; the old residency is dead.
    drop_entry_volatile(ino);
    it = info_.end();
  }
  if (it == info_.end()) {
    CacheFileInfo fresh;
    fresh.ino = ino;
    fresh.generation = generation;
    it = info_.emplace(ino, std::move(fresh)).first;
  }
  if (it->second.set(lblock)) {
    ++resident_blocks_;
    ++stats_.inserts;
    if (auto* a = auditor()) a->on_cache_bit_set(this);
    eviction_->on_insert(BlockKey{ino, lblock});
    mark_dirty(ino);
    evict_to_capacity();
  } else {
    // Rewrite of an already-resident block refreshes its recency only.
    eviction_->on_access(BlockKey{ino, lblock});
  }
}

// --- journal ----------------------------------------------------------------

void CacheTier::mark_dirty(std::uint32_t ino) {
  if (++dirty_[ino] < params_.journal_flush_interval) return;
  if (flush_in_flight_[ino]) return;  // next mutation after the flush re-arms
  dirty_[ino] = 0;
  flush_in_flight_[ino] = true;
  sim_.spawn(flush_journal(ino));
}

sim::Task<void> CacheTier::flush_journal(std::uint32_t ino) {
  const auto it = info_.find(ino);
  if (it == info_.end()) {
    flush_in_flight_[ino] = false;
    co_return;
  }
  // Snapshot-then-write: the durable entry holds the bytes now in flight;
  // until the timed write lands it is incomplete, and a crash in that window
  // leaves it torn on the medium.
  std::vector<std::byte> payload = encode(it->second);
  const std::size_t bytes = payload.size();
  durable_[ino] = DurableEntry{std::move(payload), /*write_complete=*/false};
  const std::uint64_t epoch = crash_count_;
  ++stats_.journal_flushes;
  co_await transfer(bytes);
  if (crash_count_ == epoch) {
    const auto dit = durable_.find(ino);
    if (dit != durable_.end() && !dit->second.write_complete) {
      dit->second.write_complete = true;
    }
  }
  flush_in_flight_[ino] = false;
}

// --- capacity ---------------------------------------------------------------

void CacheTier::evict_to_capacity() {
  while (resident_blocks_ > params_.capacity_blocks) {
    const auto victim = eviction_->pick_victim();
    if (!victim) break;  // accounting drift; conservation check will flag it
    if (drop_bit(victim->ino, victim->lblock)) {
      ++stats_.evictions;
      mark_dirty(victim->ino);
    }
  }
}

bool CacheTier::drop_bit(std::uint32_t ino, std::uint64_t lblock) {
  const auto it = info_.find(ino);
  if (it == info_.end() || !it->second.clear(lblock)) return false;
  --resident_blocks_;
  if (auto* a = auditor()) a->on_cache_bit_cleared(this);
  return true;
}

void CacheTier::drop_entry_volatile(std::uint32_t ino) {
  const auto it = info_.find(ino);
  if (it == info_.end()) return;
  const std::uint64_t pop = it->second.popcount();
  for (std::uint64_t b = 0; b < it->second.block_count; ++b) {
    if (it->second.test(b)) eviction_->on_remove(BlockKey{ino, b});
  }
  resident_blocks_ -= pop;
  if (pop > 0) {
    if (auto* a = auditor()) a->on_cache_bit_cleared(this, pop);
  }
  info_.erase(it);
  dirty_.erase(ino);
}

// --- fault integration ------------------------------------------------------

void CacheTier::on_crash() {
  ++crash_count_;
  // Journal writes caught mid-flight are torn on the medium: scramble the
  // payload's tail (breaking the checksum) and freeze it — those bytes are
  // what recovery and fsck will actually read back.
  for (auto& [ino, entry] : durable_) {
    if (!entry.write_complete) {
      if (!entry.payload.empty()) entry.payload.back() ^= std::byte{0xff};
      entry.write_complete = true;
    }
  }
  // Volatile residency is gone.
  if (resident_blocks_ > 0) {
    if (auto* a = auditor()) a->on_cache_bit_cleared(this, resident_blocks_);
  }
  info_.clear();
  resident_blocks_ = 0;
  eviction_->reset();
  dirty_.clear();
  // flush_in_flight_ flags are left for their coroutines to clear; the epoch
  // bump above stops them from marking the torn entries complete.
}

sim::Task<void> CacheTier::recover() {
  const sim::SimTime t0 = sim_.now();
  const std::uint64_t epoch = crash_count_;
  ++stats_.recoveries;
  // The warm-restart window opens the moment replay begins, not when it
  // ends: recover() awaits the journal transfers below, and lookups served
  // concurrently during that replay window are part of the warm restart.
  // Zeroing these counters at the end instead used to silently drop every
  // hit the tier served while still replaying.
  stats_.warm_lookups = 0;
  stats_.warm_hits = 0;

  std::vector<std::uint32_t> inos;
  inos.reserve(durable_.size());
  for (const auto& [ino, entry] : durable_) inos.push_back(ino);

  std::uint64_t installed = 0;
  for (const std::uint32_t ino : inos) {
    const auto dit = durable_.find(ino);
    if (dit == durable_.end()) continue;
    const std::vector<std::byte> payload = dit->second.payload;
    co_await transfer(payload.size());
    if (crash_count_ != epoch) co_return;  // crashed again mid-recovery

    auto decoded = decode(payload.data(), payload.size());
    if (!decoded) {
      ++stats_.torn_entries_dropped;
      durable_.erase(ino);
      continue;
    }
    const std::uint64_t gen = gen_of_(ino);
    if (gen == 0 || gen != decoded->generation || decoded->ino != ino) {
      ++stats_.stale_entries_dropped;
      durable_.erase(ino);
      continue;
    }
    stats_.out_of_range_bits_dropped += decoded->clamp(blocks_of_(ino));
    const std::uint64_t pop = decoded->popcount();
    if (pop == 0) {
      durable_.erase(ino);
      continue;
    }
    // Re-journal the installed view (clamping may have changed it) and
    // rebuild volatile state in deterministic (ino, block) order.
    durable_[ino] = DurableEntry{encode(*decoded), /*write_complete=*/true};
    for (std::uint64_t b = 0; b < decoded->block_count; ++b) {
      if (decoded->test(b)) eviction_->on_insert(BlockKey{ino, b});
    }
    resident_blocks_ += pop;
    installed += pop;
    if (auto* a = auditor()) a->on_cache_bit_set(this, pop);
    info_[ino] = std::move(*decoded);
  }
  evict_to_capacity();

  stats_.recovered_blocks += installed;
  stats_.last_recovery_time = sim_.now() - t0;
  stats_.total_recovery_time += stats_.last_recovery_time;
}

// --- fsck -------------------------------------------------------------------

void CacheTier::fsck_drop(std::uint32_t ino) {
  durable_.erase(ino);
  drop_entry_volatile(ino);
}

void CacheTier::fsck_rewrite(std::uint32_t ino, const CacheFileInfo& repaired) {
  durable_[ino] = DurableEntry{encode(repaired), /*write_complete=*/true};
  const auto it = info_.find(ino);
  if (it == info_.end()) return;
  // Reconcile the serving view down to the repaired bitmap: bits the repair
  // cleared must stop serving (fsck never invents residency).
  for (std::uint64_t b = 0; b < it->second.block_count; ++b) {
    if (it->second.test(b) && !repaired.test(b)) {
      eviction_->on_remove(BlockKey{ino, b});
      drop_bit(ino, b);
    }
  }
}

// --- seeded corruption ------------------------------------------------------

void CacheTier::debug_corrupt_payload(std::uint32_t ino) {
  const auto it = durable_.find(ino);
  if (it == durable_.end() || it->second.payload.empty()) return;
  it->second.payload.back() ^= std::byte{0xff};  // checksum no longer matches
}

void CacheTier::debug_replace_entry(std::uint32_t ino, const CacheFileInfo& info) {
  durable_[ino] = DurableEntry{encode(info), /*write_complete=*/true};
}

void CacheTier::debug_insert_raw(std::uint32_t ino, std::vector<std::byte> payload) {
  durable_[ino] = DurableEntry{std::move(payload), /*write_complete=*/true};
}

}  // namespace ppfs::cache
