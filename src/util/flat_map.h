#pragma once

/// \file flat_map.h
/// FlatMap64: a minimal open-addressed hash map from 64-bit keys to small
/// trivially-copyable values. The hot simulators key on dense synthetic
/// 64-bit ids — directed-link keys (`from * n + to` in the FIFO link-delay
/// model) and exact-double-bit tick timestamps (sim/tick_scheduler.h) —
/// where `std::unordered_map`'s node allocations and pointer chasing
/// dominate at 10^5-10^6 entries. This is a single flat slot array with
/// linear probing: one allocation per growth, no per-entry nodes, and
/// lookups touch one cache line in the common case.
///
/// Determinism: the map is lookup-only by design — it exposes no
/// iteration, so no code path can depend on slot order (the
/// analyzer's unordered-iter rule has nothing to bite on).
///
/// The all-ones key is reserved as the empty-slot sentinel; it cannot be
/// inserted (SPR_DCHECK). Real keys never reach it: link keys are bounded
/// by node_count^2 and double-bit keys of finite positive times are never
/// all-ones (that bit pattern is a NaN).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace spr {

template <typename Value>
class FlatMap64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  FlatMap64() = default;

  /// Pre-sizes the table for about `expected` entries without rehashing.
  explicit FlatMap64(std::size_t expected) { reserve(expected); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Ensures capacity for `expected` entries under the load-factor cap.
  void reserve(std::size_t expected) {
    std::size_t needed = slots_for(expected);
    if (needed > slots_.size()) rehash(needed);
  }

  /// The value at `key`, inserting `fallback` first when absent. The
  /// reference stays valid until the next insertion.
  Value& find_or_insert(std::uint64_t key, const Value& fallback) {
    SPR_DCHECK(key != kEmptyKey, "FlatMap64: sentinel key inserted");
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) {
      rehash(slots_for(size_ + 1));
    }
    std::size_t i = probe(key);
    if (slots_[i].key == kEmptyKey) {
      slots_[i].key = key;
      slots_[i].value = fallback;
      ++size_;
    }
    return slots_[i].value;
  }

  /// The value at `key`, or null when absent.
  Value* find(std::uint64_t key) noexcept {
    if (slots_.empty()) return nullptr;
    std::size_t i = probe(key);
    return slots_[i].key == kEmptyKey ? nullptr : &slots_[i].value;
  }
  const Value* find(std::uint64_t key) const noexcept {
    return const_cast<FlatMap64*>(this)->find(key);
  }

  /// Drops every entry, keeping the slot array's capacity.
  void clear() noexcept {
    for (Slot& slot : slots_) slot.key = kEmptyKey;
    size_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    Value value{};
  };

  /// Smallest power-of-two slot count keeping `entries` under 3/4 load.
  static std::size_t slots_for(std::size_t entries) noexcept {
    std::size_t slots = 16;
    while (entries * 4 > slots * 3) slots *= 2;
    return slots;
  }

  /// First slot holding `key` or empty, by linear probe from the key hash
  /// (Fibonacci-mixed so dense sequential keys spread across the table).
  std::size_t probe(std::uint64_t key) const noexcept {
    std::uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h >> 32) & mask;
    while (slots_[i].key != kEmptyKey && slots_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void rehash(std::size_t new_slots) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slots, Slot{});
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      std::size_t i = probe(slot.key);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace spr
