#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/ipv4.h"

namespace riptide::net {

// Longest-prefix match over IPv4 prefixes: the one LPM structure behind the
// host routing table, the PoP routers and the topology's PoP index.
//
// One flat open-addressing table per prefix length in use, keyed by the
// masked address, with power-of-two capacity, a multiplicative hash and
// linear probing (not std::unordered_map, whose prime-modulo bucket index
// costs as much as a short linear scan). A lookup probes the lengths in use
// from longest to shortest and stops at the first hit, so its cost grows
// with the number of distinct lengths (at most 33), not with the number of
// prefixes.
//
// Pointers returned by find/lookup stay valid until the next insert of a
// new prefix or the next erase; assigning to a prefix already present keeps
// them. T must be default-constructible.
template <typename T>
class PrefixTable {
 public:
  // Sets the value for exactly `prefix`.
  void insert_or_assign(const Prefix& prefix, T value) {
    Level& level = levels_[prefix.length()];
    const std::uint32_t key = prefix.address().value();
    if (Slot* slot = level.find(key)) {
      slot->value = std::move(value);
      return;
    }
    level.insert(key, std::move(value));
    lengths_ |= std::uint64_t{1} << prefix.length();
    ++size_;
  }

  // Removes exactly `prefix`; false when absent.
  bool erase(const Prefix& prefix) {
    Level& level = levels_[prefix.length()];
    if (!level.erase(prefix.address().value())) return false;
    if (level.count == 0) lengths_ &= ~(std::uint64_t{1} << prefix.length());
    --size_;
    return true;
  }

  // Exact match; nullptr when absent.
  T* find(const Prefix& prefix) {
    Slot* slot = levels_[prefix.length()].find(prefix.address().value());
    return slot == nullptr ? nullptr : &slot->value;
  }
  const T* find(const Prefix& prefix) const {
    return const_cast<PrefixTable*>(this)->find(prefix);
  }

  // Longest-prefix match; nullptr when nothing covers `address`.
  const T* lookup(Ipv4Address address) const {
    for (std::uint64_t lengths = lengths_; lengths != 0;) {
      const int length = 63 - std::countl_zero(lengths);
      lengths &= ~(std::uint64_t{1} << length);
      const Slot* slot = levels_[length].find(
          address.value() & Prefix::mask_of(length));
      if (slot != nullptr) return &slot->value;
    }
    return nullptr;
  }

  // Longest-prefix match that skips the entry for exactly `excluded`.
  const T* lookup_excluding(Ipv4Address address,
                            const Prefix& excluded) const {
    for (std::uint64_t lengths = lengths_; lengths != 0;) {
      const int length = 63 - std::countl_zero(lengths);
      lengths &= ~(std::uint64_t{1} << length);
      const std::uint32_t key = address.value() & Prefix::mask_of(length);
      if (length == excluded.length() && key == excluded.address().value()) {
        continue;  // a length holds one candidate per address: this one
      }
      const Slot* slot = levels_[length].find(key);
      if (slot != nullptr) return &slot->value;
    }
    return nullptr;
  }

  std::size_t size() const { return size_; }

  // Calls f(prefix, value) for every entry, in no particular order.
  template <typename F>
  void for_each(F&& f) const {
    for (int length = 0; length <= 32; ++length) {
      for (const Slot& slot : levels_[length].slots) {
        if (slot.used) f(Prefix(Ipv4Address(slot.key), length), slot.value);
      }
    }
  }

 private:
  struct Slot {
    std::uint32_t key = 0;
    bool used = false;
    T value{};
  };

  // The exact-match table for one prefix length.
  struct Level {
    static constexpr std::size_t kMinCapacity = 8;

    std::vector<Slot> slots;  // empty, or a power-of-two size
    std::size_t count = 0;
    int shift = 64;  // 64 - log2(capacity)

    std::size_t home(std::uint32_t key) const {
      return static_cast<std::size_t>(
          (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> shift);
    }

    Slot* find(std::uint32_t key) {
      if (count == 0) return nullptr;
      const std::size_t mask = slots.size() - 1;
      for (std::size_t i = home(key);; i = (i + 1) & mask) {
        Slot& slot = slots[i];
        if (!slot.used) return nullptr;
        if (slot.key == key) return &slot;
      }
    }
    const Slot* find(std::uint32_t key) const {
      return const_cast<Level*>(this)->find(key);
    }

    // Precondition: `key` is absent. Keeps the load at or below 1/2.
    void insert(std::uint32_t key, T value) {
      if (2 * (count + 1) > slots.size()) {
        grow(slots.empty() ? kMinCapacity : 2 * slots.size());
      }
      ++count;
      place(key, std::move(value));
    }

    void place(std::uint32_t key, T value) {
      const std::size_t mask = slots.size() - 1;
      std::size_t i = home(key);
      while (slots[i].used) i = (i + 1) & mask;
      slots[i] = Slot{key, true, std::move(value)};
    }

    void grow(std::size_t capacity) {
      std::vector<Slot> old = std::exchange(slots, std::vector<Slot>(capacity));
      shift = 64 - std::countr_zero(capacity);
      for (Slot& slot : old) {
        if (slot.used) place(slot.key, std::move(slot.value));
      }
    }

    // Backward-shift deletion: later members of the probe run move into the
    // hole when their home lies at or before it, so no tombstones are left.
    bool erase(std::uint32_t key) {
      Slot* found = find(key);
      if (found == nullptr) return false;
      const std::size_t mask = slots.size() - 1;
      std::size_t hole = static_cast<std::size_t>(found - slots.data());
      for (std::size_t i = (hole + 1) & mask; slots[i].used;
           i = (i + 1) & mask) {
        if (((i - home(slots[i].key)) & mask) >= ((i - hole) & mask)) {
          slots[hole] = std::move(slots[i]);
          hole = i;
        }
      }
      slots[hole] = Slot{};
      --count;
      return true;
    }
  };

  std::uint64_t lengths_ = 0;  // bit L set while a /L prefix is present
  std::array<Level, 33> levels_{};
  std::size_t size_ = 0;
};

}  // namespace riptide::net
