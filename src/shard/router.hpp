// lfbst shard: range-partitioned key router — the address decoder of
// the sharded front-end (src/shard/sharded_set.hpp).
//
// A router owns an ordered partition of the key domain into S
// contiguous ranges (S a power of two): shard i holds the keys in
// [splitter(i), splitter(i+1)), with splitter(0) = lo and splitter(S)
// = hi. Routing must be *exact* — a key on a splitter boundary belongs
// to the right-hand shard, always — because the sharded range_scan
// stitches per-shard walks back together in splitter order and any
// misrouting would break the global key order.
//
// Lookup is branch-free: no binary search over the splitters. The
// domain [lo, hi) is covered by a power-of-two grid of buckets (at most
// 2^12 of them) and a flat table maps bucket -> shard id, so shard_of()
// is a subtract, a shift and one table load (plus two conditional moves
// clamping out-of-range keys to the edge shards). To keep the table
// exact rather than approximate, splitters are quantized to bucket
// edges: the *induced* splitters (what splitter(i) reports and what the
// partition actually uses) are the requested ones rounded down to a
// multiple of the bucket width. The uniform constructor picks them
// evenly; the explicit constructor accepts any strictly increasing set
// that survives quantization.
//
// The router is immutable after construction and safe to read from any
// number of threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace lfbst::shard {

template <typename Key>
class range_router {
  static_assert(std::is_integral_v<Key>,
                "range_router partitions integral key domains; supply a "
                "custom Router policy for other key types");

  using ukey = std::make_unsigned_t<Key>;
  static constexpr unsigned key_bits = std::numeric_limits<ukey>::digits;

 public:
  /// Lookup-table resolution: bucket grid size is min(2^table_bits,
  /// domain size). 4096 entries of one byte keep the whole table in a
  /// few cache lines.
  static constexpr unsigned table_bits = 12;
  static constexpr std::size_t table_size = std::size_t{1} << table_bits;

  /// Largest supported shard count (must fit the table with room for
  /// distinct bucket edges, and shard ids are stored as bytes).
  static constexpr std::size_t max_shards = 256;

  /// Uniform partition of [lo, hi) into `shard_count` equal ranges
  /// (quantized to the bucket grid). shard_count must be a power of
  /// two; the domain must hold at least one bucket per shard.
  range_router(std::size_t shard_count, Key lo, Key hi)
      : range_router(shard_count, lo, hi, /*splitters=*/nullptr) {}

  /// Uniform partition of the key type's whole domain.
  explicit range_router(std::size_t shard_count)
      : range_router(shard_count, std::numeric_limits<Key>::min(),
                     std::numeric_limits<Key>::max(),
                     /*splitters=*/nullptr, /*full_domain=*/true) {}

  /// Explicit partition of [lo, hi): `splitters` are the lower bounds
  /// of shards 1..S-1, strictly increasing, inside (lo, hi). The shard
  /// count (splitters.size() + 1) must be a power of two. Splitters are
  /// quantized down to bucket edges and must remain distinct.
  range_router(Key lo, Key hi, const std::vector<Key>& splitters)
      : range_router(splitters.size() + 1, lo, hi, &splitters) {}

  /// The shard owning `key`. Keys outside [lo, hi) clamp to the edge
  /// shards. Branch-free: compiles to two conditional moves, a
  /// subtract, a shift and a table load.
  [[nodiscard]] std::size_t shard_of(Key key) const noexcept {
    const Key clamped =
        key < lo_ ? lo_ : (key > hi_inclusive_ ? hi_inclusive_ : key);
    const ukey offset = static_cast<ukey>(clamped) - static_cast<ukey>(lo_);
    return table_[static_cast<std::size_t>(offset >> shift_)];
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }

  /// Induced lower bound of shard i. splitter(0) == lo; for 1 <= i < S
  /// this is the first key routed to shard i.
  [[nodiscard]] Key splitter(std::size_t i) const noexcept {
    LFBST_ASSERT(i < shard_count_, "splitter index out of range");
    return splitters_[i];
  }

  [[nodiscard]] Key lo() const noexcept { return lo_; }

 private:
  range_router(std::size_t shard_count, Key lo, Key hi,
               const std::vector<Key>* splitters, bool full_domain = false)
      : lo_(lo), shard_count_(shard_count) {
    LFBST_ASSERT(shard_count >= 1 && shard_count <= max_shards,
                 "shard count out of range");
    LFBST_ASSERT((shard_count & (shard_count - 1)) == 0,
                 "shard count must be a power of two");
    // Domain span in offset space. A full-domain router spans 2^W,
    // which does not fit ukey; represent it as span_bits == W.
    unsigned span_bits;
    if (full_domain) {
      span_bits = key_bits;
      hi_inclusive_ = std::numeric_limits<Key>::max();
    } else {
      LFBST_ASSERT(lo < hi, "router domain [lo, hi) is empty");
      const ukey span = static_cast<ukey>(hi) - static_cast<ukey>(lo);
      span_bits = bit_width(span - 1);  // ceil(log2(span)), 0 for span 1
      hi_inclusive_ = static_cast<Key>(hi - 1);
    }
    const unsigned bits = span_bits < table_bits ? span_bits : table_bits;
    shift_ = span_bits - bits;
    const std::size_t buckets = std::size_t{1} << bits;
    // Buckets actually occupied by the domain (the grid rounds the span
    // up to a power of two, so the tail of the grid can be dead space).
    const std::size_t occupied =
        full_domain
            ? buckets
            : static_cast<std::size_t>(
                  ((static_cast<ukey>(hi_inclusive_) -
                    static_cast<ukey>(lo_)) >>
                   shift_) +
                  1);
    LFBST_ASSERT(occupied >= shard_count,
                 "domain too small for this many shards");

    // Bucket edge of each shard's lower bound.
    std::vector<std::size_t> edges(shard_count, 0);
    if (splitters == nullptr) {
      for (std::size_t i = 1; i < shard_count; ++i) {
        // Even split of the occupied buckets, i.e. of the key domain up
        // to bucket granularity.
        edges[i] = i * occupied / shard_count;
      }
    } else {
      LFBST_ASSERT(splitters->size() + 1 == shard_count,
                   "splitter count must be shard_count - 1");
      for (std::size_t i = 1; i < shard_count; ++i) {
        const Key s = (*splitters)[i - 1];
        LFBST_ASSERT(lo < s && (full_domain || s < static_cast<Key>(hi)),
                     "splitters must lie strictly inside (lo, hi)");
        const ukey offset = static_cast<ukey>(s) - static_cast<ukey>(lo);
        edges[i] = static_cast<std::size_t>(offset >> shift_);
      }
    }
    for (std::size_t i = 1; i < shard_count; ++i) {
      LFBST_ASSERT(edges[i] > edges[i - 1],
                   "splitters collapsed after bucket quantization; spread "
                   "them or reduce the shard count");
    }

    // Induced splitters: bucket edges mapped back to keys.
    splitters_.resize(shard_count);
    splitters_[0] = lo_;
    for (std::size_t i = 1; i < shard_count; ++i) {
      splitters_[i] = static_cast<Key>(
          static_cast<ukey>(lo_) +
          (static_cast<ukey>(edges[i]) << shift_));
    }

    // Fill the table monotonically: bucket b belongs to the last shard
    // whose edge is <= b. Buckets past the domain (the grid rounds the
    // span up to a power of two) inherit the last shard; clamping in
    // shard_of() keeps real keys inside the domain anyway.
    table_.assign(table_size, 0);
    std::size_t s = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      while (s + 1 < shard_count && edges[s + 1] <= b) ++s;
      table_[b] = static_cast<std::uint8_t>(s);
    }
    for (std::size_t b = buckets; b < table_size; ++b) {
      table_[b] = static_cast<std::uint8_t>(shard_count - 1);
    }
  }

  static unsigned bit_width(ukey v) noexcept {
    unsigned bits = 0;
    while (v != 0) {
      ++bits;
      v >>= 1;
    }
    return bits;
  }

  Key lo_;
  Key hi_inclusive_;
  std::size_t shard_count_;
  unsigned shift_ = 0;
  std::vector<Key> splitters_;
  std::vector<std::uint8_t> table_;
};

}  // namespace lfbst::shard
