// lfbst: adversarial-shape mitigation — an invertible key-scrambling
// boundary layer (docs/RESILIENCE.md).
//
// The paper's external BST makes no balance guarantee: a sequential,
// bit-reversed-counter or attacker-chosen key stream degenerates it to
// an O(n) spine, turning every seek into a linear walk — a latent
// performance bug and a real DoS vector once lfbst_serve fronts the
// tree on a socket. Rather than balance the tree (the Chatterjee et al. /
// Concurrency-Optimal BST route), this header destroys the adversary's
// control over the *shape*: keys are passed through an invertible
// xorshift-multiply bijection before they reach the ordered structure,
// so whatever order the client picks, the tree sees an
// avalanche-mixed permutation of it and takes its expected
// random-insertion shape (~2·log2 n average seek depth). The bijection
// is exactly invertible, so read-out surfaces (scans, for_each,
// validate) un-mix and the client never observes a scrambled key.
//
// Two composable pieces:
//
//   * scramble_key / unscramble_key — the bijection itself, on any
//     integral key width. Forward = the splitmix64/murmur3-style
//     finalizer (xorshift-right, odd-constant multiply, twice over),
//     truncated to the key's width. Every step is a bijection on
//     Z/2^w: x ^= x >> s is invertible because the top s bits pass
//     through untouched and each lower stratum can be peeled off from
//     the stratum above it; x *= m with m odd is invertible because
//     odd numbers are units mod 2^w (the inverse is computed below by
//     Newton iteration, all constexpr). A composition of bijections
//     is a bijection; unscramble applies the inverse steps in reverse
//     order. An optional seed is XOR-folded in first — XOR with a
//     constant is itself an involution — so deployments can make the
//     permutation unpredictable to clients.
//
//   * scrambled_set<Set> — the boundary adapter (the form the server
//     and benches use): scrambles on the way in, unscrambles on the
//     way out, and forwards the wrapped set's observability/sharding
//     surface unchanged. Composes *above* sharding —
//     scrambled_set<sharded_set<T>> — so the router partitions the
//     scrambled space and shards stay uniformly loaded even under a
//     sequential client stream. Ordered-scan caveat: key order is not
//     preserved by the bijection, so range_scan through the adapter
//     is lowered to a full filtered enumeration (O(n), not
//     O(|result|)) — documented in docs/RESILIENCE.md; callers that
//     need cheap ordered scans should keep an unscrambled set.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace lfbst {

namespace scramble_detail {

/// Multiplicative inverse of an odd constant modulo 2^w by Newton
/// iteration: each step doubles the number of correct low bits, and
/// 5 steps reach 80 ≥ 64 bits from the 5-bit-correct start (x ≡ m⁻¹
/// mod 2^5 holds for x = m when m is odd... more precisely m·m ≡ 1
/// mod 2^3, so the start is 3-bit correct and 5 doublings give 96).
template <typename U>
constexpr U odd_inverse(U m) {
  // Arithmetic in uintmax_t: an inverse mod 2^64 truncates to an
  // inverse mod 2^w, and sub-int widths would otherwise promote to
  // *signed* int whose overflow is UB (a compile error in constexpr).
  const std::uintmax_t mm = m;
  std::uintmax_t x = mm;  // correct mod 2^3 for odd m
  for (int i = 0; i < 6; ++i) {
    x *= std::uintmax_t{2} - mm * x;
  }
  return static_cast<U>(x);
}

/// Inverse of x ^= x >> s on a w-bit word: the top s bits of the image
/// equal the preimage's, and each refinement step recovers s more.
template <typename U>
constexpr U invert_xorshift_right(U y, int s) {
  constexpr int width = std::numeric_limits<U>::digits;
  U x = y;
  for (int recovered = s; recovered < width; recovered += s) {
    x = static_cast<U>(y ^ (x >> s));
  }
  return x;
}

/// Width-truncated finalizer constants. The 64-bit values are
/// splitmix64's; truncation keeps them odd (both end in a set bit), so
/// the multiplies stay invertible at every width. Shifts scale with
/// the width and stay in [1, w-1], which keeps the xorshifts
/// invertible too.
template <typename U>
struct mix_constants {
  static constexpr int width = std::numeric_limits<U>::digits;
  static constexpr U m1 = static_cast<U>(0xBF58476D1CE4E5B9ULL);
  static constexpr U m2 = static_cast<U>(0x94D049BB133111EBULL);
  static constexpr U m1_inv = odd_inverse(m1);
  static constexpr U m2_inv = odd_inverse(m2);
  static constexpr int s1 = width > 2 ? (width * 30) / 64 : 1;
  static constexpr int s2 = width > 2 ? (width * 27) / 64 : 1;
  static constexpr int s3 = width > 2 ? (width * 31) / 64 : 1;
  static_assert(s1 >= 1 && s1 < width);
  static_assert((m1 & 1) == 1 && (m2 & 1) == 1);
  static_assert(static_cast<U>(std::uintmax_t{m1} * m1_inv) == U{1});
  static_assert(static_cast<U>(std::uintmax_t{m2} * m2_inv) == U{1});
};

}  // namespace scramble_detail

/// The forward bijection: key -> avalanche-mixed key, same width.
/// Constexpr so tests can exercise it at compile time.
template <typename Key>
  requires std::is_integral_v<Key>
constexpr Key scramble_key(Key key, std::uint64_t seed = 0) noexcept {
  using U = std::make_unsigned_t<Key>;
  using C = scramble_detail::mix_constants<U>;
  // Multiplies widen to uintmax_t: sub-int widths promote to signed
  // int, whose overflow would be UB (truncation restores mod 2^w).
  U x = static_cast<U>(static_cast<U>(key) ^ static_cast<U>(seed));
  x = static_cast<U>(x ^ (x >> C::s1));
  x = static_cast<U>(std::uintmax_t{x} * C::m1);
  x = static_cast<U>(x ^ (x >> C::s2));
  x = static_cast<U>(std::uintmax_t{x} * C::m2);
  x = static_cast<U>(x ^ (x >> C::s3));
  return static_cast<Key>(x);
}

/// The exact inverse: unscramble_key(scramble_key(k, s), s) == k for
/// every key and seed (tests/core/key_scramble_test.cpp pins it).
template <typename Key>
  requires std::is_integral_v<Key>
constexpr Key unscramble_key(Key key, std::uint64_t seed = 0) noexcept {
  using U = std::make_unsigned_t<Key>;
  using C = scramble_detail::mix_constants<U>;
  U x = static_cast<U>(key);
  x = scramble_detail::invert_xorshift_right(x, C::s3);
  x = static_cast<U>(std::uintmax_t{x} * C::m2_inv);
  x = scramble_detail::invert_xorshift_right(x, C::s2);
  x = static_cast<U>(std::uintmax_t{x} * C::m1_inv);
  x = scramble_detail::invert_xorshift_right(x, C::s1);
  x = static_cast<U>(x ^ static_cast<U>(seed));
  return static_cast<Key>(x);
}

/// Boundary adapter: an ordered set (nm_tree, kary_tree, a baseline,
/// or shard::sharded_set over any of them) whose *stored* keys are the
/// scrambled images of the client's keys. Point ops are one extra
/// multiply-xorshift round each way (<2 ns); the full metrics /
/// sharding surface of the wrapped set is forwarded unchanged so
/// telemetry samplers and the server front it transparently. Splitters, heatmaps and routers underneath the
/// adapter live in scrambled space by construction.
template <typename Set>
class scrambled_set {
 public:
  using key_type = typename Set::key_type;
  static_assert(std::is_integral_v<key_type>,
                "key scrambling is a fixed-width integer bijection");
  using inner_type = Set;

  static constexpr const char* algorithm_name = "Scrambled";

  scrambled_set() = default;
  explicit scrambled_set(std::uint64_t seed) : seed_(seed) {}
  /// Forwards trailing arguments to the wrapped set's constructor,
  /// e.g. scrambled_set<sharded_set<T>>(seed, Router(8)). The wrapped
  /// set must cover the full key domain: scrambled keys land anywhere.
  template <typename... Args>
  explicit scrambled_set(std::uint64_t seed, Args&&... args)
      : seed_(seed), inner_(std::forward<Args>(args)...) {}

  scrambled_set(const scrambled_set&) = delete;
  scrambled_set& operator=(const scrambled_set&) = delete;

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] Set& inner() noexcept { return inner_; }
  [[nodiscard]] const Set& inner() const noexcept { return inner_; }

  // --- point operations (hot path: one mix in, nothing out) ----------

  [[nodiscard]] bool contains(const key_type& key) const {
    return inner_.contains(s(key));
  }
  bool insert(const key_type& key) { return inner_.insert(s(key)); }
  bool erase(const key_type& key) { return inner_.erase(s(key)); }

  // --- batched operations (the server's coalesced path) --------------

  [[nodiscard]] std::vector<bool> contains_batch(
      const std::vector<key_type>& keys) const
    requires requires(const Set& t, const std::vector<key_type>& k) {
      t.contains_batch(k);
    }
  {
    return inner_.contains_batch(s_all(keys));
  }
  std::vector<bool> insert_batch(const std::vector<key_type>& keys)
    requires requires(Set& t, const std::vector<key_type>& k) {
      t.insert_batch(k);
    }
  {
    return inner_.insert_batch(s_all(keys));
  }
  std::vector<bool> erase_batch(const std::vector<key_type>& keys)
    requires requires(Set& t, const std::vector<key_type>& k) {
      t.erase_batch(k);
    }
  {
    return inner_.erase_batch(s_all(keys));
  }

  // --- scans: lowered, not forwarded ---------------------------------
  //
  // The bijection does not preserve key order, so an ordered scan of
  // [lo, hi) cannot be answered by a subrange walk underneath. It is
  // lowered to a *full* enumeration of the scrambled set (same
  // conservative-interval concurrency contract as the wrapped scan),
  // un-mixed, filtered and sorted: O(n + r·log r) per call instead of
  // O(r). Correct, concurrent-safe, and deliberately expensive —
  // docs/RESILIENCE.md spells out the contract; keep an unscrambled
  // set if cheap ordered scans matter more than shape resilience.

  [[nodiscard]] std::vector<key_type> range_scan(const key_type& lo,
                                                 const key_type& hi) const {
    std::vector<key_type> out;
    if (!(lo < hi)) return out;
    collect_filtered(lo, hi, /*closed=*/false, out);
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::vector<key_type> range_scan_closed(
      const key_type& lo, const key_type& hi) const {
    std::vector<key_type> out;
    if (hi < lo) return out;
    collect_filtered(lo, hi, /*closed=*/true, out);
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Mirrors shard::sharded_set::scan_page: when truncated, resume_key
  /// is the smallest key the page did not cover.
  struct scan_page {
    std::vector<key_type> keys;
    bool truncated = false;
    key_type resume_key{};
  };

  [[nodiscard]] scan_page range_scan_limit(const key_type& lo,
                                           const key_type& hi,
                                           std::size_t max_items) const {
    scan_page page;
    if (!(lo < hi)) return page;
    if (max_items == 0) {  // zero budget: pure continuation marker
      page.truncated = true;
      page.resume_key = lo;
      return page;
    }
    collect_filtered(lo, hi, /*closed=*/false, page.keys);
    std::sort(page.keys.begin(), page.keys.end());
    if (page.keys.size() > max_items) {
      page.keys.resize(max_items);
    }
    if (page.keys.size() == max_items && !page.keys.empty()) {
      const key_type last_key = page.keys.back();
      if (last_key < static_cast<key_type>(hi - 1)) {
        page.truncated = true;
        page.resume_key = static_cast<key_type>(last_key + 1);
      }
    }
    return page;
  }

  /// Visits every key (un-mixed) under the wrapped set's concurrent
  /// enumeration contract. Order is the *scrambled* order — i.e.
  /// unspecified from the client's point of view.
  template <typename F>
  void for_each(F&& fn) const
    requires requires(const Set& t) { t.for_each([](const key_type&) {}); }
  {
    inner_.for_each([&](const key_type& k) { fn(u(k)); });
  }

  // --- quiescent helpers ----------------------------------------------

  [[nodiscard]] std::size_t size_slow() const { return inner_.size_slow(); }
  [[nodiscard]] bool empty_slow() const { return inner_.empty_slow(); }

  template <typename F>
  void for_each_slow(F&& fn) const {
    inner_.for_each_slow([&](const key_type& k) { fn(u(k)); });
  }

  [[nodiscard]] std::string validate() const { return inner_.validate(); }

  [[nodiscard]] auto height_slow() const
    requires requires(const Set& t) { t.height_slow(); }
  {
    return inner_.height_slow();
  }

  // --- forwarded observability / sharding surface ---------------------
  //
  // Each member exists exactly when the wrapped set provides it, so
  // obs::sampler and basic_server instantiate against the adapter the
  // same way they would against the set itself. Splitter keys and
  // heatmap buckets are in scrambled space.

  [[nodiscard]] auto& stats() const
    requires requires(const Set& t) { t.stats(); }
  {
    return inner_.stats();
  }

  [[nodiscard]] auto merged_counters() const
    requires requires(const Set& t) { t.merged_counters(); }
  {
    return inner_.merged_counters();
  }

  [[nodiscard]] auto shard_counters(std::size_t i) const
    requires requires(const Set& t) { t.shard_counters(0); }
  {
    return inner_.shard_counters(i);
  }

  template <typename F>
  void for_each_shard_stats(F&& fn) const
    requires requires(const Set& t) {
      t.for_each_shard_stats([](auto&) {});
    }
  {
    inner_.for_each_shard_stats(std::forward<F>(fn));
  }

  template <typename OpKind>
  [[nodiscard]] auto merged_latency_histogram(OpKind op) const
    requires requires(const Set& t, OpKind o) {
      t.merged_latency_histogram(o);
    }
  {
    return inner_.merged_latency_histogram(op);
  }

  [[nodiscard]] auto merged_seek_depth_histogram() const
    requires requires(const Set& t) { t.merged_seek_depth_histogram(); }
  {
    return inner_.merged_seek_depth_histogram();
  }

  [[nodiscard]] std::size_t shard_count() const
    requires requires(const Set& t) { t.shard_count(); }
  {
    return inner_.shard_count();
  }

  [[nodiscard]] auto& shard(std::size_t i)
    requires requires(Set& t) { t.shard(0); }
  {
    return inner_.shard(i);
  }

  [[nodiscard]] auto& router() const
    requires requires(const Set& t) { t.router(); }
  {
    return inner_.router();
  }

 private:
  [[nodiscard]] key_type s(const key_type& k) const noexcept {
    return scramble_key(k, seed_);
  }
  [[nodiscard]] key_type u(const key_type& k) const noexcept {
    return unscramble_key(k, seed_);
  }
  [[nodiscard]] std::vector<key_type> s_all(
      const std::vector<key_type>& keys) const {
    std::vector<key_type> out;
    out.reserve(keys.size());
    for (const key_type& k : keys) out.push_back(s(k));
    return out;
  }

  /// Whole-domain enumeration via the wrapped set's concurrent closed
  /// scan, un-mixed and filtered to [lo, hi) / [lo, hi].
  void collect_filtered(const key_type& lo, const key_type& hi, bool closed,
                        std::vector<key_type>& out) const {
    const key_type dom_lo = std::numeric_limits<key_type>::min();
    const key_type dom_hi = std::numeric_limits<key_type>::max();
    for (const key_type& sk : inner_.range_scan_closed(dom_lo, dom_hi)) {
      const key_type k = u(sk);
      if (k < lo) continue;
      if (closed ? !(hi < k) : k < hi) out.push_back(k);
    }
  }

  std::uint64_t seed_ = 0;
  Set inner_;
};

}  // namespace lfbst
