// Consistent-hash router assigning cars to shard workers.
//
// The fleet's cars are spread over N shard workers with a classic
// consistent-hash ring: each shard contributes `replicas` virtual points
// hashed onto a 64-bit ring, and a car maps to the first live point at or
// after its own hash (wrapping). The payoff is bounded rebalance churn:
// when a shard dies, ONLY the cars that mapped to its points move (to the
// next live point clockwise); every other car keeps its shard, and when
// the shard heals exactly those cars move back. The hash is a fixed
// SplitMix64 finalizer — not std::hash — so the mapping is part of the
// seed contract and identical across platforms and runs.
//
// resize(n) is the elastic half of the same contract: a shard's ring
// points are a pure function of (salt, shard index, replica index), so
// growing N -> N+1 only inserts the new shard's points (stealing roughly
// a 1/(N+1) key fraction from the incumbents) and shrinking removes
// exactly the retired shard's points (only its keys spill clockwise).
// Shrinking then growing back to N restores the original assignment
// bit-for-bit — the autoscaler's churn tests pin all three properties.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/errors.hpp"

namespace autolearn::serve {

struct ShardRouterConfig {
  std::size_t shards = 1;
  /// Virtual points per shard. More points smooth the car distribution
  /// (at 64 the max/min shard load ratio stays under ~1.5 for fleets of
  /// hundreds of cars); fewer make the ring cheaper to search.
  std::size_t replicas = 64;
  /// Salt folded into every hash; lets two routers over the same shard
  /// count draw independent rings.
  std::uint64_t salt = 0x9e3779b97f4a7c15ULL;

  /// Appends every violation (prefix "router.") without throwing.
  void check(ConfigIssues& out) const;
};

/// Deterministic 64-bit mix (SplitMix64 finalizer). Exposed because the
/// router's tests and the ring's documentation both reference it.
std::uint64_t hash_mix(std::uint64_t x);

/// Expected key fraction remapped by a resize between `from` and `to`
/// shards (all live): |to - from| / max(from, to) — the consistent-hash
/// "ships in the ring" bound the churn tests assert against (with slack
/// for ring-position variance at finite replica counts).
double expected_remap_fraction(std::size_t from, std::size_t to);

class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterConfig config = {});

  std::size_t shards() const { return config_.shards; }
  std::size_t alive_count() const { return alive_count_; }
  bool any_alive() const { return alive_count_ > 0; }
  bool alive(std::size_t shard) const;

  /// Marks a shard dead (its keys spill to the next live ring points) or
  /// live again (exactly those keys return). Idempotent.
  void set_alive(std::size_t shard, bool alive);

  /// Grows or shrinks the ring to `shards` workers while keys keep
  /// routing. Grow appends shards [old, n) — each enters live and steals
  /// only the keys whose hashes land on its points. Shrink retires the
  /// top indices [n, old) — ring points removed entirely (dead or alive),
  /// only their keys spill clockwise. Deterministic: the same (salt,
  /// shard, replica) triples always hash to the same ring positions, so
  /// resize(n) after resize(m) depends only on the final n.
  void resize(std::size_t shards);

  /// Owning live shard for a key (car id). Throws std::logic_error when
  /// no shard is alive — callers gate on any_alive() and shed instead.
  std::size_t shard_for(std::uint64_t key) const;

  /// Current key -> shard mapping for keys [0, n). Churn between two
  /// mappings is what the failover and autoscaler tests bound.
  std::vector<std::size_t> mapping(std::uint64_t n) const;

  const ShardRouterConfig& config() const { return config_; }

 private:
  struct Point {
    std::uint64_t hash;
    std::size_t shard;
  };

  static std::vector<Point> points_for(const ShardRouterConfig& config,
                                       std::size_t shard);

  ShardRouterConfig config_;
  std::vector<Point> ring_;  // sorted by hash
  std::vector<bool> alive_;
  std::size_t alive_count_ = 0;
};

}  // namespace autolearn::serve
