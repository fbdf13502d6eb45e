// Digest-chain history compression (extension; the paper notes in §4.1 that
// "the space required by the variables may be unbounded").
//
// Observation: a history grows by exactly one value per round and is
// re-broadcast every round.  Instead of shipping the whole value sequence,
// a sender can ship the O(1) *increment* — ⟨digest, parent_digest, last
// value, length⟩ — and receivers reconstruct the chain in a digest-indexed
// table.  Prefix tests (what the counters of Algorithm 3 need) reduce to
// ancestor walks over reconstructed chains, so the pseudo-leader-election
// semantics are preserved bit-for-bit whenever decoding succeeds.
//
// If the receiver has never seen the parent digest (first contact, or a gap
// after missed rounds), decode fails and the sender's full sequence must be
// shipped once (`encode_full` / `decode_full`).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/history.hpp"

namespace anon {

struct WireHistory {
  std::uint64_t digest = 0;
  std::uint64_t parent_digest = 0;
  Value last;
  std::uint32_t length = 0;

  static constexpr std::size_t kWireBytes = 8 + 8 + 8 + 4;
};

// Encoder: stateless, O(1) per history.
WireHistory encode_increment(const History& h);

// Full (fallback) encoding: the whole value sequence, oldest first.
std::vector<Value> encode_full(const History& h);

// Receiver-side reconstruction table.
class HistoryDecoder {
 public:
  explicit HistoryDecoder(HistoryArena* arena);

  // Decodes an increment; nullopt if the parent digest is unknown (caller
  // must then obtain the full encoding).  Successful decodes register the
  // resulting history for future increments.
  std::optional<History> decode_increment(const WireHistory& w);

  // Registers a full sequence (and all its prefixes) and returns it.
  History decode_full(const std::vector<Value>& values);

  bool knows(std::uint64_t digest) const { return table_.count(digest) > 0; }
  std::size_t table_size() const { return table_.size(); }

 private:
  void remember(const History& h);

  HistoryArena* arena_;
  std::map<std::uint64_t, History> table_;
};

// Wire-size model for an Algorithm 3 message under digest-chain encoding:
// increments for every carried history (counter keys become 8-byte digests).
std::size_t compressed_wire_size(std::size_t proposed_values,
                                 std::size_t counter_entries);

}  // namespace anon
