// Hash-consed proposal histories (Algorithm 3, §4.1 of the paper).
//
// A history is the sequence of values a process appended to HISTORY, one per
// round.  Processes are anonymous; the paper identifies them by these
// histories, compares histories for equality and for the *prefix-of*
// relation, and keys counters by history.
//
// Representation: immutable cons list growing at the head (newest element is
// the head node), interned in a `HistoryArena`.  Interning gives
//   * structural equality  ⇔ pointer equality (O(1) compares),
//   * prefix-of            ⇔ ancestor-of in the cons chain (O(Δlen) walk),
//   * O(1) append with full structural sharing between the histories of
//     processes that proposed identically for a while and then diverged.
//
// Histories are value types (`History` wraps a node pointer); the arena owns
// the nodes and must outlive every History it produced.  One arena per
// simulation keeps runs independent and deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/value.hpp"

namespace anon {

class HistoryArena;

namespace detail {
struct HistNode {
  Value last;                 // newest appended value
  const HistNode* parent;     // history without `last`; nullptr for length-1
  std::uint32_t length;       // number of values in the sequence
  std::uint64_t digest;       // rolling hash over the whole sequence
};
}  // namespace detail

// A (possibly empty) proposal history.  Empty histories only appear as the
// "no history yet" default; Algorithm 3 initializes HISTORY := VAL, so every
// message carries a non-empty history.
class History {
 public:
  History() : node_(nullptr) {}

  bool empty() const { return node_ == nullptr; }
  std::uint32_t length() const { return node_ ? node_->length : 0; }
  std::uint64_t digest() const { return node_ ? node_->digest : 0; }

  // Precondition: !empty().
  Value last() const { return node_->last; }

  // Structural equality; O(1) thanks to interning (same arena only).
  friend bool operator==(const History& a, const History& b) {
    return a.node_ == b.node_;
  }

  // Deterministic total order usable as a map key: by length, then digest,
  // then full sequence comparison as a tie-break for the (engineered-hash-
  // collision) case.  NOT the prefix order.
  friend bool operator<(const History& a, const History& b);

  // True iff `this` is a prefix of `other` (reflexive: h is a prefix of h).
  // Because histories grow at the head, a prefix is exactly an ancestor node
  // in `other`'s parent chain at the right depth.
  bool is_prefix_of(const History& other) const;

  // The prefix of this history of length `len` (0 < len <= length()).
  History prefix(std::uint32_t len) const;

  // The history without its newest value (empty if length() <= 1). O(1).
  History parent() const {
    return node_ ? History(node_->parent) : History();
  }

  // Values oldest-first (O(n), for tests/printing).
  std::vector<Value> values() const;

  std::string to_string() const;

 private:
  friend class HistoryArena;
  explicit History(const detail::HistNode* n) : node_(n) {}
  const detail::HistNode* node_;
};

// Interning arena.  One arena per simulation; `append` is internally
// synchronized so the automatons of one simulation may share the arena
// even when the engine shards them across worker threads (CohortNet
// with engine_threads > 1).  Interning stays canonical under the lock —
// the (parent, value) map admits one node per key regardless of which
// thread got there first — so pointer equality ⇔ structural equality
// holds under any interleaving, and every observable History comparison
// is content-based, keeping sharded runs byte-identical to serial ones.
class HistoryArena {
 public:
  HistoryArena() = default;
  HistoryArena(const HistoryArena&) = delete;
  HistoryArena& operator=(const HistoryArena&) = delete;

  // The history `h · v` (append v).  h may be empty.
  History append(const History& h, Value v);

  // Convenience: the length-1 history ⟨v⟩.
  History singleton(Value v) { return append(History(), v); }

  // Build from a sequence (oldest first).
  History of(const std::vector<Value>& vals);

  std::size_t interned_nodes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return nodes_.size();
  }

 private:
  struct Key {
    const detail::HistNode* parent;
    Value v;
    friend bool operator<(const Key& a, const Key& b) {
      if (a.parent != b.parent) return a.parent < b.parent;
      return a.v < b.v;
    }
  };
  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<detail::HistNode>> nodes_;
};

}  // namespace anon
