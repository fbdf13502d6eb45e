// Message-payload interning and the two-round windowed inbox (the state
// M_i of Algorithm 1, specialised to what the algorithms actually read).
//
// Three pieces (see DESIGN.md, "message representation"):
//
//  * `MessageBatch<M>` — an immutable, sorted-unique message payload with a
//    content digest, shared by every receiver of one (sender, round)
//    broadcast.  `BatchInterner<M>` deduplicates payloads per engine round,
//    so behaviourally-identical senders (the anonymity collapse case, and
//    every decided process re-broadcasting its frozen message) share ONE
//    payload object network-wide.
//
//  * `InboxView<M>` — the set of messages of one round, materialised as a
//    digest-ordered array of pointers into the shared batches.  Receiving a
//    batch appends one pointer; deduplication happens once per read via a
//    digest sort (content comparisons only on digest ties between distinct
//    objects), not via per-element tree inserts with deep set-of-set
//    comparisons.
//
//  * `InboxWindow<M>` — replaces the unbounded `std::map<Round, std::set<M>>`
//    per-process inbox map.  GIRAF's consensus algorithms only ever read the
//    round being completed (and the weak-set additionally unions everything
//    still live), so the window keeps exactly the rounds {k-1, k, k+1} in a
//    4-slot ring: k is the round being read, k+1 collects the own/early
//    messages of the next round, k-1 holds stragglers.  Reads outside
//    {k-1, k} are rejected (ANON_CHECK).  Writes clamp far-late rounds into
//    the k-1 slot (they are never read round-indexed; the weak-set's
//    all-rounds union still sees them exactly once) and park far-early
//    rounds (unsynchronised engines: MS emulation, realtime) in an overflow
//    map that migrates into the ring as the window slides.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/value.hpp"
#include "giraf/types.hpp"

namespace anon {

// Content digest of a message, for payload interning and view ordering.
// The fallback constant is CORRECT but slow (interning and inbox dedup
// degrade to pure content comparisons); specialise for hot message types.
template <typename M>
struct MessageDigest {
  static std::uint64_t of(const M&) { return 0; }
};

template <>
struct MessageDigest<ValueSet> {
  static std::uint64_t of(const ValueSet& s) { return stable_hash(s); }
};

namespace detail {
inline std::uint64_t mix_digest(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// The canonical whole-batch digest: a fold over the per-message digests in
// canonical (digest, content) order.  Shared by make_batch and the
// interner so the two fold definitions can never drift apart.
inline std::uint64_t fold_batch_digest(std::size_t count,
                                       const std::uint64_t* digests) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL ^ count;
  for (std::size_t i = 0; i < count; ++i) h = mix_digest(h, digests[i]);
  return h;
}
}  // namespace detail

// One broadcast payload: the sorted-unique messages of a sender's round
// batch, with per-message digests and a whole-batch digest.  Immutable
// after construction; shared across all receivers via shared_ptr.
template <typename M>
struct MessageBatch {
  std::vector<M> msgs;                   // sorted by (digest, content)
  std::vector<std::uint64_t> digests;    // parallel to msgs
  std::uint64_t digest = 0;              // fold over digests (canonical order)

  std::size_t size() const { return msgs.size(); }
};

template <typename M>
using SharedBatch = std::shared_ptr<const MessageBatch<M>>;

namespace detail {

template <typename M>
bool digest_content_less(std::uint64_t da, const M& a, std::uint64_t db,
                         const M& b) {
  if (da != db) return da < db;
  return a < b;
}

// Canonicalise `msgs` into a batch: sort by (digest, content), dedup,
// fold the batch digest.
template <typename M>
MessageBatch<M> make_batch(std::vector<M> msgs) {
  MessageBatch<M> b;
  std::vector<std::pair<std::uint64_t, M>> tagged;
  tagged.reserve(msgs.size());
  for (M& m : msgs) tagged.emplace_back(MessageDigest<M>::of(m), std::move(m));
  std::sort(tagged.begin(), tagged.end(),
            [](const auto& x, const auto& y) {
              return digest_content_less(x.first, x.second, y.first, y.second);
            });
  b.msgs.reserve(tagged.size());
  b.digests.reserve(tagged.size());
  for (auto& [d, m] : tagged) {
    if (!b.msgs.empty() && b.digests.back() == d && b.msgs.back() == m)
      continue;  // duplicate content
    b.msgs.push_back(std::move(m));
    b.digests.push_back(d);
  }
  b.digest = fold_batch_digest(b.digests.size(), b.digests.data());
  return b;
}

}  // namespace detail

// The message set of one round, as pointers into shared batches.  Ordered
// by (digest, content) — deterministic because digests are content-derived
// — so identical runs iterate identically.  Views are cheap to copy
// (pointer array); the pointed-to messages live in the batches, which the
// owning inbox slot keeps alive.  A view returned out of the inbox (e.g.
// `Outgoing::batch`) is valid until the process's next receive/end-of-round.
template <typename M>
class InboxView {
 public:
  class const_iterator {
   public:
    using value_type = M;
    using difference_type = std::ptrdiff_t;
    using pointer = const M*;
    using reference = const M&;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    explicit const_iterator(const std::pair<std::uint64_t, const M*>* p)
        : p_(p) {}
    const M& operator*() const { return *p_->second; }
    const M* operator->() const { return p_->second; }
    const_iterator& operator++() {
      ++p_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator t = *this;
      ++p_;
      return t;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.p_ == b.p_;
    }

   private:
    const std::pair<std::uint64_t, const M*>* p_ = nullptr;
  };

  const_iterator begin() const { return const_iterator(items_.data()); }
  const_iterator end() const {
    return const_iterator(items_.data() + items_.size());
  }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  // Membership by content (binary search on digest, content compare on
  // digest ties).  Returns 0 or 1 — the view is a set.
  std::size_t count(const M& m) const {
    const std::uint64_t d = MessageDigest<M>::of(m);
    auto it = std::lower_bound(
        items_.begin(), items_.end(), d,
        [](const auto& e, std::uint64_t key) { return e.first < key; });
    for (; it != items_.end() && it->first == d; ++it)
      if (*it->second == m) return 1;
    return 0;
  }

  // Copies the messages out (for engines that store batches by value).
  std::vector<M> copy_messages() const {
    std::vector<M> out;
    out.reserve(items_.size());
    for (const auto& [d, m] : items_) out.push_back(*m);
    return out;
  }

  // The cached (digest, message) pairs in canonical order — lets the
  // interner reuse digests instead of recomputing them per receiver.
  const std::vector<std::pair<std::uint64_t, const M*>>& items() const {
    return items_;
  }

 private:
  template <typename>
  friend class InboxWindow;
  std::vector<std::pair<std::uint64_t, const M*>> items_;
};

// Per-round payload interner.  Within a round, content-equal batches from
// different senders resolve to one object, so receiver-side dedup is a
// pointer compare.  `round_reset()` advances a generation counter instead
// of clearing the index: a batch whose content recurs in the very next
// round (the steady state — every decided process re-broadcasts its frozen
// message forever) is *promoted* instead of rebuilt, so converged rounds
// intern without allocating.  Promotion preserves the one-object-per-
// content-per-round invariant the engines rely on: all interns of a round
// for the same content still return the same pointer, and promoted batches
// appear in `fresh()` exactly like new ones, so the cohort engine's
// cross-shard canonicalization sees them.
template <typename M>
class BatchInterner {
 public:
  // Interns the batch described by `view` (a just-produced outgoing round
  // batch).  Returns the canonical shared payload for its content.  The
  // view's cached per-message digests are reused, so an intern hit costs
  // one digest fold plus (on digest collision only) a content compare.
  SharedBatch<M> intern(const InboxView<M>& view) {
    digest_scratch_.clear();
    for (const auto& [d, m] : view.items()) digest_scratch_.push_back(d);
    const std::uint64_t digest = detail::fold_batch_digest(
        digest_scratch_.size(), digest_scratch_.data());
    Entry& e = by_digest_[digest];
    touch(e);
    for (const SharedBatch<M>& b : e.cur)
      if (b->size() == view.size() &&
          std::equal(b->msgs.begin(), b->msgs.end(), view.begin()))
        return b;
    // Not yet canonical this round: promote last round's object if the
    // content recurs (no rebuild), else copy the view out.  It is already
    // in canonical (digest, content) sorted-unique order, so the batch is
    // built directly.
    for (const SharedBatch<M>& b : e.prev)
      if (b->size() == view.size() &&
          std::equal(b->msgs.begin(), b->msgs.end(), view.begin())) {
        e.cur.push_back(b);
        fresh_.push_back(b);
        return b;
      }
    auto batch = std::make_shared<MessageBatch<M>>();
    batch->msgs.reserve(view.size());
    batch->digests.reserve(view.size());
    for (const auto& [d, m] : view.items()) {
      batch->msgs.push_back(*m);
      batch->digests.push_back(d);
    }
    batch->digest = digest;
    e.cur.push_back(batch);
    fresh_.push_back(batch);
    return batch;
  }

  // Payloads that became canonical (new or promoted) since the last
  // round_reset, in first-intern order.  The sharded cohort engine runs
  // one interner per shard and merges them at the round barrier: each
  // shard's fresh list is re-canonicalized across shards so
  // content-equal batches from senders in different shards still collapse
  // to one object network-wide, exactly as a single interner does.
  const std::vector<SharedBatch<M>>& fresh() const { return fresh_; }

  void round_reset() {
    ++gen_;
    fresh_.clear();
    // Periodic compaction: digests untouched for two generations belong to
    // contents that stopped recurring (adversarial non-collapsing runs mint
    // fresh contents every round); drop their entries so the index tracks
    // the live working set instead of the whole history.
    if ((gen_ & 63u) == 0) {
      for (auto it = by_digest_.begin(); it != by_digest_.end();) {
        if (it->second.gen + 1 < gen_)
          it = by_digest_.erase(it);
        else
          ++it;
      }
    }
  }

 private:
  struct Entry {
    std::uint64_t gen = 0;                // generation `cur` belongs to
    std::vector<SharedBatch<M>> cur;      // canonical this round
    std::vector<SharedBatch<M>> prev;     // canonical last round
  };

  // Lazily rolls an entry forward to the current generation.
  void touch(Entry& e) {
    if (e.gen == gen_) return;
    if (e.gen + 1 == gen_) {
      std::swap(e.cur, e.prev);  // last round's objects become promotable
      e.cur.clear();
    } else {
      e.cur.clear();
      e.prev.clear();
    }
    e.gen = gen_;
  }

  std::unordered_map<std::uint64_t, Entry> by_digest_;
  std::vector<SharedBatch<M>> fresh_;          // canonical since round_reset
  std::vector<std::uint64_t> digest_scratch_;  // reused across interns
  std::uint64_t gen_ = 0;
};

// The windowed inbox.  `round()` is k_i; readable rounds are {k-1, k}.
template <typename M>
class InboxWindow {
 public:
  // Far-early parking is an escape hatch for unsynchronised engines, not a
  // second inbox: a peer running unboundedly ahead of us would grow
  // `future_` without limit.  The cap is generous (real engines park a
  // handful of batches) and enforced on every park, so a runaway producer
  // fails loudly instead of oom-ing the process.
  static constexpr std::size_t kOverflowParkLimit = 1u << 16;

  Round round() const { return cur_; }

  // M_i[k].  Rejects reads outside the {k-1, k} window — the algorithms
  // never read other rounds, and the storage for them is gone.
  const InboxView<M>& at(Round k) const {
    ANON_CHECK_MSG(readable(k),
                   "inbox read outside the {k-1, k} round window");
    return slot(k).materialize();
  }

  bool readable(Round k) const {
    return k >= 1 && k <= cur_ && k + 1 >= cur_;
  }

  // Every live round oldest-first (window slots, then early-round
  // overflow): the weak-set's line-15 all-rounds union.
  template <typename Fn>
  void for_each_live(Fn fn) const {
    for (Round k = (cur_ >= 2 ? cur_ - 1 : Round{1}); k <= cur_ + 1; ++k) {
      const Slot& s = slot(k);
      if (!s.empty()) fn(k, s.materialize());
    }
    for (const auto& [k, s] : future_)
      if (!s.empty()) fn(k, s.materialize());
  }

  // Receive a shared (interned) batch for round k.  A far-early batch
  // arriving with the parking already at its cap is shed (a counted drop,
  // surfaced through the engines' metrics) rather than parked — under
  // heavy reorder/churn an over-eager peer is a degradation to report,
  // not a reason to abort the process.
  void add_shared(SharedBatch<M> batch, Round k) {
    ANON_CHECK(k >= 1);
    const bool parked = k > cur_ + 1;
    if (parked && parked_batches_ >= kOverflowParkLimit) {
      ++overflow_dropped_;
      return;
    }
    writable_slot(k).parts.push_back(std::move(batch));
    if (parked) {
      ++parked_batches_;
      if (parked_batches_ > overflow_high_water_)
        overflow_high_water_ = parked_batches_;
    }
  }

  // Receive messages by value (unsynchronised engines, tests): wrapped
  // into a private batch.
  void add_local(std::vector<M> msgs, Round k) {
    ANON_CHECK(k >= 1);
    add_shared(std::make_shared<MessageBatch<M>>(
                   detail::make_batch(std::move(msgs))),
               k);
  }

  // Single-message fast path (the own round message, every round): builds
  // the batch directly — a one-element batch is trivially canonical.  The
  // last built batch is cached: once the process's message freezes (it
  // decided), every subsequent round reuses the same immutable object and
  // the inbox write allocates nothing.
  void add_local(M m, Round k) {
    ANON_CHECK(k >= 1);
    const std::uint64_t d = MessageDigest<M>::of(m);
    if (own_cache_ && own_cache_->digests[0] == d &&
        own_cache_->msgs[0] == m) {
      add_shared(own_cache_, k);
      return;
    }
    auto batch = std::make_shared<MessageBatch<M>>();
    batch->digests.push_back(d);
    batch->msgs.push_back(std::move(m));
    batch->digest =
        detail::fold_batch_digest(1, batch->digests.data());
    own_cache_ = batch;
    add_shared(std::move(batch), k);
  }

  // Slides the window forward: the current round becomes `k` and slots
  // that fell out of {k-1, k, k+1} are dropped.
  void advance_to(Round k) {
    ANON_CHECK(k >= cur_);
    while (cur_ < k) {
      ++cur_;
      if (cur_ >= 2) ring_[slot_index(cur_ - 2)].clear();
      auto it = future_.find(cur_ + 1);
      if (it != future_.end()) {
        parked_batches_ -= it->second.parts.size();
        ring_[slot_index(cur_ + 1)].absorb(std::move(it->second));
        future_.erase(it);
      }
    }
  }

  // Batches currently parked in the far-early overflow, and the most that
  // were ever parked at once.  Surfaced through the engines' metrics so
  // unsynchronised deployments can watch for runaway peers.
  std::size_t overflow_parked() const { return parked_batches_; }
  std::size_t overflow_high_water() const { return overflow_high_water_; }
  // Far-early batches shed at the park limit instead of parked.
  std::size_t overflow_dropped() const { return overflow_dropped_; }

  // Content digest of everything still live (window slots and overflow),
  // mixing in the current round.  Equal windows digest equally; collisions
  // are resolved by same_content.  Used by the cohort engine to bucket
  // candidate merges (see net/cohort.hpp).
  std::uint64_t content_digest() const {
    std::uint64_t h = 0x6b9f1e8c24a35d71ULL ^ cur_;
    for_each_live([&h](Round k, const InboxView<M>& view) {
      h = detail::mix_digest(h, k);
      h = detail::mix_digest(h, view.size());
      for (const auto& [d, m] : view.items()) h = detail::mix_digest(h, d);
    });
    return h;
  }

  // Exact set-content equality of the live rounds: same current round and,
  // round for round, the same materialized message sets.  Two windows that
  // compare equal are indistinguishable to every future compute (views are
  // rebuilt from set content, so part structure does not matter).
  bool same_content(const InboxWindow& other) const {
    if (cur_ != other.cur_) return false;
    std::vector<std::pair<Round, const InboxView<M>*>> a, b;
    for_each_live([&a](Round k, const InboxView<M>& v) { a.emplace_back(k, &v); });
    other.for_each_live(
        [&b](Round k, const InboxView<M>& v) { b.emplace_back(k, &v); });
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].first != b[i].first) return false;
      const auto& va = a[i].second->items();
      const auto& vb = b[i].second->items();
      if (va.size() != vb.size()) return false;
      for (std::size_t j = 0; j < va.size(); ++j)
        if (va[j].first != vb[j].first ||
            !same_message(va[j].second, vb[j].second))
          return false;
    }
    return true;
  }

 private:
  struct Slot {
    std::vector<SharedBatch<M>> parts;
    mutable InboxView<M> view;
    mutable std::size_t merged_parts = 0;  // parts already in `view`

    bool empty() const { return parts.empty(); }

    void clear() {
      parts.clear();
      view.items_.clear();
      merged_parts = 0;
    }

    void absorb(Slot&& other) {
      for (auto& b : other.parts) parts.push_back(std::move(b));
      other.clear();
    }

    // Rebuilds the merged view if new parts arrived since the last read.
    // Cost: one (digest, content)-sort over the accumulated pointers.
    // Content is compared only on a digest tie between two distinct
    // objects: parts of one interned batch (the anonymity collapse case)
    // tie on digest and pointer, and order and dedup by pointer alone.
    const InboxView<M>& materialize() const {
      if (merged_parts == parts.size()) return view;
      auto& items = view.items_;
      items.clear();
      std::size_t total = 0;
      for (const auto& b : parts) total += b->size();
      items.reserve(total);
      for (const auto& b : parts)
        for (std::size_t i = 0; i < b->msgs.size(); ++i)
          items.emplace_back(b->digests[i], &b->msgs[i]);
      std::sort(items.begin(), items.end(), [](const auto& x, const auto& y) {
        if (x.first != y.first) return x.first < y.first;
        return x.second != y.second && *x.second < *y.second;
      });
      items.erase(std::unique(items.begin(), items.end(),
                              [](const auto& x, const auto& y) {
                                return x.first == y.first &&
                                       same_message(x.second, y.second);
                              }),
                  items.end());
      merged_parts = parts.size();
      return view;
    }
  };

  // Message equality that never compares an object with itself.
  static bool same_message(const M* a, const M* b) {
    return a == b || *a == *b;
  }

  std::size_t slot_index(Round k) const {
    return static_cast<std::size_t>(k & 3);
  }

  const Slot& slot(Round k) const { return ring_[slot_index(k)]; }

  Slot& writable_slot(Round k) {
    if (cur_ >= 2 && k < cur_ - 1) k = cur_ - 1;  // clamp far-late rounds
    if (k > cur_ + 1) return future_[k];          // park far-early rounds
    return ring_[slot_index(k)];
  }

  Slot ring_[4];
  std::map<Round, Slot> future_;  // rounds > cur_ + 1 (unsynchronised only)
  SharedBatch<M> own_cache_;      // last single-message batch built
  Round cur_ = 0;
  std::size_t parked_batches_ = 0;       // batches currently in future_
  std::size_t overflow_high_water_ = 0;  // max parked_batches_ ever
  std::size_t overflow_dropped_ = 0;     // shed at kOverflowParkLimit
};

}  // namespace anon
