// The anonsvc logic layer: one anonymous node of a live cluster.
//
// A LiveNode hosts the paper's three objects behind one poll() event loop
// (transport frames + client connections, no thread per object):
//
//   * an ES consensus instance (Algorithm 2) — a GirafProcess whose rounds
//     are paced by the RoundPacemaker and whose batches ride
//     kConsensusRound service frames;
//   * Algorithm 4's weak set — a second GirafProcess sharing the same
//     round cadence (both automatons exchange ValueSets, so both reuse
//     the ES wire codec).  Blocking adds complete when the automaton
//     unblocks (v ∈ WRITTEN) AND a full round certified global visibility
//     (every peer's frame arrived carrying the value) — the stronger
//     completion makes live histories pass the sort-and-sweep checker;
//   * an ABD register replica + coordinator (quorum phases over kAbd
//     frames, retransmitted every round until a majority answers — the
//     ID-based baseline, see frame.hpp).
//
// Ingress faults: every peer frame passes svc/jitter.hpp's JitterPolicy
// (same hash-fate coin as the simulator's FaultPlan loss knob); dropped
// frames count as fault_drops, delayed ones sit in a due-queue.  ES
// safety is unconditional, so agreement/validity survive any loss rate —
// only termination needs the pacemaker to find stabilization.
//
// Degradation: a `watchdog_rounds` deadline turns blocked decision waits
// into kTimeout responses (the live face of the sim watchdog's
// `undecided` outcome); `crash_at` silences the node mid-run for fault
// drills.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "algo/es_consensus.hpp"
#include "giraf/process.hpp"
#include "runtime/codec.hpp"
#include "svc/frame.hpp"
#include "svc/jitter.hpp"
#include "svc/pacemaker.hpp"
#include "svc/transport.hpp"
#include "weakset/ms_weak_set.hpp"

namespace anon {

struct LiveNodeOptions {
  std::size_t index = 0;
  std::size_t n = 1;
  std::uint64_t epoch = 1;
  std::uint64_t seed = 1;
  SvcSocketKind socket = SvcSocketKind::kUdp;
  std::chrono::milliseconds period{4};
  std::chrono::milliseconds max_jitter{0};  // ingress JitterPolicy
  double loss = 0.0;                        // ingress JitterPolicy
  Round max_rounds = 100000;
  Round watchdog_rounds = 0;  // 0 = off
  Round stabilize_after = 5;
  Round crash_at = kNeverCrashes;
  Value proposal = Value(0);  // consensus initial value
};

class LiveNode {
 public:
  explicit LiveNode(LiveNodeOptions opt);
  ~LiveNode();

  LiveNode(const LiveNode&) = delete;
  LiveNode& operator=(const LiveNode&) = delete;

  // Binds the data transport and the client listen socket.
  bool open();
  const std::string& error() const { return error_; }

  std::uint16_t data_port() const;
  std::uint16_t client_port() const { return client_port_; }

  void connect_peers(const std::vector<SvcEndpoint>& peers);

  // The node's event loop; blocks until stop() or max_rounds.  Run on a
  // dedicated thread (LiveCluster) or as a whole process (anonsvc serve).
  void run();
  void stop() { stop_.store(true, std::memory_order_release); }

  // Post-run observations (safe after run() returned).
  std::optional<Value> decision() const { return decision_; }
  Round decision_round() const { return decision_round_; }
  Round rounds_executed() const { return rounds_executed_; }
  bool stabilized() const { return stabilized_; }
  Round stabilized_at() const { return stabilized_at_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t fault_drops() const { return fault_drops_; }
  std::uint64_t client_ops() const { return client_ops_; }

 private:
  struct ClientConn {
    int fd = -1;
    Bytes buf;
  };

  struct AbdTag {
    std::uint64_t ts = 0;
    std::uint32_t wid = 0;
    friend auto operator<=>(const AbdTag&, const AbdTag&) = default;
  };

  struct AbdOp {
    bool is_write = false;
    std::int64_t write_value = 0;
    std::uint64_t op_id = 0;
    std::size_t conn = 0;
    std::uint64_t request_id = 0;
    bool store_phase = false;
    std::vector<bool> heard;  // per-replica, current phase
    std::size_t heard_count = 0;
    AbdTag best;
    bool best_has_value = false;
    std::int64_t best_value = 0;
  };

  struct PendingWait {
    std::size_t conn = 0;
    std::uint64_t request_id = 0;
  };

  struct WsAdd {
    std::size_t conn = 0;
    std::uint64_t request_id = 0;
    Value value;
  };

  struct DueFrame {
    std::chrono::steady_clock::time_point due;
    ServiceFrame frame;
    std::size_t peer;
  };

  bool open_client_listener();
  void event_loop();
  void do_round(std::chrono::steady_clock::time_point now);
  void ingress(Transport::Datagram&& d,
               std::chrono::steady_clock::time_point now);
  void deliver(const ServiceFrame& f, std::size_t peer,
               std::chrono::steady_clock::time_point now);
  void handle_abd(const AbdWire& m);
  void abd_tick();
  void abd_start_phase(AbdOp& op, bool store);
  Bytes abd_frame(const AbdWire& m) const;
  void abd_finish(AbdOp& op);
  void accept_clients();
  void read_client(std::size_t conn_idx);
  void handle_request(std::size_t conn_idx, const ClientRequest& req);
  void respond(std::size_t conn_idx, const ClientResponse& resp);
  void service_waiters();
  void fail_all_pending(SvcStatus status);
  std::size_t majority() const { return opt_.n / 2 + 1; }

  LiveNodeOptions opt_;
  std::unique_ptr<Transport> transport_;
  JitterPolicy jitter_;
  int listen_fd_ = -1;
  std::uint16_t client_port_ = 0;
  std::string error_;
  std::atomic<bool> stop_{false};

  // Protocol state (event-loop thread only).
  GirafProcess<EsMessage> consensus_;
  GirafProcess<ValueSet> weakset_;
  MsWeakSetAutomaton* ws_automaton_ = nullptr;  // owned by weakset_
  std::unique_ptr<RoundPacemaker> pacemaker_;
  std::vector<DueFrame> due_;  // jitter-delayed frames

  AbdTag abd_tag_;
  bool abd_has_value_ = false;
  std::int64_t abd_value_ = 0;
  std::vector<AbdOp> abd_ops_;
  std::uint64_t abd_next_op_ = 0;

  std::vector<ClientConn> conns_;
  std::vector<PendingWait> decision_waiters_;
  std::deque<WsAdd> ws_adds_;  // front = in flight iff ws_add_active_
  bool ws_add_active_ = false;
  // Visibility certificate for the in-flight add: set at a round whose
  // view was full (every peer's weak-set frame arrived) with the value in
  // every message — at that point every node's proposed set provably holds
  // it (see do_round), so later gets anywhere return it.
  bool ws_add_confirmed_ = false;
  // Per-tag weak-set frame counts for the full-view test (pruned to the
  // current inbox window; each peer sends exactly one frame per tag).
  std::vector<std::pair<Round, std::size_t>> ws_tag_counts_;

  // Observations.
  std::optional<Value> decision_;
  Round decision_round_ = 0;
  Round rounds_executed_ = 0;
  bool stabilized_ = false;
  Round stabilized_at_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t client_ops_ = 0;
};

}  // namespace anon
