// The live-svc workload: a real loopback anonsvc cluster (UDP, 2 ms
// pacemaker period), driven through the blocking SvcClient.
//
//   A  boot → decision → stop cycles, closed loop, one client at a time:
//      clean cycles (the end-to-end cells), then cycles at ingress loss
//      0.2.  Every node's decision is collected and checked for agreement
//      and validity.  (No ingress jitter: with 1 ms jitter on a contended
//      box, about 1 cycle in 100 decided two values — every such cycle had
//      rounds closed by the pacemaker's hard timeout without the round
//      source's batch.  A workload that fails at random cannot gate.)
//   B  one long-lived cluster.  Two connections run an open loop at 500,
//      then 2000 ops/s (40% reg_read, 20% reg_write on the writer
//      connection only, 40% ws_get), each op timed from its due time; a
//      third connection runs closed-loop ws_add.  The weak-set history
//      goes through check_weak_set_spec and the single-writer register
//      history through check_regular_register, stamped from one atomic.
//   C  a single-node cluster: closed-loop reg_write / ws_add baseline.
//
// Phases share --seconds 45/10/35/10.  The traced run alternates untraced
// and traced segments of the clean cycles for trace_overhead_ratio.
#include <algorithm>
#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "suite.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "weakset/weak_set.hpp"
#include "weakset/ws_register.hpp"

namespace anon::suite {

namespace {

using std::chrono::milliseconds;

constexpr milliseconds kPeriod{2};
constexpr milliseconds kOpTimeout{5000};
constexpr double kLossyLoss = 0.2;
constexpr std::size_t kSetupReps = 15;
constexpr std::size_t kGetHistoryEvery = 16;
constexpr std::uint64_t kCycleStream = 11;
constexpr std::uint64_t kOpStream = 12;

double ms_since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

LiveClusterOptions cluster_options(std::size_t n, std::uint64_t seed,
                                   std::uint64_t epoch) {
  LiveClusterOptions o;
  o.n = n;
  o.seed = seed;
  // Consecutive clusters reuse ports; distinct epochs fence stray frames.
  o.epoch = epoch;
  o.period = kPeriod;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    o.proposals.push_back(Value(rng.range(0, 999999)));
  return o;
}

// ---- A: decision cycles -----------------------------------------------------

struct Cycle {
  std::string error;  // empty = every check passed
  double boot_ms = 0, status_ms = 0, decide_ms = 0, stop_ms = 0, total_ms = 0;
  double check_us = 0;
  std::uint64_t decide_rounds = 0;
  std::uint64_t frames_sent = 0, frames_received = 0, bytes_sent = 0;
  std::uint64_t fault_drops = 0;
};

Cycle decision_cycle(std::size_t n, std::uint64_t seed, std::uint64_t epoch,
                     double loss, Tracer& tr, std::uint64_t id) {
  Cycle c;
  LiveClusterOptions o = cluster_options(n, seed, epoch);
  o.loss = loss;
  const std::vector<Value> proposals = o.proposals;
  LiveCluster cluster(o);
  std::vector<Value> decisions;
  const Clock::time_point t0 = Clock::now();
  {
    auto cycle = tr.span("cycle", id);
    bool started;
    {
      auto s = tr.span("svc.boot", id);
      started = cluster.start();
    }
    const Clock::time_point t1 = Clock::now();
    c.boot_ms = ms_since(t0, t1);
    if (!started) {
      c.error = "cluster failed to start: " + cluster.error();
      return c;
    }
    SvcClient client;
    if (!client.connect(cluster.client_port(0))) c.error = "connect failed";
    SvcClient::Result status, decision;
    const Clock::time_point t2 = Clock::now();
    {
      auto s = tr.span("svc.status", id);
      status = client.status(kOpTimeout);
    }
    const Clock::time_point t3 = Clock::now();
    {
      auto s = tr.span("svc.decide", id);
      decision = client.decision(kOpTimeout);
    }
    const Clock::time_point t4 = Clock::now();
    c.status_ms = ms_since(t2, t3);
    c.decide_ms = ms_since(t3, t4);
    c.decide_rounds = decision.info;
    if (c.error.empty() && !status.ok()) c.error = "status failed";
    if (c.error.empty() && (!decision.ok() || decision.values.size() != 1))
      c.error = "decision failed";
    if (decision.ok() && decision.values.size() == 1)
      decisions.push_back(decision.values[0]);
    {
      // Agreement needs every node's decision: ask the others in turn.
      auto s = tr.span("svc.agree", id);
      for (std::size_t i = 1; i < n && c.error.empty(); ++i) {
        SvcClient other;
        const auto r = other.connect(cluster.client_port(i))
                           ? other.decision(kOpTimeout)
                           : SvcClient::Result{};
        if (!r.ok() || r.values.size() != 1)
          c.error = "node " + std::to_string(i) + " did not decide";
        else
          decisions.push_back(r.values[0]);
      }
    }
    const Clock::time_point t5 = Clock::now();
    {
      auto s = tr.span("svc.stop", id);
      cluster.stop_all();
      cluster.join();
    }
    c.stop_ms = ms_since(t5, Clock::now());
    const Clock::time_point t6 = Clock::now();
    {
      auto s = tr.span("check", id);
      for (const Value& d : decisions) {
        if (!(d == decisions[0])) c.error = "agreement violated";
        if (std::find(proposals.begin(), proposals.end(), d) == proposals.end())
          c.error = "validity violated";
      }
    }
    c.check_us = ms_since(t6, Clock::now()) * 1e3;
  }
  c.total_ms = ms_since(t0, Clock::now()) - c.check_us / 1e3;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    const LiveNode& node = cluster.node(i);
    c.frames_sent += node.frames_sent();
    c.frames_received += node.frames_received();
    c.bytes_sent += node.bytes_sent();
    c.fault_drops += node.fault_drops();
  }
  return c;
}

// ---- B: the long-lived cluster under open and closed loops ------------------

struct Op {
  SvcOp op = SvcOp::kWsGet;
  std::size_t stage = 0;        // 0 = first rate, 1 = second rate
  Clock::time_point due;
  std::int64_t value = 0;       // reg_write operand
  // Every get returns the whole, growing weak set: only every
  // kGetHistoryEvery-th get keeps its result for the history check (a
  // subset of a history is a history), so the suite's own memory stays
  // small beside the service's.
  bool in_history = true;
  // Outcome.
  bool ok = false;
  double latency_ms = 0;        // from the due time
  double late_ms = 0;           // send time − due time
  std::uint64_t start = 0, end = 0;  // logical stamps
  std::vector<Value> values;
};

struct AddOp {
  std::int64_t value = 0;
  bool ok = false;
  double latency_ms = 0;
  std::uint64_t start = 0, end = 0, info = 0;
};

// Runs `ops` (due-ordered) on one connection; latency counts from each op's
// due time, so a stall also charges the operations queued behind it.
void open_loop(std::uint16_t port, std::vector<Op*>& ops,
               std::atomic<std::uint64_t>& stamp, Tracer& tr) {
  SvcClient client;
  const bool connected = client.connect(port);
  for (Op* op : ops) {
    std::this_thread::sleep_until(op->due);
    if (!connected) continue;
    const Clock::time_point sent = Clock::now();
    op->late_ms = ms_since(op->due, sent);
    op->start = stamp.fetch_add(1);
    SvcClient::Result r;
    switch (op->op) {
      case SvcOp::kRegWrite:
        r = client.reg_write(op->value, kOpTimeout);
        break;
      case SvcOp::kRegRead:
        r = client.reg_read(kOpTimeout);
        break;
      default:
        r = client.ws_get(kOpTimeout);
        break;
    }
    op->end = stamp.fetch_add(1);
    const Clock::time_point done = Clock::now();
    tr.record(op->op == SvcOp::kRegWrite  ? "svc.op.reg_write"
              : op->op == SvcOp::kRegRead ? "svc.op.reg_read"
                                          : "svc.op.ws_get",
              static_cast<std::uint64_t>(op->start), sent, done);
    op->ok = r.ok();
    op->latency_ms = ms_since(op->due, done);
    if (op->in_history) op->values = std::move(r.values);
  }
}

struct PhaseB {
  std::vector<Op> ops;
  std::vector<AddOp> adds;
  double wall_s = 0;
  std::uint64_t rounds = 0, frames_sent = 0, frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::string error;
};

PhaseB long_lived(std::size_t n, std::uint64_t seed, std::uint64_t epoch,
                  double seconds, const double rates[2], Tracer& tr) {
  PhaseB b;
  LiveCluster cluster(cluster_options(n, seed, epoch));
  if (!cluster.start()) {
    b.error = "cluster failed to start: " + cluster.error();
    return b;
  }
  const std::uint16_t port = cluster.client_port(0);
  // The op schedule: fixed spacing per stage, seeded op mix.
  Rng rng(derive_seed(seed, kOpStream, 0));
  const Clock::time_point start = Clock::now() + milliseconds(20);
  const double stage_s = seconds / 2;
  std::int64_t next_write =
      1 + static_cast<std::int64_t>(rng.below(1000)) * 1000;
  std::size_t gets = 0;
  for (std::size_t stage = 0; stage < 2; ++stage) {
    const auto count = static_cast<std::size_t>(rates[stage] * stage_s);
    for (std::size_t k = 0; k < count; ++k) {
      Op op;
      op.stage = stage;
      op.due = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               stage_s * static_cast<double>(stage) +
                               static_cast<double>(k) / rates[stage]));
      const std::uint64_t u = rng.below(10);
      op.op = u < 4   ? SvcOp::kRegRead
              : u < 6 ? SvcOp::kRegWrite
                      : SvcOp::kWsGet;
      if (op.op == SvcOp::kRegWrite) op.value = next_write++;
      if (op.op == SvcOp::kWsGet)
        op.in_history = gets++ % kGetHistoryEvery == 0;
      b.ops.push_back(op);
    }
  }
  // Writes stay on the writer connection (single writer); reads and gets
  // alternate between the two connections.
  std::vector<Op*> writer_ops, reader_ops;
  std::size_t alternate = 0;
  for (Op& op : b.ops) {
    const bool writer = op.op == SvcOp::kRegWrite || alternate++ % 2 == 0;
    (writer ? writer_ops : reader_ops).push_back(&op);
  }

  std::atomic<std::uint64_t> stamp{1};
  std::atomic<bool> adding{true};
  const std::int64_t add_base =
      1000000 + static_cast<std::int64_t>(rng.below(1000)) * 10000;
  const Clock::time_point t0 = Clock::now();
  {
    std::thread writer([&] { open_loop(port, writer_ops, stamp, tr); });
    std::thread reader([&] { open_loop(port, reader_ops, stamp, tr); });
    std::thread adder([&] {
      SvcClient client;
      if (!client.connect(port)) {
        b.adds.push_back(AddOp{});  // counted as a failed add
        return;
      }
      for (std::int64_t k = 0; adding.load(); ++k) {
        AddOp a;
        a.value = add_base + k;
        const Clock::time_point s = Clock::now();
        a.start = stamp.fetch_add(1);
        const auto r = client.ws_add(a.value, kOpTimeout);
        a.end = stamp.fetch_add(1);
        const Clock::time_point e = Clock::now();
        tr.record("svc.op.ws_add", a.start, s, e);
        a.ok = r.ok();
        a.info = r.info;
        a.latency_ms = ms_since(s, e);
        b.adds.push_back(a);
        if (!a.ok) break;
      }
    });
    writer.join();
    reader.join();
    adding.store(false);
    adder.join();
  }
  b.wall_s = seconds_between(t0, Clock::now());
  cluster.stop_all();
  cluster.join();
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    const LiveNode& node = cluster.node(i);
    b.rounds = std::max<std::uint64_t>(b.rounds, node.rounds_executed());
    b.frames_sent += node.frames_sent();
    b.frames_received += node.frames_received();
    b.bytes_sent += node.bytes_sent();
  }
  return b;
}

// The client-observed histories through the library's checkers.
std::string check_histories(const PhaseB& b) {
  std::vector<WsOpRecord> ws;
  std::vector<RegOpRecord> reg;
  for (const AddOp& a : b.adds) {
    if (!a.ok) continue;  // an unfinished add must not enter the history
    WsOpRecord r{WsOpRecord::Kind::kAdd, Value(a.value), {}, a.start, a.end, 0};
    ws.push_back(r);
  }
  for (const Op& op : b.ops) {
    if (!op.ok || !op.in_history) continue;
    if (op.op == SvcOp::kWsGet) {
      WsOpRecord r{WsOpRecord::Kind::kGet, Value(), {}, op.start, op.end, 0};
      for (const Value& v : op.values) r.result.insert(v);
      ws.push_back(r);
    } else {
      RegOpRecord r{op.op == SvcOp::kRegWrite ? RegOpRecord::Kind::kWrite
                                              : RegOpRecord::Kind::kRead,
                    std::nullopt, op.start, op.end, 0};
      if (op.op == SvcOp::kRegWrite)
        r.value = Value(op.value);
      else if (!op.values.empty())
        r.value = op.values[0];
      reg.push_back(r);
    }
  }
  const WsCheckResult wsc = check_weak_set_spec(ws);
  if (!wsc.ok) return "weak-set history violates the spec: " + wsc.violation;
  const RegCheckResult rc = check_regular_register(reg);
  if (!rc.ok) return "register history is not regular: " + rc.violation;
  return "";
}

// ---- Codec microbenchmarks -------------------------------------------------

struct CodecTimes {
  std::vector<double> encode_us, decode_us, response_us;  // per operation
  bool ok = true;
};

CodecTimes codec_times(std::size_t n, std::uint64_t seed, Tracer& tr) {
  constexpr int kSamples = 30, kIters = 200;
  Rng rng(seed);
  std::vector<ValueSet> batch(n);
  for (ValueSet& s : batch)
    for (int i = 0; i < 8; ++i) s.insert(Value(rng.range(0, 999999)));
  ServiceFrame frame;
  frame.kind = SvcFrameKind::kConsensusRound;
  frame.epoch = seed;
  frame.round = 1 + rng.below(1000);
  ClientResponse resp;
  resp.request_id = 7;
  for (int i = 0; i < 50; ++i)
    resp.values.push_back(Value(rng.range(0, 999999)));

  CodecTimes t;
  Bytes wire;
  std::size_t sink = 0;
  for (int s = 0; s < kSamples; ++s) {
    Clock::time_point a = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      frame.payload = encode_valueset_batch(batch);
      wire = encode_service_frame(frame);
      sink += wire.size();
    }
    Clock::time_point b = Clock::now();
    tr.record("svc.frame.encode", static_cast<std::uint64_t>(s), a, b);
    t.encode_us.push_back(ms_since(a, b) * 1e3 / kIters);
    a = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      const auto f = decode_service_frame(wire);
      const auto decoded = f ? decode_valueset_batch(f->payload) : std::nullopt;
      if (!decoded || *decoded != batch) t.ok = false;
    }
    b = Clock::now();
    tr.record("svc.frame.decode", static_cast<std::uint64_t>(s), a, b);
    t.decode_us.push_back(ms_since(a, b) * 1e3 / kIters);
    a = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      const auto back = decode_client_response(encode_client_response(resp));
      if (!back || back->values.size() != resp.values.size()) t.ok = false;
    }
    b = Clock::now();
    tr.record("svc.response.codec", static_cast<std::uint64_t>(s), a, b);
    t.response_us.push_back(ms_since(a, b) * 1e3 / kIters);
  }
  if (sink == 0) t.ok = false;
  return t;
}

// Latencies (from the due time) of the successful `op`s of one stage.
std::vector<double> latencies(const std::vector<Op>& ops, std::size_t stage,
                              SvcOp op) {
  std::vector<double> out;
  for (const Op& o : ops)
    if (o.ok && o.stage == stage && o.op == op) out.push_back(o.latency_ms);
  return out;
}

}  // namespace

WorkloadResult run_live_workload(const Options& opt, Tracer& tr) {
  WorkloadResult res;
  const std::size_t n = opt.smoke ? 3 : 5;
  const double rates[2] = {500, 2000};
  const double a_clean_s = opt.seconds * 0.45, a_lossy_s = opt.seconds * 0.10;
  const double b_s = opt.seconds * 0.35, c_s = opt.seconds * 0.10;
  res.sizes.set("n", JsonValue::uint(n));
  res.sizes.set("period_ms", JsonValue::uint(kPeriod.count()));
  res.sizes.set("lossy_loss", JsonValue::number(kLossyLoss));
  res.sizes.set("open_loop_ops_per_s", [&] {
    JsonValue a = JsonValue::array();
    for (double r : rates) a.push(JsonValue::number(r));
    return a;
  }());
  res.sizes.set("phase_seconds", [&] {
    JsonValue p = JsonValue::object();
    p.set("clean_cycles", JsonValue::number(a_clean_s));
    p.set("lossy_cycles", JsonValue::number(a_lossy_s));
    p.set("long_lived", JsonValue::number(b_s));
    p.set("single_node", JsonValue::number(c_s));
    return p;
  }());

  std::uint64_t epoch = derive_seed(opt.seed, kCycleStream, ~0ULL) >> 24;
  auto cycle_seed = [&](std::uint64_t stream, std::uint64_t i) {
    return derive_seed(opt.seed, stream, i) >> 16;
  };

  // Set-up: a warm-up cycle (boot → first OK status → decision → stop),
  // repeated, the median reported.
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    const Cycle c =
        decision_cycle(n, cycle_seed(1, rep), ++epoch, 0.0, tr, rep);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    ++res.attempted;
    if (!c.error.empty()) res.fail("warm-up cycle", c.error);
  }

  // A, clean cycles.  Traced runs alternate four segments, untraced first.
  std::vector<Cycle> clean, traced_clean;
  {
    const Clock::time_point start = Clock::now();
    const double segment = a_clean_s / 4;
    for (std::uint64_t i = 0;; ++i) {
      const double elapsed = seconds_between(start, Clock::now());
      if (elapsed >= a_clean_s && i >= 4) break;
      const bool traced =
          opt.trace && static_cast<int>(elapsed / segment) % 2 == 1;
      tr.set_enabled(traced);
      Cycle c = decision_cycle(n, cycle_seed(2, i), ++epoch, 0.0, tr, i);
      ++res.attempted;
      if (!c.error.empty()) {
        res.fail("clean cycle " + std::to_string(i), c.error);
        continue;
      }
      (traced ? traced_clean : clean).push_back(c);
    }
  }
  tr.set_enabled(opt.trace);

  // A, lossy cycles.
  std::vector<Cycle> lossy;
  {
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0;; ++i) {
      if (seconds_between(start, Clock::now()) >= a_lossy_s && i >= 2) break;
      Cycle c = decision_cycle(n, cycle_seed(3, i), ++epoch, kLossyLoss, tr, i);
      ++res.attempted;
      if (!c.error.empty()) {
        res.fail("lossy cycle " + std::to_string(i), c.error);
        continue;
      }
      lossy.push_back(c);
    }
  }

  // B.
  PhaseB b = long_lived(n, cycle_seed(4, 0), ++epoch, b_s, rates, tr);
  res.attempted += b.ops.size() + b.adds.size();
  if (!b.error.empty()) res.fail("long-lived cluster", b.error);
  for (const Op& op : b.ops)
    if (!op.ok) res.fail("open-loop op", "timed out or returned non-OK");
  for (const AddOp& a : b.adds)
    if (!a.ok) res.fail("ws_add", "timed out or returned non-OK");
  if (b.error.empty())
    if (std::string d = check_histories(b); !d.empty())
      res.fail("long-lived", d);

  // C: single-node baseline.
  std::vector<double> n1_write_ms, n1_add_ms;
  {
    LiveCluster cluster(cluster_options(1, cycle_seed(5, 0), ++epoch));
    SvcClient client;
    if (!cluster.start() || !client.connect(cluster.client_port(0))) {
      res.fail("single node", "cluster failed to start");
    } else {
      std::vector<std::int64_t> added;
      std::int64_t last_write = 0;
      const Clock::time_point start = Clock::now();
      for (std::int64_t k = 1;
           seconds_between(start, Clock::now()) < c_s || k <= 2; ++k) {
        Clock::time_point t0 = Clock::now();
        const bool w = client.reg_write(k, kOpTimeout).ok();
        n1_write_ms.push_back(ms_since(t0, Clock::now()));
        t0 = Clock::now();
        const bool a = client.ws_add(k, kOpTimeout).ok();
        n1_add_ms.push_back(ms_since(t0, Clock::now()));
        res.attempted += 2;
        if (!w || !a) {
          res.fail("single node", "op timed out or returned non-OK");
          break;
        }
        last_write = k;
        added.push_back(k);
      }
      const auto read = client.reg_read(kOpTimeout);
      const auto get = client.ws_get(kOpTimeout);
      res.attempted += 2;
      if (!read.ok() || read.values.size() != 1 ||
          !(read.values[0] == Value(last_write)))
        res.fail("single node", "read did not return the last write");
      if (!get.ok() || get.values.size() != added.size())
        res.fail("single node", "get did not return every completed add");
    }
    cluster.stop_all();
    cluster.join();
  }

  const CodecTimes codec = codec_times(n, cycle_seed(6, 0), tr);
  if (!codec.ok) res.fail("codec", "a frame or response did not round-trip");
  tr.set_enabled(false);

  // ---- Metrics -----------------------------------------------------------
  auto field = [](const std::vector<Cycle>& cs, auto Cycle::*f) {
    std::vector<double> v;
    for (const Cycle& c : cs) v.push_back(static_cast<double>(c.*f));
    return v;
  };
  auto p50 = [](const std::vector<double>& v) { return quantile(v, 0.5); };
  auto rate = [](const std::vector<Cycle>& cs) {
    double total_ms = 0;
    for (const Cycle& c : cs) total_ms += c.total_ms;
    return total_ms > 0 ? static_cast<double>(cs.size()) / (total_ms / 1e3)
                        : 0;
  };
  // With tracing on, the traced cycles are the per-layer sample.
  const std::vector<Cycle>& layer = opt.trace ? traced_clean : clean;
  std::vector<double> round_us;
  for (const Cycle& c : layer)
    if (c.decide_rounds > 0)
      round_us.push_back(c.decide_ms * 1e3 /
                         static_cast<double>(c.decide_rounds));
  std::vector<double> add_ms, add_rounds;
  for (std::size_t i = 0; i < b.adds.size(); ++i) {
    if (!b.adds[i].ok) continue;
    add_ms.push_back(b.adds[i].latency_ms);
    // Closed loop: each add starts as the previous one completes.
    if (i > 0 && b.adds[i].info >= b.adds[i - 1].info)
      add_rounds.push_back(
          static_cast<double>(b.adds[i].info - b.adds[i - 1].info));
  }
  double lossy_drops = 0, lossy_received = 0;
  for (const Cycle& c : lossy) {
    lossy_drops += static_cast<double>(c.fault_drops);
    lossy_received += static_cast<double>(c.frames_received);
  }
  const double node_rounds =
      static_cast<double>(n) * static_cast<double>(b.rounds);
  const std::vector<double> decide = field(clean, &Cycle::decide_ms);
  const auto E = MetricKind::kEndToEnd;
  const auto L = MetricKind::kPerLayer;
  const auto D = MetricKind::kDetail;

  res.add("setup_s", p50(setup_s), "s", false, E);
  res.add("cells_per_s", rate(clean), "1/s", true, E);
  res.add("cell_p50_ms", p50(decide), "ms", false, E);
  res.add("cell_p90_ms", quantile(decide, 0.9), "ms", false, E);
  res.add("peak_rss_mb", peak_rss_mb(), "MB", false, E);

  res.add("codec.encode_us_p50", p50(codec.encode_us), "us", false, L);
  res.add("codec.decode_us_p50", p50(codec.decode_us), "us", false, L);
  res.add("codec.report_us_p50", p50(codec.response_us), "us", false, L);
  res.add("dispatch.overhead_us_p50",
          p50(field(layer, &Cycle::status_ms)) * 1e3, "us", false, L);
  res.add("direct.cell_ms_p50", p50(field(layer, &Cycle::total_ms)), "ms",
          false, L);
  res.add("engine.construct_us_p50", p50(field(layer, &Cycle::boot_ms)) * 1e3,
          "us", false, L);
  res.add("engine.teardown_us_p50", p50(field(layer, &Cycle::stop_ms)) * 1e3,
          "us", false, L);
  res.add("engine.round_us_p50", p50(round_us), "us", false, L);
  res.add("engine.round_us_p99", quantile(round_us, 0.99), "us", false, L);
  res.add("engine.deliveries_per_s",
          ratio(static_cast<double>(b.frames_received), b.wall_s), "1/s", true,
          L);
  res.add("engine.speedup_2t", 0, "ratio", true, L);
  res.add("check.cell_us_p50", p50(field(layer, &Cycle::check_us)), "us",
          false, L);
  res.add("engine.rounds_per_cell", p50(field(layer, &Cycle::decide_rounds)),
          "count", false, L);
  res.add("engine.deliveries_per_cell",
          p50(field(layer, &Cycle::frames_received)), "count", false, L);
  res.add("engine.sends_per_cell", p50(field(layer, &Cycle::frames_sent)),
          "count", false, L);
  res.add("engine.bytes_per_cell", p50(field(layer, &Cycle::bytes_sent)), "B",
          false, L);
  res.add("engine.fault_drops_per_cell",
          ratio(lossy_drops, static_cast<double>(lossy.size())), "count", false,
          L);
  res.add("engine.inbox_overflow_high_water", 0, "count", false, L);
  res.add("cohort.classes_max_split", 0, "count", false, L);
  res.add("cohort.classes_max_distinct", 0, "count", false, L);
  res.add("weakset.add_latency_rounds_mean", mean(add_rounds), "rounds", false,
          L);
  res.add("trace_overhead_ratio",
          opt.trace ? ratio(rate(traced_clean), rate(clean)) : 0, "ratio", true,
          L);

  // Detail: the live service's own breakdown.
  res.add("decide_p95_ms", quantile(decide, 0.95), "ms", false, D);
  res.add("ws_add_p50_ms", p50(add_ms), "ms", false, D);
  res.add("ws_add_p99_ms", quantile(add_ms, 0.99), "ms", false, D);
  res.add("svc.boot_ms_p50", p50(field(clean, &Cycle::boot_ms)), "ms", false,
          D);
  res.add("svc.stop_ms_p50", p50(field(clean, &Cycle::stop_ms)), "ms", false,
          D);
  res.add("svc.decide_rounds_p50", p50(field(clean, &Cycle::decide_rounds)),
          "rounds", false, D);
  res.add("svc.round_ms",
          std::max(ratio(b.wall_s * 1e3, static_cast<double>(b.rounds)),
                   static_cast<double>(kPeriod.count())),
          "ms", false, D);
  res.add("svc.ws_add_rounds_p50", p50(add_rounds), "rounds", false, D);
  res.add("svc.frames_per_round_per_node",
          ratio(static_cast<double>(b.frames_sent), node_rounds), "count",
          false, D);
  res.add("svc.bytes_per_round_per_node",
          ratio(static_cast<double>(b.bytes_sent), node_rounds), "B", false, D);
  res.add("svc.frames_per_op",
          ratio(static_cast<double>(b.frames_sent),
                static_cast<double>(b.ops.size() + b.adds.size())),
          "count", false, D);
  res.add("svc.lossy.decide_p50_ms", p50(field(lossy, &Cycle::decide_ms)), "ms",
          false, D);
  res.add("svc.lossy.decide_rounds_p50",
          p50(field(lossy, &Cycle::decide_rounds)), "rounds", false, D);
  res.add("svc.lossy.fault_drop_ratio",
          ratio(lossy_drops, lossy_drops + lossy_received), "ratio", false, D);
  const char* stage_names[2] = {"svc.r500.", "svc.r2000."};
  const std::pair<SvcOp, const char*> kinds[3] = {
      {SvcOp::kRegRead, "reg_read"},
      {SvcOp::kRegWrite, "reg_write"},
      {SvcOp::kWsGet, "ws_get"}};
  for (std::size_t stage = 0; stage < 2; ++stage) {
    const std::string prefix = stage_names[stage];
    for (const auto& [op, name] : kinds) {
      const std::vector<double> lat = latencies(b.ops, stage, op);
      res.add(prefix + name + "_p50_ms", p50(lat), "ms", false, D);
      res.add(prefix + name + "_p99_ms", quantile(lat, 0.99), "ms", false, D);
    }
    double late = 0;
    for (const Op& o : b.ops)
      if (o.stage == stage) late = std::max(late, o.late_ms);
    res.add(prefix + "gen_late_max_ms", late, "ms", false, D);
  }
  res.add("svc.n1.reg_write_p50_ms", p50(n1_write_ms), "ms", false, D);
  res.add("svc.n1.ws_add_p50_ms", p50(n1_add_ms), "ms", false, D);
  res.add("svc.frame.encode_ns", p50(codec.encode_us) * 1e3, "ns", false, D);
  res.add("svc.frame.decode_ns", p50(codec.decode_us) * 1e3, "ns", false, D);
  res.add("cells", static_cast<double>(clean.size()), "count", true, D);
  res.add("ws_adds", static_cast<double>(add_ms.size()), "count", true, D);
  res.add("failed_ratio",
          ratio(static_cast<double>(res.failed),
                static_cast<double>(res.attempted)),
          "ratio", false, D);
  return res;
}

}  // namespace anon::suite
