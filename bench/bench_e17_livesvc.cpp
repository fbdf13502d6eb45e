// E17 — the anonsvc live service on loopback sockets (src/svc/).
//
// Everything before E17 measures simulators; this binary measures the
// deployment stack itself: real UDP datagrams, wall-clock-paced GIRAF
// rounds (source-gated closing), blocking clients over TCP.  Numbers here
// are TIMING, not protocol facts — the protocol outcomes (decisions,
// checker-clean histories, quorum completion) are asserted before any
// clock is read, and the committed BENCH_E17.json records the ladder:
//
//   E17.a  decision via the scenario surface: the e17-live presets run
//          through `run_scenario` exactly as `anonsim run --transport
//          live` would, outcomes CHECKed (consensus decides, weak-set
//          history passes the spec checker, ABD write/read completes).
//   E17.b  round latency ladder, n ∈ {3, 5, 9}: a cluster free-runs for a
//          fixed window; latency = window / rounds executed.  The floor
//          is the pacemaker period (2 ms here) — the interesting number
//          is the overhead above it at growing fan-out (n-1 datagrams
//          out, n-1 in, per node per round).
//   E17.c  client op throughput ladder, n ∈ {3, 5, 9}: one blocking
//          client, ABD write/read pairs (two quorum phases each) and
//          weak-set gets (answered from the node's current PROPOSED
//          without touching the mesh) — the quorum-bound vs local-bound
//          service paths.
#include "bench_common.hpp"

#include <string>
#include <thread>
#include <vector>

#include "svc/client.hpp"
#include "svc/daemon.hpp"

namespace anon {
namespace {

using namespace std::chrono_literals;

constexpr auto kOpTimeout = 10s;

LiveClusterOptions ladder_options(std::size_t n) {
  LiveClusterOptions opt;
  opt.n = n;
  opt.seed = 42;
  opt.period = 2ms;
  return opt;
}

void print_tables() {
  const std::vector<std::size_t> ladder = {3, 5, 9};

  // ---- E17.a: the scenario surface end-to-end ------------------------------
  double consensus_wall_s = 0, weakset_wall_s = 0, abd_wall_s = 0;
  Round decision_round = 0;
  {
    ScenarioReport rep;
    consensus_wall_s = bench::timed_seconds(
        [&] { rep = bench::run_scenario(bench::preset_spec("e17-live-consensus")); });
    ANON_CHECK_MSG(!rep.consensus_cells.empty() &&
                       rep.consensus_cells[0].report.all_correct_decided &&
                       rep.consensus_cells[0].report.agreement &&
                       rep.consensus_cells[0].report.validity,
                   "E17.a live consensus must decide with safety intact");
    decision_round = rep.consensus_cells[0].report.last_decision_round;

    ScenarioReport ws;
    weakset_wall_s = bench::timed_seconds(
        [&] { ws = bench::run_scenario(bench::preset_spec("e17-live-weakset")); });
    ANON_CHECK_MSG(!ws.weakset_cells.empty() && ws.weakset_cells[0].spec_ok &&
                       ws.weakset_cells[0].all_adds_completed,
                   "E17.a live weak-set history must pass the spec checker");

    ScenarioReport abd;
    abd_wall_s = bench::timed_seconds(
        [&] { abd = bench::run_scenario(bench::preset_spec("e17-live-abd")); });
    ANON_CHECK_MSG(!abd.abd_cells.empty() && abd.abd_cells[0].completed,
                   "E17.a live ABD write/read probe must complete");

    Table t("E17.a  scenario surface on transport \"live\" (5-node loopback "
            "UDP, 2 ms period; protocol outcomes CHECKed before timing)",
            {"preset", "outcome", "wall-clock s"});
    t.add_row({"e17-live-consensus",
               "decided r" + Table::num(static_cast<std::uint64_t>(
                                 decision_round)),
               Table::num(consensus_wall_s, 3)});
    t.add_row({"e17-live-weakset", "history spec-clean",
               Table::num(weakset_wall_s, 3)});
    t.add_row({"e17-live-abd", "write/read completed",
               Table::num(abd_wall_s, 3)});
    t.print();
  }

  // ---- E17.b: round latency ladder -----------------------------------------
  const auto window = bench::smoke() ? 200ms : 1000ms;
  std::vector<double> round_latency_ms(ladder.size(), 0);
  {
    Table t("E17.b  live round latency, free-running mesh (window " +
                Table::num(static_cast<std::uint64_t>(window.count())) +
                " ms, 2 ms pacemaker period = the floor)",
            {"n", "rounds", "latency ms/round"});
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      LiveCluster cluster(ladder_options(ladder[i]));
      ANON_CHECK_MSG(cluster.start(), "E17.b cluster must start");
      std::this_thread::sleep_for(window);
      cluster.stop_all();
      cluster.join();
      Round rounds = 0;
      for (std::size_t p = 0; p < cluster.n(); ++p)
        rounds = std::max(rounds, cluster.node(p).rounds_executed());
      ANON_CHECK_MSG(rounds > 0, "E17.b mesh must make round progress");
      round_latency_ms[i] =
          std::chrono::duration<double, std::milli>(window).count() /
          static_cast<double>(rounds);
      t.add_row({Table::num(static_cast<std::uint64_t>(ladder[i])),
                 Table::num(static_cast<std::uint64_t>(rounds)),
                 Table::num(round_latency_ms[i], 3)});
    }
    t.print();
  }

  // ---- E17.c: client op throughput ladder ----------------------------------
  const std::size_t abd_pairs = bench::smoke() ? 16 : 64;
  const std::size_t gets = bench::smoke() ? 64 : 256;
  std::vector<double> abd_ops_per_s(ladder.size(), 0);
  std::vector<double> get_ops_per_s(ladder.size(), 0);
  {
    Table t("E17.c  client op throughput, one blocking client (" +
                Table::num(static_cast<std::uint64_t>(abd_pairs)) +
                " ABD write/read pairs, " +
                Table::num(static_cast<std::uint64_t>(gets)) +
                " weak-set gets)",
            {"n", "abd ops/s", "ws-get ops/s"});
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      LiveCluster cluster(ladder_options(ladder[i]));
      ANON_CHECK_MSG(cluster.start(), "E17.c cluster must start");
      SvcClient client;
      ANON_CHECK_MSG(client.connect(cluster.client_port(0)),
                     "E17.c client must connect");
      const double abd_s = bench::timed_seconds([&] {
        for (std::size_t k = 0; k < abd_pairs; ++k) {
          ANON_CHECK_MSG(
              client.reg_write(static_cast<std::int64_t>(k), kOpTimeout).ok(),
              "E17.c write must complete");
          ANON_CHECK_MSG(client.reg_read(kOpTimeout).ok(),
                         "E17.c read must complete");
        }
      });
      const double get_s = bench::timed_seconds([&] {
        for (std::size_t k = 0; k < gets; ++k)
          ANON_CHECK_MSG(client.ws_get(kOpTimeout).ok(),
                         "E17.c get must complete");
      });
      cluster.stop_all();
      cluster.join();
      abd_ops_per_s[i] = static_cast<double>(2 * abd_pairs) / abd_s;
      get_ops_per_s[i] = static_cast<double>(gets) / get_s;
      t.add_row({Table::num(static_cast<std::uint64_t>(ladder[i])),
                 Table::num(abd_ops_per_s[i], 1),
                 Table::num(get_ops_per_s[i], 1)});
    }
    t.print();
  }

  {
    BenchJson j;
    j.set("experiment", std::string("E17"));
    j.set("workload",
          std::string("anonsvc live service on loopback UDP: scenario-surface "
                      "outcomes + round-latency and op-throughput ladders"));
    j.set("a_consensus_wall_s", consensus_wall_s);
    j.set("a_consensus_decision_round",
          static_cast<std::uint64_t>(decision_round));
    j.set("a_weakset_wall_s", weakset_wall_s);
    j.set("a_abd_wall_s", abd_wall_s);
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      const std::string n = std::to_string(ladder[i]);
      j.set("b_round_latency_ms_n" + n, round_latency_ms[i]);
      j.set("c_abd_ops_per_s_n" + n, abd_ops_per_s[i]);
      j.set("c_wsget_ops_per_s_n" + n, get_ops_per_s[i]);
    }
    j.set("period_ms", static_cast<std::uint64_t>(2));
    j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
    const std::string path = bench::json_path("BENCH_E17.json");
    if (bench::write_json(j, path))
      std::cout << "  [" << path << " written: round latency "
                << round_latency_ms.front() << " -> "
                << round_latency_ms.back() << " ms/round over n=3..9, abd "
                << abd_ops_per_s.front() << " -> " << abd_ops_per_s.back()
                << " ops/s]\n";
  }
}

void BM_LiveDecision(benchmark::State& state) {
  // One full boot-to-decision cycle per iteration (cluster setup included —
  // that IS the deployment cost of a decision).
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    LiveClusterOptions opt = ladder_options(n);
    opt.seed = seed++;
    LiveCluster cluster(opt);
    if (!cluster.start()) { state.SkipWithError("cluster failed to start"); break; }
    SvcClient client;
    if (!client.connect(cluster.client_port(0)) ||
        !client.decision(kOpTimeout).ok()) {
      state.SkipWithError("decision failed");
      break;
    }
    cluster.stop_all();
    cluster.join();
  }
}
BENCHMARK(BM_LiveDecision)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)
