// E10 — state growth (§4.1's unbounded-space caveat) and the
// digest-chain compression extension.  Algorithm 3's wire size grows
// quadratically with rounds (histories grow linearly AND the counter map
// accumulates ~1 surviving prefix entry per round); the digest-chain
// encoding makes the per-round increment O(#counter entries); the Ω
// baseline is O(n) regardless.
#include "bench_common.hpp"

#include "algo/compressed_history.hpp"
#include "algo/ess_consensus.hpp"

namespace anon {
namespace {

void print_tables() {
  const Round horizon = bench::smoke() ? 150u : 750u;
  double table_a_s = 0, table_a_plain_s = 0, table_a_gc_s = 0;
  std::uint64_t table_a_bytes = 0, table_a_sends = 0, table_a_rounds = 0;
  {
    Table t("E10.a  Algorithm 3 message size vs rounds executed (n=5, no decision)",
            {"round", "|C| plain", "plain bytes", "digest-chain bytes",
             "compression", "|C| with GC", "GC'd plain bytes"});
    // Two identical runs: paper-faithful vs the counter-GC extension.
    HistoryArena arena_plain, arena_gc;
    EnvParams env;
    env.kind = EnvKind::kESS;
    env.n = 5;
    env.seed = 23;
    env.stabilization = 6;
    EnvDelayModel delays(env, CrashPlan{});
    LockstepOptions opt;
    opt.max_rounds = horizon + 50;
    opt.record_trace = false;
    auto build = [&](bool gc, HistoryArena* arena) {
      EssConsensus::Options o;
      o.decide = false;
      o.gc_counters = gc;
      std::vector<std::unique_ptr<Automaton<EssMessage>>> autos;
      for (auto v : distinct_values(5))
        autos.push_back(std::make_unique<EssConsensus>(v, arena, o));
      return std::make_unique<LockstepNet<EssMessage>>(std::move(autos), delays,
                                                       CrashPlan{}, opt);
    };
    auto plain_net = build(false, &arena_plain);
    auto gc_net = build(true, &arena_gc);

    std::vector<Round> targets = {25u, 50u, 100u, 200u, 400u, 750u};
    while (targets.back() > horizon) targets.pop_back();
    if (targets.back() != horizon) targets.push_back(horizon);
    // Paper-faithful (A) vs counter-GC (B) stepped to each shared horizon
    // in interleaved segments (bench_common's shared A/B protocol).
    bench::InterleavedTimer ab;
    for (Round target : targets) {
      ab.lap_a([&] {
        plain_net->run([&](const LockstepNet<EssMessage>& nn) {
          return nn.round() >= target;
        });
      });
      ab.lap_b([&] {
        gc_net->run([&](const LockstepNet<EssMessage>& nn) {
          return nn.round() >= target;
        });
      });
      const auto& a =
          dynamic_cast<const EssConsensus&>(plain_net->process(0).automaton());
      const auto& g =
          dynamic_cast<const EssConsensus&>(gc_net->process(0).automaton());
      EssMessage m{a.proposed(), a.history(), a.counters()};
      EssMessage mg{g.proposed(), g.history(), g.counters()};
      const std::size_t plain = MessageSizeOf<EssMessage>::size(m);
      const std::size_t comp =
          compressed_wire_size(m.proposed.size(), m.counters.size());
      t.add_row({Table::num(target),
                 Table::num(static_cast<std::uint64_t>(a.counters().size())),
                 Table::num(static_cast<std::uint64_t>(plain)),
                 Table::num(static_cast<std::uint64_t>(comp)),
                 Table::ratio(static_cast<double>(plain) /
                              static_cast<double>(comp)),
                 Table::num(static_cast<std::uint64_t>(g.counters().size())),
                 Table::num(static_cast<std::uint64_t>(
                     MessageSizeOf<EssMessage>::size(mg)))});
    }
    table_a_s = ab.total();
    table_a_plain_s = ab.a();
    table_a_gc_s = ab.b();
    table_a_bytes = plain_net->bytes_sent() + gc_net->bytes_sent();
    table_a_sends = plain_net->sends() + gc_net->sends();
    table_a_rounds = plain_net->round() + gc_net->round();
    t.print();
  }

  {
    Table t("E10.b  history interning: arena nodes vs naive copies (n=6, 400 rounds)",
            {"workload", "rounds", "interned nodes", "naive (n×rounds)",
             "sharing"});
    // The four (workload × horizon) cells are independent runs with their
    // own arena and net, so they shard across the core sweep runner; rows
    // stay in grid order regardless of thread count.
    struct Cell {
      bool clustered;
      Round rounds;
    };
    const Round long_run = bench::smoke() ? 150u : 400u;
    const std::vector<Cell> cells = {
        {false, 100u}, {false, long_run}, {true, 100u}, {true, long_run}};
    const auto interned = parallel_sweep(cells.size(), [&](std::size_t i) {
      const Cell& cell = cells[i];
      EnvParams env;
      env.kind = EnvKind::kESS;
      env.n = 6;
      env.seed = 7;
      env.stabilization = 0;
      HistoryArena arena;
      EssConsensus::Options no_decide;
      no_decide.decide = false;
      std::vector<std::unique_ptr<Automaton<EssMessage>>> autos;
      // Clustered: three pairs of identical clones — their histories are
      // shared in the arena until (if ever) they diverge.
      std::vector<Value> init =
          cell.clustered ? std::vector<Value>{Value(1), Value(1), Value(2),
                                              Value(2), Value(3), Value(3)}
                         : distinct_values(6);
      for (auto v : init)
        autos.push_back(std::make_unique<EssConsensus>(v, &arena, no_decide));
      EnvDelayModel delays(env, CrashPlan{});
      LockstepOptions opt;
      opt.max_rounds = cell.rounds + 5;
      opt.record_trace = false;
      LockstepNet<EssMessage> net(std::move(autos), delays, CrashPlan{}, opt);
      net.run_rounds(cell.rounds);
      return static_cast<std::uint64_t>(arena.interned_nodes());
    });
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::uint64_t naive = 6ull * cells[i].rounds;
      t.add_row({cells[i].clustered ? "3 clone pairs" : "all distinct",
                 Table::num(cells[i].rounds), Table::num(interned[i]),
                 Table::num(naive),
                 Table::ratio(static_cast<double>(naive) /
                              static_cast<double>(interned[i]))});
    }
    t.print();
  }

  {
    Table t("E10.c  digest-chain codec: decode success & table size (one sender)",
            {"rounds", "increments decoded", "full fallbacks", "decoder table"});
    for (int rounds : {100, 1000}) {
      HistoryArena sender, receiver;
      HistoryDecoder dec(&receiver);
      History h = sender.singleton(Value(1));
      std::size_t ok = 0, fallback = 0;
      for (int i = 0; i < rounds; ++i) {
        auto got = dec.decode_increment(encode_increment(h));
        if (got.has_value()) {
          ++ok;
        } else {
          dec.decode_full(encode_full(h));
          ++fallback;
        }
        h = sender.append(h, Value(i % 3));
      }
      t.add_row({Table::num(static_cast<std::uint64_t>(rounds)),
                 Table::num(static_cast<std::uint64_t>(ok)),
                 Table::num(static_cast<std::uint64_t>(fallback)),
                 Table::num(static_cast<std::uint64_t>(dec.table_size()))});
    }
    t.print();
  }

  // Machine-readable result (BENCH_E10.json): the tracked workload is the
  // same dual run as a pair of state-growth scenarios (presets e10 /
  // e10-gc) through the driver, interleaved A/B.  The in-table timings
  // above remain the stepping-protocol measurement; the committed numbers
  // come from the driver so every experiment family shares one emitter.
  {
    ScenarioSpec plain = bench::preset_spec("e10");
    ScenarioSpec gc = bench::preset_spec("e10-gc");
    plain.consensus.horizon = gc.consensus.horizon = horizon;
    ScenarioReport rep_plain, rep_gc;
    const bench::AbSeconds ab = bench::interleaved_ab_seconds(
        bench::smoke() ? 1 : 2,
        [&] { rep_plain = bench::run_scenario(plain, 1); },
        [&] { rep_gc = bench::run_scenario(gc, 1); });
    BenchJson j;
    j.set("experiment", std::string("E10"));
    j.set("workload",
          std::string("ESS no-decide state growth, n=5, plain+GC runs"));
    j.set("horizon", static_cast<std::uint64_t>(horizon));
    j.set("wall_s", ab.a + ab.b);
    j.set("wall_plain_s", ab.a);
    j.set("wall_gc_s", ab.b);
    j.set("rounds", rep_plain.rounds + rep_gc.rounds);
    j.set("sends", rep_plain.sends + rep_gc.sends);
    j.set("bytes", rep_plain.bytes + rep_gc.bytes);
    j.set("state_bytes_plain", rep_plain.consensus_cells[0].state_bytes);
    j.set("state_bytes_gc", rep_gc.consensus_cells[0].state_bytes);
    j.set("counters_plain", rep_plain.consensus_cells[0].counter_entries);
    j.set("counters_gc", rep_gc.consensus_cells[0].counter_entries);
    j.set("smoke", static_cast<std::uint64_t>(bench::smoke() ? 1 : 0));
    const std::string path = bench::json_path("BENCH_E10.json");
    if (bench::write_json(j, path))
      std::cout << "  [" << path << " written: wall_s=" << ab.a + ab.b
                << " (stepping-protocol wall " << table_a_s << "s: plain "
                << table_a_plain_s << " / GC " << table_a_gc_s << ", "
                << table_a_rounds << " rounds, " << table_a_sends
                << " sends, " << table_a_bytes << " bytes)]\n";
  }
}

void BM_Alg3LongRun(benchmark::State& state) {
  const Round rounds = static_cast<Round>(state.range(0));
  for (auto _ : state) {
    ScenarioSpec spec = bench::preset_spec("e10");
    spec.seeds = {3};
    spec.stabilization = 0;
    spec.consensus.horizon = rounds;
    const auto report = bench::run_scenario(spec, 1);
    benchmark::DoNotOptimize(report.bytes);
  }
}
BENCHMARK(BM_Alg3LongRun)->Arg(100)->Arg(400);

}  // namespace
}  // namespace anon

ANON_BENCH_MAIN(&anon::print_tables)

