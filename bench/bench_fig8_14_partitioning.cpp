// Figures 8-14: the impact of graph partitioning on Pregel/BSP.
//
// One experiment grid — {WG, CP} x {hash, METIS-like, streaming LDG} x
// {PageRank, BC, APSP} — feeds all seven partitioning figures:
//
//   Fig 8   relative total time vs hash (paper: WG improves 42-50% with
//           METIS, 24-35% with streaming; CP does NOT improve — hashing
//           even beats both for APSP on CP)
//   Fig 9   BC time split compute+I/O vs barrier wait + utilization %, WG
//   Fig 12  same for CP (paper: hash has HIGHER utilization yet HIGHER
//           total time; METIS the inverse — the barrier wait exposes
//           partition-local activity maximas)
//   Fig 10/11  per-worker messages in the peak supersteps, hash vs METIS, WG
//   Fig 13/14  same for CP (paper: hash uniform; METIS imbalanced, worse on
//           CP — e.g. 2x spread, 4M vs 2M in superstep 9)
//
// Edge-cut context from the paper: remote edges 87%/18%/35% (WG) and
// 86%/17%/65% (CP) for hash/METIS/streaming.
#include <algorithm>
#include <iostream>
#include <map>

#include "algos/apsp.hpp"
#include "algos/bc.hpp"
#include "algos/pagerank.hpp"
#include "harness/experiment.hpp"
#include "partition/quality.hpp"
#include "util/ascii_plot.hpp"
#include "util/stats.hpp"

using namespace pregel;
using namespace pregel::algos;
using namespace pregel::harness;

namespace {

struct RunRecord {
  Seconds total = 0.0;
  Seconds busy = 0.0;          // compute + I/O across workers
  Seconds wait = 0.0;          // barrier wait across workers
  double utilization = 0.0;
  /// workers x peak-supersteps message matrix (for Figs 10/11/13/14).
  std::vector<std::vector<std::uint64_t>> peak_matrix;
  std::vector<std::uint64_t> peak_steps;
};

RunRecord record_from(const JobMetrics& m, std::size_t peak_count = 4) {
  RunRecord r;
  r.total = m.total_time;
  r.busy = m.total_busy_time();
  r.wait = m.total_barrier_wait();
  r.utilization = m.utilization();

  // The `peak_count` peak supersteps, in time order. "Peak" is judged by the
  // busiest single worker, because under BSP that worker sets the
  // superstep's duration — which is precisely the effect Figures 10-14
  // exist to show.
  std::vector<std::pair<std::uint64_t, std::size_t>> by_msgs;
  for (std::size_t i = 0; i < m.supersteps.size(); ++i) {
    std::uint64_t busiest = 0;
    for (const auto& w : m.supersteps[i].workers)
      busiest = std::max(busiest, w.messages_sent_total());
    by_msgs.emplace_back(busiest, i);
  }
  std::sort(by_msgs.rbegin(), by_msgs.rend());
  std::vector<std::size_t> picked;
  for (std::size_t i = 0; i < std::min(peak_count, by_msgs.size()); ++i)
    picked.push_back(by_msgs[i].second);
  std::sort(picked.begin(), picked.end());

  for (std::size_t idx : picked) {
    const auto& sm = m.supersteps[idx];
    r.peak_steps.push_back(sm.superstep);
    std::vector<std::uint64_t> row;
    for (const auto& w : sm.workers) row.push_back(w.messages_sent_total());
    r.peak_matrix.push_back(std::move(row));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  harness::init(argc, argv);
  banner("Figures 8-14 — partitioning impact on Pregel/BSP (8 workers)",
         "good partitioning helps WG (42-50% with METIS) but not CP: barrier "
         "synchronization turns METIS's activity concentration into wait time");

  const std::vector<std::string> partitioners{"hash", "metis", "stream"};
  const std::vector<std::string> apps{"PageRank", "BC", "APSP"};
  // graph -> partitioner -> app -> record
  std::map<std::string, std::map<std::string, std::map<std::string, RunRecord>>> grid;
  std::map<std::string, std::map<std::string, double>> remote_frac;

  const int pr_iters = env().quick ? 10 : 30;
  const std::uint32_t swath_size = env().quick ? 4 : 10;

  for (const std::string gname : {"WG", "CP"}) {
    const Graph& g = dataset(gname);
    const std::size_t n_roots = env().quick ? 10 : (gname == "WG" ? 75 : 50);
    const auto roots = pick_roots(g, n_roots, env().seed + 31);
    ClusterConfig cluster = make_cluster(env(), 8, 8);
    const auto swath = SwathPolicy::make(std::make_shared<StaticSwathSizer>(swath_size),
                                         std::make_shared<SequentialInitiation>(),
                                         memory_target(cluster.vm));

    for (const auto& pname : partitioners) {
      std::cout << gname << " / " << pname << ": partitioning ... " << std::flush;
      const auto partitioner = make_partitioner(pname, env().seed);
      const auto parts = partitioner->partition(g, 8);
      const auto q = evaluate_partition(g, parts);
      remote_frac[gname][pname] = q.remote_edge_fraction;
      std::cout << "remote edges " << fmt(q.remote_edge_fraction * 100, 1) << "%\n";

      std::cout << "  PageRank ... " << std::flush;
      grid[gname][pname]["PageRank"] =
          record_from(run_pagerank(g, cluster, parts, pr_iters).metrics);
      std::cout << "BC ... " << std::flush;
      grid[gname][pname]["BC"] = record_from(run_bc(g, cluster, parts, roots, swath).metrics);
      std::cout << "APSP ...\n";
      grid[gname][pname]["APSP"] =
          record_from(run_apsp(g, cluster, parts, roots, swath).metrics);
    }
  }

  // ---- Figure 8: relative time vs hash --------------------------------------
  std::cout << "\n--- Figure 8: time relative to hash partitioning (smaller=better) ---\n";
  std::cout << "paper remote-edge %: WG 87/18/35, CP 86/17/65 (hash/METIS/stream)\n";
  TextTable t8({"graph", "app", "hash", "metis", "stream", "metis rel", "stream rel"});
  for (const std::string gname : {"WG", "CP"}) {
    for (const auto& app : apps) {
      const double th = grid[gname]["hash"][app].total;
      const double tm = grid[gname]["metis"][app].total;
      const double ts = grid[gname]["stream"][app].total;
      t8.add_row({gname, app, format_seconds(th), format_seconds(tm), format_seconds(ts),
                  fmt(tm / th, 2), fmt(ts / th, 2)});
    }
  }
  t8.print(std::cout);

  // ---- Figures 9 / 12: BC time breakdown ------------------------------------
  for (const std::string gname : {"WG", "CP"}) {
    std::cout << "\n--- Figure " << (gname == "WG" ? "9" : "12")
              << ": BC time breakdown on " << gname << " ---\n";
    TextTable t({"partitioner", "compute+I/O", "barrier wait", "total", "utilization %"});
    for (const auto& pname : partitioners) {
      const auto& r = grid[gname][pname]["BC"];
      t.add_row({pname, format_seconds(r.busy), format_seconds(r.wait),
                 format_seconds(r.total), fmt(r.utilization * 100, 1)});
    }
    t.print(std::cout);
  }

  // ---- Figures 10/11/13/14: per-worker messages in peak supersteps ----------
  for (const std::string gname : {"WG", "CP"}) {
    for (const std::string pname : {"hash", "metis"}) {
      const char* fig = gname == "WG" ? (pname == "hash" ? "10" : "11")
                                      : (pname == "hash" ? "13" : "14");
      std::cout << "\n--- Figure " << fig << ": per-worker messages, peak supersteps, BC on "
                << gname << " with " << pname << " ---\n";
      const auto& r = grid[gname][pname]["BC"];
      std::vector<std::string> headers{"superstep"};
      for (std::size_t w = 0; w < 8; ++w)
        headers.push_back(std::string(1, 'w').append(std::to_string(w)));
      headers.push_back("max/mean");
      TextTable t(headers);
      for (std::size_t i = 0; i < r.peak_matrix.size(); ++i) {
        RunningStats s;
        std::vector<std::string> row{std::to_string(r.peak_steps[i])};
        for (auto m : r.peak_matrix[i]) {
          row.push_back(format_count(m));
          s.add(static_cast<double>(m));
        }
        row.push_back(fmt(s.imbalance(), 2));
        t.add_row(std::move(row));
      }
      t.print(std::cout);
    }
  }

  // Shape checks.
  std::cout << "\nshape checks:\n";
  const double wg_metis_rel = grid["WG"]["metis"]["BC"].total / grid["WG"]["hash"]["BC"].total;
  const double cp_metis_rel = grid["CP"]["metis"]["BC"].total / grid["CP"]["hash"]["BC"].total;
  std::cout << "  WG BC: METIS relative time " << fmt(wg_metis_rel, 2)
            << " (paper ~0.5-0.58) -> improvement " << (wg_metis_rel < 0.9 ? "YES" : "NO")
            << "\n";
  std::cout << "  CP BC: METIS relative time " << fmt(cp_metis_rel, 2)
            << " (paper: ~1.0, i.e. no improvement — see EXPERIMENTS.md on why the\n"
               "  crossover needs the paper's cost regime; the imbalance mechanism\n"
               "  behind it is checked below)\n";
  auto peak_imbalance = [](const RunRecord& r) {
    double worst = 1.0;
    for (const auto& row : r.peak_matrix) {
      RunningStats s;
      for (auto v : row) s.add(static_cast<double>(v));
      worst = std::max(worst, s.imbalance());
    }
    return worst;
  };
  const double cp_hash_imb = peak_imbalance(grid["CP"]["hash"]["BC"]);
  const double cp_metis_imb = peak_imbalance(grid["CP"]["metis"]["BC"]);
  std::cout << "  CP BC peak-superstep worker imbalance (max/mean): hash "
            << fmt(cp_hash_imb, 2) << " vs METIS " << fmt(cp_metis_imb, 2)
            << " (paper: ~1.0 vs ~2.0) -> activity maximas "
            << (cp_metis_imb > 1.5 * cp_hash_imb ? "PRESENT" : "absent") << "\n";
  const double wg_hash_util = grid["WG"]["hash"]["BC"].utilization;
  const double wg_metis_util = grid["WG"]["metis"]["BC"].utilization;
  std::cout << "  WG BC: hash utilization (" << fmt(wg_hash_util * 100, 1)
            << "%) > METIS utilization (" << fmt(wg_metis_util * 100, 1)
            << "%)? " << (wg_hash_util > wg_metis_util ? "YES (matches paper)" : "no")
            << "\n";

  // CSVs per figure.
  write_csv("fig8_partition_relative_time", [&](CsvWriter& w) {
    w.header({"graph", "partitioner", "app", "modeled_seconds", "relative_to_hash",
              "remote_edge_fraction"});
    for (const std::string gname : {"WG", "CP"})
      for (const auto& pname : partitioners)
        for (const auto& app : apps) {
          const auto& r = grid[gname][pname][app];
          w.field(gname).field(pname).field(app).field(r.total)
              .field(r.total / grid[gname]["hash"][app].total)
              .field(remote_frac[gname][pname]).end_row();
        }
  });
  write_csv("fig9_12_time_breakdown", [&](CsvWriter& w) {
    w.header({"graph", "partitioner", "busy_seconds", "wait_seconds", "total_seconds",
              "utilization"});
    for (const std::string gname : {"WG", "CP"})
      for (const auto& pname : partitioners) {
        const auto& r = grid[gname][pname]["BC"];
        w.field(gname).field(pname).field(r.busy).field(r.wait).field(r.total)
            .field(r.utilization).end_row();
      }
  });
  write_csv("fig10_14_worker_message_balance", [&](CsvWriter& w) {
    w.header({"graph", "partitioner", "superstep", "worker", "messages_sent"});
    for (const std::string gname : {"WG", "CP"})
      for (const std::string pname : {"hash", "metis"}) {
        const auto& r = grid[gname][pname]["BC"];
        for (std::size_t i = 0; i < r.peak_matrix.size(); ++i)
          for (std::size_t wi = 0; wi < r.peak_matrix[i].size(); ++wi)
            w.field(gname).field(pname).field(r.peak_steps[i]).field(std::uint64_t{wi})
                .field(r.peak_matrix[i][wi]).end_row();
      }
  });
  return 0;
}
