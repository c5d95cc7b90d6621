// Future-work reproduction: the MapReduce complete-graph shuffle.
//
// "We plan to simulate more complicate scenarios such as a complete graph
// topology in MapReduce [7]." — §6.
//
// N nodes exchange one chunk with every other node over a star network;
// completion requires every flow to finish (the shuffle barrier). The
// receiver downlinks are incast hotspots, so the Figure-8 unpredictability
// story replays at datacenter scale: flows that lose packets during slow
// start gate the barrier.
//
// Expected shape: normalized shuffle time well above 1 for window-based
// NewReno; SACK tightens it; the spread across seeds shrinks with SACK.
#include "bench_util.hpp"
#include "core/shuffle_experiment.hpp"
#include "util/stats.hpp"

static int run(const lossburst::util::Flags& flags) {
  using namespace lossburst;
  const bool full = flags.flag("full");

  bench::print_header("SHUFFLE", "MapReduce all-to-all shuffle over a star network",
                      "future work: slow-start loss bursts gate the shuffle barrier");

  const std::size_t repeats = full ? 5 : 3;
  std::printf("%7s %10s %10s %10s %12s %12s %12s %14s\n", "nodes", "chunk_MB", "recovery",
              "bound_s", "mean_norm", "max_norm", "stddev", "loss_flows%");
  for (std::size_t nodes : {4u, 8u, 12u}) {
    for (const bool sack : {false, true}) {
      util::OnlineStats norm;
      double bound = 0.0;
      double lossy = 0.0;
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        core::ShuffleConfig cfg;
        cfg.seed = 1300 + nodes * 10 + rep;
        cfg.nodes = nodes;
        cfg.bytes_per_flow = 1 << 20;  // 1 MB chunks
        cfg.sack = sack;
        const auto r = core::run_shuffle(cfg);
        norm.add(r.normalized);
        bound = r.lower_bound_s;
        lossy += static_cast<double>(r.flows_with_loss) /
                 static_cast<double>(r.total_flows);
      }
      std::printf("%7zu %10.1f %10s %10.2f %12.2f %12.2f %12.2f %13.1f%%\n", nodes, 1.0,
                  sack ? "sack" : "newreno", bound, norm.mean(), norm.max(), norm.stddev(),
                  lossy / static_cast<double>(repeats) * 100.0);
      std::printf("csv: %zu,%s,%.3f,%.3f,%.3f,%.3f,%.4f\n", nodes,
                  sack ? "sack" : "newreno", bound, norm.mean(), norm.max(), norm.stddev(),
                  lossy / static_cast<double>(repeats));
    }
  }

  std::puts("\nreading: the shuffle barrier waits for the unluckiest flow, so the");
  std::puts("normalized time tracks the tail of the loss process, not its mean —");
  std::puts("the distributed-application cost of bursty losses, per the paper's §4.2.");
  return 0;
}

int main(int argc, char** argv) { return bench::run_main(argc, argv, bench::kFullFlag, run); }
