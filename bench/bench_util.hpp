// Shared helpers for the figure-reproduction bench binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "core/burstiness_study.hpp"
#include "core/front_end.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace lossburst::bench {

inline void print_header(const std::string& id, const std::string& what,
                         const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================\n");
}

inline void print_pdf_analysis(const analysis::LossIntervalAnalysis& a,
                               const std::string& title) {
  std::cout << core::summarize_burstiness(a) << "\n\n";
  std::cout << core::render_loss_pdf_chart(a, title) << "\n";
}

/// CSV block for external plotting: bin_center, measured_pmf, poisson_pmf.
inline void print_pdf_csv(const analysis::LossIntervalAnalysis& a) {
  std::printf("csv: bin_center_rtt,measured_pmf,poisson_pmf\n");
  for (std::size_t i = 0; i < a.pdf.bins(); ++i) {
    const double poisson = i < a.poisson_pdf.size() ? a.poisson_pdf[i] : 0.0;
    if (a.pdf.pmf(i) == 0.0 && poisson < 1e-12) continue;
    std::printf("csv: %.3f,%.6g,%.6g\n", a.pdf.bin_center(i), a.pdf.pmf(i), poisson);
  }
}

using util::run_main;

/// --full: longer paper-scale runs. Every figure bench accepts it.
inline const util::FlagSet kFullFlag = {{"full", "", "paper-scale runs (slow)"}};

/// --full plus --serial (disable the thread pool; used to verify that pooled
/// results are bit-identical to serial order), for the benches that sweep.
inline const util::FlagSet kSweepFlags =
    kFullFlag + util::FlagSet{{"serial", "", "run the sweep without the thread pool"}};

inline void print_obs_artifacts(const obs::ObsConfig& cfg) {
  if (!cfg.enabled()) return;
  std::printf("\ntelemetry artifacts written to %s/:\n", cfg.dir.c_str());
  std::printf("  %sintervals.csv  (metric time series; plot or load as CSV)\n",
              cfg.prefix.c_str());
  std::printf("  %strace.json     (Chrome trace_event; open in ui.perfetto.dev)\n",
              cfg.prefix.c_str());
  if (cfg.profile) {
    std::printf("  %sprofile.txt    (event-loop wall-time by event type)\n",
                cfg.prefix.c_str());
  }
}

/// Wall-clock stopwatch for reporting sweep speedup. Timing output only; it
/// never feeds a simulated result.
class WallTimer {
 public:
  // lossburst-lint: allow(wall-clock): measures host sweep duration for the speedup report
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_s() const {
    // lossburst-lint: allow(wall-clock): measures host sweep duration for the speedup report
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  // lossburst-lint: allow(wall-clock): measures host sweep duration for the speedup report
  std::chrono::steady_clock::time_point start_;
};

/// Run `fn(i)` for i in [0, n), across a thread pool unless `serial`.
///
/// Determinism contract: every run must take ALL its inputs (seed included)
/// from its index into a pre-built plan, write its outputs only to index i
/// of a results vector, and all printing/pooling must happen afterwards in
/// index order. Then the pooled statistics are bit-identical to the serial
/// order no matter how threads interleave.
template <typename Fn>
void run_sweep(std::size_t n, bool serial, Fn&& fn) {
  if (serial || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  util::ThreadPool pool;
  pool.parallel_for(n, fn);
}

}  // namespace lossburst::bench

// Lets each bench's one-line main() name the helpers above.
namespace bench = lossburst::bench;
