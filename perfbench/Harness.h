//===- Harness.h - end-to-end benchmark harness: shared pieces --*- C++ -*-===//
///
/// \file
/// Declarations shared by the harness's translation units: the command
/// line, the metric set every run prints, the correctness ledger, the
/// workload inputs, and one entry point per kind of run. The harness
/// reaches the program only through its public entry points
/// (serve::Engine, core::Decompiler, core::trainSystem, core::buildTasks
/// and the per-layer functions the traced run times).
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_PERFBENCH_HARNESS_H
#define SLADE_PERFBENCH_HARNESS_H

#include "core/Eval.h"
#include "core/Trainer.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload; ///< batch-unique | stream-unique | stream-dup | train
  uint64_t Seed = 1;    ///< Arrival times, submission order, train seed.
  uint64_t GenSeed = 20240303; ///< Held-out input generator seed.
  double Seconds = 10;  ///< Nominal length of the timed phase.
  bool Trace = false;   ///< Per-layer (traced) run instead of a timed one.
  std::string ModelDir; ///< Holds slade_x86_O0.{model,tok}.
};

/// Name-ordered metrics printed in the result line.
class MetricSet {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  std::string json() const;
  bool finite() const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Items;
};

/// Correctness ledger: every failed check is printed to stderr and makes
/// the run report `"correct": false` and exit nonzero.
class Checks {
public:
  void expect(bool Ok, const std::string &What);
  bool ok() const { return Failures == 0; }

private:
  size_t Failures = 0;
};

/// What one run reports.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  MetricSet Metrics;
};

// -- the served model's training configuration (tools/slade-train defaults)
constexpr int TrainSamples = 2600;
constexpr uint64_t CorpusSeed = 20240101;
constexpr int TrainSteps = 700;
constexpr uint64_t ModelSeed = 7;
const char *const ModelName = "slade_x86_O0";

// -- served engine configuration ------------------------------------------
// The dispatcher thread (admission encode) and two decode shards are busy;
// the single verify worker is lightly loaded and the load generator mostly
// sleeps, so the engine plus the generator fit four cores.
constexpr int EngineShards = 2;
constexpr int EngineVerifyThreads = 1;
constexpr int BeamSize = 5;
constexpr int MaxLen = 220;

/// One workload's request stream over its distinct tasks.
struct Workload {
  std::vector<slade::dataset::Sample> Samples; ///< Distinct held-out inputs.
  std::vector<size_t> Order;   ///< Request i serves Samples[Order[i]].
  /// Seconds from the start of the request's window when Rounds is set,
  /// else from the start of the timed phase.
  std::vector<double> DueAt;
  /// Request-index boundaries of the windows the metrics are medians
  /// over: [Windows[k], Windows[k+1]).
  std::vector<size_t> Windows;
  /// Each window is a round: it starts when the previous one completed.
  bool Rounds = false;
  /// Synth-suite warm-up traffic whose assembly differs from every input
  /// above, so the warm-up never pre-fills a cache the timed phase uses.
  std::vector<slade::dataset::Sample> Warmup;
  std::vector<double> WarmupDueAt;
};

/// Builds the request stream of a serving workload (see README.md).
Workload makeWorkload(const Args &A);

RunResult runServing(const Args &A, Checks &C);
RunResult runTrain(const Args &A, Checks &C);
/// Trains the served model and saves it under \p Dir.
int prepareModel(const std::string &Dir, int Samples, int Steps);

/// Replays \p Tasks one by one through the per-layer entry points and
/// adds the layer metrics; checks that the replay selects \p Served.
void replayLayers(const slade::core::Decompiler &D,
                  const std::vector<slade::core::EvalTask> &Tasks,
                  const std::vector<std::string> &Served, MetricSet &M,
                  Checks &C);

// -- small helpers ----------------------------------------------------------
using Clock = std::chrono::steady_clock;
inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}
double processCpuSeconds();
double peakRssMiB();
double median(std::vector<double> V);
double mean(const std::vector<double> &V);

} // namespace perfbench

#endif // SLADE_PERFBENCH_HARNESS_H
