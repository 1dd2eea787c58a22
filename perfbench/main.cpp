//===- main.cpp - end-to-end benchmark harness ----------------------------===//
//
// Usage:
//   slade-bench --prepare DIR [--train-samples N] [--train-steps N]
//       Trains the served model (tools/slade-train defaults unless
//       overridden) into DIR.
//   slade-bench --model-dir DIR --workload W --seed N --seconds S
//               --trace 0|1 [--gen-seed G]
//       Runs one workload and prints, as the last stdout line, one JSON
//       object: {"correct", "attempted", "failed", "metrics"}. Exits
//       nonzero when any output check fails.
//
// perfbench/run.py builds this binary, prepares the model once per build,
// and forwards the result; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void MetricSet::set(const std::string &Name, double Value,
                    const std::string &Unit) {
  Items.push_back({Name, {Value, Unit}});
}

std::string MetricSet::json() const {
  std::ostringstream OS;
  OS.precision(17);
  OS << "{";
  for (size_t I = 0; I < Items.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Items[I].first
       << "\": {\"value\": " << Items[I].second.first << ", \"unit\": \""
       << Items[I].second.second << "\"}";
  OS << "}";
  return OS.str();
}

bool MetricSet::finite() const {
  return std::all_of(Items.begin(), Items.end(), [](const auto &I) {
    return std::isfinite(I.second.first);
  });
}

void Checks::expect(bool Ok, const std::string &What) {
  if (Ok)
    return;
  if (++Failures <= 20)
    std::fprintf(stderr, "CHECK FAILED: %s\n", What.c_str());
}

double processCpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + 1e-9 * static_cast<double>(T.tv_nsec);
}

double peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : 0.5 * (V[H - 1] + V[H]);
}

double mean(const std::vector<double> &V) {
  return V.empty() ? 0
                   : std::accumulate(V.begin(), V.end(), 0.0) /
                         static_cast<double>(V.size());
}

} // namespace perfbench

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: slade-bench --prepare DIR "
               "[--train-samples N] [--train-steps N]\n"
               "       slade-bench --model-dir DIR --workload W --seed N "
               "--seconds S --trace 0|1 [--gen-seed G]\n",
               Why);
  std::exit(2);
}

uint64_t parseU64(const char *S) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!*S || *End)
    usage("expected a non-negative integer");
  return V;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  std::string PrepareDir;
  int Samples = TrainSamples, Steps = TrainSteps;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string K = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + K).c_str());
    const char *V = argv[++I];
    if (K == "--prepare") {
      PrepareDir = V;
    } else if (K == "--train-samples") {
      Samples = static_cast<int>(parseU64(V));
    } else if (K == "--train-steps") {
      Steps = static_cast<int>(parseU64(V));
    } else if (K == "--model-dir") {
      A.ModelDir = V;
    } else if (K == "--workload") {
      A.Workload = V;
    } else if (K == "--seed") {
      A.Seed = parseU64(V);
      HaveSeed = true;
    } else if (K == "--gen-seed") {
      A.GenSeed = parseU64(V);
    } else if (K == "--seconds") {
      A.Seconds = std::atof(V);
      HaveSeconds = true;
    } else if (K == "--trace") {
      A.Trace = parseU64(V) != 0;
      HaveTrace = true;
    } else {
      usage(("unknown option " + K).c_str());
    }
  }
  if (!PrepareDir.empty())
    return prepareModel(PrepareDir, Samples, Steps);
  if (A.ModelDir.empty() || A.Workload.empty() || !HaveSeed ||
      !HaveSeconds || !HaveTrace)
    usage("--model-dir, --workload, --seed, --seconds and --trace are "
          "required");
  if (!(A.Seconds > 0 && A.Seconds <= 600))
    usage("--seconds must be in (0, 600]");

  Checks C;
  RunResult R;
  try {
    R = A.Workload == "train" ? runTrain(A, C) : runServing(A, C);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  C.expect(R.Attempted > 0, "at least one operation attempted");
  C.expect(R.Failed == 0, "no operation failed");
  C.expect(R.Metrics.finite(), "every metric is a finite number");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              C.ok() ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Metrics.json().c_str());
  std::fflush(stdout);
  return C.ok() ? 0 : 1;
}
