//===- Inputs.cpp - held-out serving inputs and request streams -----------===//
//
// Serving inputs are ExeBench-style functions the served model never saw:
// each has distinct target assembly, and neither its C token stream nor its
// assembly occurs in the training split. The set of functions a workload
// serves depends only on the generator seed and the run length, so
// io_correct is a property of the program, not of the draw; the run seed
// varies arrival times, submission order and the duplicate shuffle.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cc/Lexer.h"
#include "support/RNG.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

using namespace slade;

namespace perfbench {
namespace {

// Nominal rates. batch-unique's size is about ten seconds of work at the
// engine's measured throughput on a 4-core host (~280 fn/s);
// stream-unique arrives at half of that, below saturation; stream-dup
// arrives faster over a pool larger than the encoder LRU (64 entries) and
// smaller than the decoded-hypotheses LRU (256 entries).
constexpr double BatchFnPerSecond = 280;
constexpr double StreamUniqueRate = 140;
constexpr double StreamDupRate = 200;
constexpr size_t DupPool = 240;
constexpr double WarmupRate = 140;
constexpr double WarmupSeconds = 2;
// Timing metrics are medians over windows, so a burst of contention from
// outside the process moves at most a minority of them: batch-unique is
// split into rounds submitted one after another, a stream into windows
// of equal length by due time.
constexpr size_t BatchRounds = 4;
constexpr size_t StreamWindows = 5;

/// The (asm, C) pairs the served model is trained on.
std::vector<core::TrainPair> defaultTrainPairs() {
  dataset::Corpus Corpus = dataset::buildCorpus(
      dataset::Suite::ExeBench, TrainSamples, 0, CorpusSeed);
  return core::buildTrainPairs(Corpus.Train, asmx::Dialect::X86, false);
}

std::string cTokenKey(const std::string &CSource) {
  return joinStrings(cc::cTokenSpellings(CSource), "\x1f");
}

/// The first \p N held-out functions of the generator stream; their
/// target assembly goes to \p Asm.
std::vector<dataset::Sample> heldOut(uint64_t GenSeed, size_t N,
                                     std::unordered_set<std::string> &Asm) {
  std::unordered_set<std::string> TrainAsm, TrainC;
  for (const core::TrainPair &P : defaultTrainPairs()) {
    TrainAsm.insert(P.Asm);
    TrainC.insert(cTokenKey(P.CSource));
  }
  // buildCorpus is prefix-stable in its test count, so a larger draw only
  // appends: the first N held-out functions never depend on the draw size.
  for (size_t Draw = std::max<size_t>(1000, 4 * N);; Draw *= 2) {
    dataset::Corpus Gen =
        dataset::buildCorpus(dataset::Suite::ExeBench, 0, Draw, GenSeed);
    std::vector<dataset::Sample> Out;
    Asm.clear();
    for (dataset::Sample &S : Gen.Test) {
      auto Prog = core::compileProgram(S.FunctionSource, S.ContextSource,
                                       S.Name, asmx::Dialect::X86, false);
      if (!Prog || TrainAsm.count(Prog->TargetAsm) ||
          TrainC.count(cTokenKey(S.FunctionSource)) ||
          !Asm.insert(Prog->TargetAsm).second)
        continue;
      Out.push_back(std::move(S));
      if (Out.size() == N)
        return Out;
    }
    if (Gen.Test.size() < Draw)
      throw std::runtime_error("generator exhausted before " +
                               std::to_string(N) + " held-out functions");
  }
}

std::vector<size_t> shuffled(std::vector<size_t> V, SplitMix64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.below(I)]);
  return V;
}

/// Open-loop Poisson arrivals: exponential gaps with mean 1/Rate.
std::vector<double> poisson(size_t N, double Rate, SplitMix64 &Rng) {
  std::vector<double> Due(N);
  double T = 0;
  for (double &D : Due) {
    T += -std::log1p(-Rng.uniform()) / Rate;
    D = T;
  }
  return Due;
}

size_t scaled(double Rate, double Seconds) {
  return std::max<size_t>(1,
                          static_cast<size_t>(std::lround(Rate * Seconds)));
}

} // namespace

Workload makeWorkload(const Args &A) {
  Workload W;
  SplitMix64 Rng(A.Seed * 0x9e3779b97f4a7c15ULL + 1);
  std::unordered_set<std::string> ServedAsm;
  std::vector<size_t> Ids;
  double Rate = 0;
  if (A.Workload == "batch-unique" || A.Workload == "stream-unique") {
    W.Rounds = A.Workload == "batch-unique";
    Rate = W.Rounds ? BatchFnPerSecond : StreamUniqueRate;
    W.Samples = heldOut(A.GenSeed, scaled(Rate, A.Seconds), ServedAsm);
    for (size_t I = 0; I < W.Samples.size(); ++I)
      Ids.push_back(I);
  } else if (A.Workload == "stream-dup") {
    Rate = StreamDupRate;
    W.Samples = heldOut(A.GenSeed, DupPool, ServedAsm);
    size_t Copies = std::max<size_t>(2, scaled(Rate, A.Seconds) / DupPool);
    for (size_t C = 0; C < Copies; ++C)
      for (size_t I = 0; I < DupPool; ++I)
        Ids.push_back(I);
  } else {
    throw std::runtime_error("unknown serving workload " + A.Workload);
  }
  W.Order = shuffled(Ids, Rng);
  size_t N = W.Order.size();

  if (W.Rounds) {
    W.DueAt.assign(N, 0.0);
    for (size_t R = 0; R <= BatchRounds; ++R)
      W.Windows.push_back(R * N / BatchRounds);
  } else {
    W.DueAt = poisson(N, Rate, Rng);
    double Span = W.DueAt.back() / StreamWindows;
    W.Windows.push_back(0);
    for (size_t K = 1; K < StreamWindows; ++K)
      W.Windows.push_back(static_cast<size_t>(
          std::lower_bound(W.DueAt.begin(), W.DueAt.end(), K * Span) -
          W.DueAt.begin()));
    W.Windows.push_back(N);
  }

  size_t NWarm = scaled(WarmupRate, std::min(WarmupSeconds, A.Seconds));
  dataset::Corpus Syn =
      dataset::buildCorpus(dataset::Suite::Synth, 0, 2 * NWarm, A.GenSeed);
  for (dataset::Sample &S : Syn.Test) {
    auto P = core::compileProgram(S.FunctionSource, S.ContextSource, S.Name,
                                  asmx::Dialect::X86, false);
    if (!P || ServedAsm.count(P->TargetAsm))
      continue;
    W.Warmup.push_back(std::move(S));
    if (W.Warmup.size() == NWarm)
      break;
  }
  W.WarmupDueAt = poisson(W.Warmup.size(), WarmupRate, Rng);
  return W;
}

} // namespace perfbench
