//===- Train.cpp - model preparation and the train workload ---------------===//
//
// prepareModel trains the served model once per build with the
// tools/slade-train defaults. The train workload runs core::trainSystem
// for a fixed number of steps, twice from the same seeds, and checks the
// two runs agree bit for bit and learned something. Its traced run times
// the public calls trainSystem is made of, on batches of the same make-up.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/RNG.h"

#include <cmath>
#include <cstdio>
#include <memory>

using namespace slade;

namespace perfbench {
namespace {

constexpr int SetupReps = 3;
constexpr int Rounds = 2;
constexpr int EvalPairs = 16;

/// Steps per trainSystem call: about three per second of --seconds.
int roundSteps(double Seconds) {
  return std::max(10, static_cast<int>(std::lround(3 * Seconds)));
}

/// The model trainSystem starts from (same shape, same initial weights).
nn::TransformerConfig modelConfig(const tok::Tokenizer &Tok,
                                  const core::TrainConfig &TC) {
  nn::TransformerConfig MC;
  MC.Vocab = static_cast<int>(Tok.vocabSize());
  MC.DModel = TC.DModel;
  MC.NHeads = TC.NHeads;
  MC.FF = TC.FF;
  MC.EncLayers = TC.EncLayers;
  MC.DecLayers = TC.DecLayers;
  MC.MaxLen = TC.MaxSrcTokens + 8;
  MC.DropoutP = TC.DropoutP;
  MC.Seed = TC.Seed;
  return MC;
}

struct Encoded {
  std::vector<int> Src, Tgt;
};

/// The pairs that fit the training context window, tokenized.
std::vector<Encoded> encodePairs(const tok::Tokenizer &Tok,
                                 const std::vector<core::TrainPair> &Pairs,
                                 const core::TrainConfig &TC) {
  std::vector<Encoded> Out;
  for (const core::TrainPair &P : Pairs) {
    Encoded E{Tok.encode(P.Asm), Tok.encode(P.CSource)};
    if (static_cast<int>(E.Src.size()) <= TC.MaxSrcTokens &&
        static_cast<int>(E.Tgt.size()) <= TC.MaxTgtTokens)
      Out.push_back(std::move(E));
  }
  return Out;
}

/// Mean teacher-forced loss over the first EvalPairs pairs.
double evalLoss(nn::Transformer &Model, const std::vector<Encoded> &Data) {
  double Sum = 0;
  size_t N = std::min<size_t>(EvalPairs, Data.size());
  for (size_t I = 0; I < N; ++I) {
    nn::Graph G;
    Sum += Model.pairLoss(G, Data[I].Src, Data[I].Tgt, /*Train=*/false);
  }
  return N ? Sum / static_cast<double>(N) : NAN;
}

core::TrainConfig trainConfig(uint64_t Seed, int Steps) {
  core::TrainConfig TC;
  TC.Steps = Steps;
  TC.Seed = Seed;
  TC.Verbose = false;
  return TC;
}

void traceTraining(const std::vector<core::TrainPair> &Pairs,
                   const core::TrainConfig &TC, MetricSet &M, Checks &C) {
  std::vector<std::string> Texts;
  for (const core::TrainPair &P : Pairs) {
    Texts.push_back(P.Asm);
    Texts.push_back(P.CSource);
  }
  tok::Tokenizer::Config TokC;
  TokC.VocabSize = TC.VocabSize;
  Clock::time_point T0 = Clock::now();
  tok::Tokenizer Tok = tok::Tokenizer::train(Texts, TokC);
  M.set("tok.train_s", secondsSince(T0), "s");

  std::vector<Encoded> Data = encodePairs(Tok, Pairs, TC);
  nn::Transformer Model(modelConfig(Tok, TC));
  nn::AdamW::Config AC;
  AC.WarmupSteps = std::max(40, TC.Steps / 10); // trainSystem's schedule
  nn::AdamW Opt(Model.params(), AC, &Model);
  SplitMix64 Rng(TC.Seed);
  std::vector<double> Fwd, Bwd, Adam, Loss;
  for (int Step = 0; Step < TC.Steps; ++Step) {
    nn::Graph G;
    T0 = Clock::now();
    double L = 0;
    for (int B = 0; B < TC.BatchSize; ++B) {
      const Encoded &E = Data[Rng.below(Data.size())];
      L += Model.pairLoss(G, E.Src, E.Tgt, /*Train=*/true);
    }
    Fwd.push_back(1e3 * secondsSince(T0));
    T0 = Clock::now();
    G.backward();
    Bwd.push_back(1e3 * secondsSince(T0));
    T0 = Clock::now();
    Opt.step();
    Adam.push_back(1e3 * secondsSince(T0));
    Loss.push_back(L / TC.BatchSize);
  }
  bool Finite = true;
  for (double L : Loss)
    Finite &= std::isfinite(L);
  size_t Q = std::max<size_t>(1, Loss.size() / 4);
  double First = mean({Loss.begin(), Loss.begin() + Q});
  double Last = mean({Loss.end() - Q, Loss.end()});
  C.expect(Finite, "training loss stays finite");
  C.expect(Last < First, "mean loss over the last steps is below the first");
  std::printf("# train trace: loss first quarter %.6f, last quarter %.6f\n",
              First, Last);
  M.set("train.steps", static_cast<double>(TC.Steps), "count");
  M.set("nn.train_forward_ms", mean(Fwd), "ms");
  M.set("nn.train_backward_ms", mean(Bwd), "ms");
  M.set("nn.adamw_ms", mean(Adam), "ms");
}

} // namespace

RunResult runTrain(const Args &A, Checks &C) {
  std::vector<double> SetupS, PairsS;
  std::vector<core::TrainPair> Pairs;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    dataset::Corpus Corpus = dataset::buildCorpus(
        dataset::Suite::ExeBench, TrainSamples, 0, CorpusSeed);
    Clock::time_point T1 = Clock::now();
    Pairs = core::buildTrainPairs(Corpus.Train, asmx::Dialect::X86, false);
    PairsS.push_back(secondsSince(T1));
    SetupS.push_back(secondsSince(T0));
  }
  core::TrainConfig TC = trainConfig(A.Seed, roundSteps(A.Seconds));
  RunResult Out;
  MetricSet &M = Out.Metrics;
  if (A.Trace) {
    M.set("core.build_pairs_s", median(PairsS), "s");
    traceTraining(Pairs, TC, M, C);
    Out.Attempted = static_cast<uint64_t>(TC.Steps);
    return Out;
  }

  double Wall = 0;
  std::vector<double> Losses;
  std::unique_ptr<core::TrainedSystem> Sys;
  for (int R = 0; R < Rounds; ++R) {
    Clock::time_point T0 = Clock::now();
    Sys = std::make_unique<core::TrainedSystem>(core::trainSystem(Pairs, TC));
    Wall += secondsSince(T0);
    Losses.push_back(evalLoss(Sys->Model, encodePairs(Sys->Tok, Pairs, TC)));
  }
  nn::Transformer Fresh(modelConfig(Sys->Tok, TC));
  double Untrained = evalLoss(Fresh, encodePairs(Sys->Tok, Pairs, TC));
  for (double L : Losses)
    C.expect(L == Losses.front(), "same seeds give the same loss bit for bit");
  C.expect(std::isfinite(Losses.front()), "trained loss is finite");
  C.expect(Losses.front() < Untrained, "training lowers the loss");
  std::printf("# train: %d x %d steps, eval loss %a (%.6f), untrained %.6f\n",
              Rounds, TC.Steps, Losses.front(), Losses.front(), Untrained);

  Out.Attempted = static_cast<uint64_t>(Rounds) * TC.Steps;
  M.set("setup_s", median(SetupS), "s");
  M.set("peak_rss_mb", peakRssMiB(), "MiB");
  M.set("train_pairs_per_s",
        static_cast<double>(Out.Attempted) * TC.BatchSize / Wall, "pairs/s");
  return Out;
}

int prepareModel(const std::string &Dir, int Samples, int Steps) {
  dataset::Corpus Corpus = dataset::buildCorpus(
      dataset::Suite::ExeBench, static_cast<size_t>(Samples), 0, CorpusSeed);
  std::vector<core::TrainPair> Pairs =
      core::buildTrainPairs(Corpus.Train, asmx::Dialect::X86, false);
  core::TrainConfig TC = trainConfig(ModelSeed, Steps);
  TC.Verbose = true;
  core::TrainedSystem Sys = core::trainSystem(Pairs, TC);
  double Loss = evalLoss(Sys.Model, encodePairs(Sys.Tok, Pairs, TC));
  std::printf("# model: %d samples, %d steps, eval loss %a (%.6f)\n", Samples,
              Steps, Loss, Loss);
  Status S = core::saveSystem(Sys, Dir, ModelName);
  if (!S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return 1;
  }
  return 0;
}

} // namespace perfbench
