//===- Layers.cpp - traced replay through the per-layer entry points ------===//
//
// A serving request, taken apart: tokenize, cold encode, beam decode over
// the encoded source, then every candidate through type inference, compile
// (cc, ir, codegen and asmx) and the IO harness (vm). The calls run one at
// a time on one thread and never nest, so each span's duration is that
// layer's self time.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "nn/Beam.h"
#include "typeinf/TypeInference.h"

#include <algorithm>
#include <numeric>

using namespace slade;

namespace perfbench {

void replayLayers(const core::Decompiler &D,
                  const std::vector<core::EvalTask> &Tasks,
                  const std::vector<std::string> &Served, MetricSet &M,
                  Checks &C) {
  const tok::Tokenizer &Tok = D.tokenizer();
  nn::BeamConfig BC;
  BC.BeamSize = BeamSize;
  BC.MaxLen = MaxLen;
  std::vector<double> TokUs, SrcTokens, EncMs, DecMs, Steps, OutTokens;
  std::vector<double> VerifyMs, InferMs, CompileMs, VmMs;
  size_t Compiled = 0, IOPass = 0, TypeInfUsed = 0;
  auto msSince = [](Clock::time_point T) { return 1e3 * secondsSince(T); };

  for (size_t I = 0; I < Tasks.size(); ++I) {
    const core::EvalTask &T = Tasks[I];
    Clock::time_point T0 = Clock::now();
    std::vector<int> Src = Tok.encode(T.Prog.TargetAsm);
    TokUs.push_back(1e3 * msSince(T0));
    SrcTokens.push_back(static_cast<double>(Src.size()));

    D.clearEncoderCache();
    T0 = Clock::now();
    auto Enc = D.encodeCached(Src);
    EncMs.push_back(msSince(T0));

    T0 = Clock::now();
    std::vector<nn::Hypothesis> Hyps = nn::beamSearch(D.model(), Enc, BC);
    DecMs.push_back(msSince(T0));
    size_t Longest = 0;
    for (const nn::Hypothesis &H : Hyps) {
      Longest = std::max(Longest, H.Tokens.size());
      OutTokens.push_back(static_cast<double>(H.Tokens.size()));
    }
    // The beam ran at least until its longest hypothesis emitted EOS.
    Steps.push_back(std::min<double>(static_cast<double>(Longest + 1),
                                     static_cast<double>(MaxLen)));

    std::string Pick;
    bool Found = false;
    for (const nn::Hypothesis &H : Hyps) {
      std::string Cand = Tok.decode(H.Tokens);
      T0 = Clock::now();
      core::HypothesisOutcome O =
          core::evaluateHypothesis(T, Cand, /*UseTypeInference=*/true);
      VerifyMs.push_back(msSince(T0));

      // The same candidate, stage by stage.
      bool Compiles = false, Pass = false, Used = false;
      if (!Cand.empty()) {
        T0 = Clock::now();
        typeinf::InferenceResult Inf =
            typeinf::inferMissingDeclarations(Cand, T.ContextSource);
        InferMs.push_back(msSince(T0));
        Used = Inf.ParseOk && Inf.NeededInference;
        T0 = Clock::now();
        auto Prog = core::compileProgram(
            Cand, (Used ? Inf.Prelude : std::string()) + T.ContextSource,
            T.Prog.Target->Name, T.D, /*Optimize=*/false);
        CompileMs.push_back(msSince(T0));
        Compiles = static_cast<bool>(Prog);
        if (Prog) {
          T0 = Clock::now();
          vm::TestProfile Prof =
              vm::runProfile(Prog->Image, *T.Prog.Target, T.Prog.Globals,
                             T.D, vm::HarnessConfig());
          VmMs.push_back(msSince(T0));
          Pass = vm::profilesEquivalent(T.RefProfile, Prof);
        }
      }
      Compiled += Compiles;
      IOPass += Pass;
      TypeInfUsed += Used;
      C.expect(Compiles == O.Compiles && Pass == O.IOCorrect &&
                   Used == O.UsedTypeInference,
               T.Name + ": layer stages agree with evaluateHypothesis");
      if (Pass && !Found) {
        Pick = Cand;
        Found = true;
      }
    }
    if (!Found && !Hyps.empty())
      Pick = Tok.decode(Hyps.front().Tokens);
    C.expect(Pick == Served[I], T.Name + ": replay selects the served answer");
  }

  double DecTotal = std::accumulate(DecMs.begin(), DecMs.end(), 0.0);
  double StepTotal = std::accumulate(Steps.begin(), Steps.end(), 0.0);
  M.set("replay.functions", static_cast<double>(Tasks.size()), "count");
  M.set("tok.encode_us", mean(TokUs), "us");
  M.set("tok.src_tokens", mean(SrcTokens), "tokens");
  M.set("nn.encode_ms", mean(EncMs), "ms");
  M.set("nn.decode_ms", mean(DecMs), "ms");
  M.set("nn.decode_steps", mean(Steps), "count");
  M.set("nn.step_us", StepTotal > 0 ? 1e3 * DecTotal / StepTotal : 0.0, "us");
  M.set("nn.out_tokens", mean(OutTokens), "tokens");
  M.set("core.candidates", static_cast<double>(VerifyMs.size()), "count");
  M.set("core.compiled", static_cast<double>(Compiled), "count");
  M.set("core.io_pass", static_cast<double>(IOPass), "count");
  M.set("typeinf.used", static_cast<double>(TypeInfUsed), "count");
  M.set("core.verify_ms", mean(VerifyMs), "ms");
  M.set("typeinf.infer_ms", mean(InferMs), "ms");
  M.set("core.compile_ms", mean(CompileMs), "ms");
  M.set("vm.run_ms", mean(VmMs), "ms");
}

} // namespace perfbench
