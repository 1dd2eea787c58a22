//===- Serving.cpp - serving workloads: set-up, timed phase, checks -------===//
//
// One serving run: set up the program several times (model load, Decompiler
// and Engine construction, buildTasks) and keep the last, warm the engine
// on Synth traffic, replay the workload's request stream open loop, then
// check every answer. A traced run adds the engine counters, an A/B of the
// same stream with the program's request-stage trace recorder armed, and a
// one-by-one replay through the per-layer entry points (Layers.cpp).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cc/Lexer.h"
#include "obs/Trace.h"
#include "serve/Engine.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

using namespace slade;

namespace perfbench {
namespace {

constexpr int SetupReps = 5;
constexpr unsigned CheckThreads = 4;
/// Functions replayed per second of --seconds in a traced run.
constexpr double ReplayPerSecond = 40;

serve::EngineOptions engineOptions() {
  serve::EngineOptions EO;
  EO.BeamSize = BeamSize;
  EO.MaxLen = MaxLen;
  EO.Shards = EngineShards;
  EO.VerifyThreads = EngineVerifyThreads;
  EO.TickThreads = 1;
  return EO;
}

/// The program as a server: what one set-up builds.
struct Program {
  std::unique_ptr<core::Decompiler> D;
  std::unique_ptr<serve::Engine> E;
  std::vector<core::EvalTask> Tasks;
};

/// One pass of a request stream through the engine.
struct Pass {
  std::vector<serve::RequestResult> Results; ///< In request order.
  std::vector<double> DueS;  ///< Due time, seconds from the pass start.
  std::vector<double> DoneS; ///< Completion callback, same clock.
  std::vector<double> LateS; ///< Due time -> submit (generator lag).
  double CpuS = 0;           ///< Process CPU time over the pass.
  serve::EngineMetrics Before, After;
  nn::EncoderLRU::Stats EncBefore, EncAfter;

  size_t okCount() const {
    return static_cast<size_t>(
        std::count_if(Results.begin(), Results.end(),
                      [](const serve::RequestResult &R) { return R.ok(); }));
  }
  std::vector<double> latencies() const {
    std::vector<double> L;
    for (size_t I = 0; I < DueS.size(); ++I)
      L.push_back(DoneS[I] - DueS[I]);
    return L;
  }
  /// First due time -> last completion over requests [Lo, Hi).
  double wall(size_t Lo, size_t Hi) const {
    return *std::max_element(DoneS.begin() + Lo, DoneS.begin() + Hi) -
           DueS[Lo];
  }
};

/// Submits request I of \p Order at its due time, open loop; with
/// \p Rounds each window starts once the previous one has completed.
Pass runPass(Program &P, const std::vector<core::EvalTask> &Tasks,
             const std::vector<size_t> &Order,
             const std::vector<double> &DueAt,
             const std::vector<size_t> &Windows, bool Rounds) {
  size_t N = Order.size();
  Pass S;
  S.Results.resize(N);
  S.DueS.resize(N);
  S.DoneS.resize(N);
  S.LateS.resize(N);
  std::vector<Clock::time_point> Done(N);
  std::vector<serve::Handle> Handles(N);
  S.Before = P.E->metrics();
  S.EncBefore = P.D->encoderCache().stats();
  double Cpu0 = processCpuSeconds();
  Clock::time_point Start = Clock::now(), Base = Start;
  auto since = [&Start](Clock::time_point T) {
    return std::chrono::duration<double>(T - Start).count();
  };
  for (size_t K = 0; K + 1 < Windows.size(); ++K) {
    if (Rounds)
      Base = Clock::now();
    for (size_t I = Windows[K]; I < Windows[K + 1]; ++I) {
      Clock::time_point Due =
          Base + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(DueAt[I]));
      std::this_thread::sleep_until(Due);
      S.DueS[I] = since(Due);
      S.LateS[I] = secondsSince(Due);
      const core::EvalTask &T = Tasks[Order[I]];
      serve::DecompileRequest R;
      R.Name = T.Name;
      R.Asm = T.Prog.TargetAsm;
      R.Task = &T;
      Handles[I] = P.E->submit(std::move(R),
                               [&Done, I](const serve::RequestResult &) {
                                 Done[I] = Clock::now();
                               });
    }
    if (Rounds)
      for (size_t I = Windows[K]; I < Windows[K + 1]; ++I)
        Handles[I].wait();
  }
  for (size_t I = 0; I < N; ++I) {
    S.Results[I] = Handles[I].get();
    S.DoneS[I] = since(Done[I]);
  }
  S.CpuS = processCpuSeconds() - Cpu0;
  S.After = P.E->metrics();
  S.EncAfter = P.D->encoderCache().stats();
  return S;
}

/// Requests per second of a pass, the median over its windows: a burst
/// of contention from outside the process moves only a minority of them.
double windowedRate(const Pass &S, const std::vector<size_t> &Windows) {
  std::vector<double> Rate;
  for (size_t K = 0; K + 1 < Windows.size(); ++K)
    if (Windows[K] < Windows[K + 1])
      Rate.push_back(static_cast<double>(Windows[K + 1] - Windows[K]) /
                     S.wall(Windows[K], Windows[K + 1]));
  return median(Rate);
}

/// The text before the body: return type, name and parameters.
std::string header(const std::string &FunctionSource) {
  return FunctionSource.substr(0, FunctionSource.find('{'));
}

/// Output checks of one timed pass (see README.md, "Checks").
void checkPass(const Program &P, const std::vector<size_t> &Order,
               const Pass &S, Checks &C) {
  size_t N = Order.size();
  C.expect(S.After.Submitted - S.Before.Submitted == N &&
               S.After.Completed - S.Before.Completed == N,
           "engine completed every submitted request");
  std::vector<std::vector<size_t>> ByTask(P.Tasks.size());
  for (size_t I = 0; I < N; ++I) {
    const serve::RequestResult &R = S.Results[I];
    C.expect(R.ok() && R.Verified && !R.Degraded,
             R.Name + ": resolved " + serve::requestStatusName(R.Status) +
                 ", verified and not degraded");
    bool Ordered = true;
    for (size_t H = 1; H < R.Hyps.size(); ++H)
      Ordered &= R.Hyps[H].Score <= R.Hyps[H - 1].Score;
    C.expect(!R.Hyps.empty() && R.Hyps.size() <= BeamSize && Ordered,
             R.Name + ": 1..k hypotheses with non-increasing scores");
    ByTask[Order[I]].push_back(I);
  }

  // Per distinct task, in parallel: the solo pipeline's answer, the
  // selection rule over the served hypotheses, the positive control and
  // the ground-truth rule. Each task writes only its own message slot.
  const tok::Tokenizer &Tok = P.D->tokenizer();
  std::vector<std::string> Fail(P.Tasks.size());
  ThreadPool Pool(CheckThreads);
  Pool.parallelFor(P.Tasks.size(), [&](size_t T) {
    const core::EvalTask &Task = P.Tasks[T];
    std::string &Msg = Fail[T];
    if (ByTask[T].empty())
      return;
    const serve::RequestResult &First = S.Results[ByTask[T].front()];
    core::Decompiler::Options O;
    O.BeamSize = BeamSize;
    O.MaxLen = MaxLen;
    O.VerifyThreads = 1;
    core::HypothesisOutcome Solo = P.D->decompile(Task, O);
    for (size_t I : ByTask[T]) {
      const serve::RequestResult &R = S.Results[I];
      if (R.CSource != Solo.CSource || R.Outcome.IOCorrect != Solo.IOCorrect)
        Msg += " served answer differs from solo decompile;";
      bool SameHyps = R.Hyps.size() == First.Hyps.size();
      for (size_t H = 0; SameHyps && H < R.Hyps.size(); ++H)
        SameHyps = R.Hyps[H].Tokens == First.Hyps[H].Tokens;
      if (!SameHyps)
        Msg += " repeated request decoded differently;";
    }
    std::vector<core::HypothesisOutcome> Cands;
    for (const nn::Hypothesis &H : First.Hyps)
      Cands.push_back(core::evaluateHypothesis(Task, Tok.decode(H.Tokens),
                                               /*UseTypeInference=*/true));
    if (!Cands.empty()) {
      auto Pick = std::find_if(
          Cands.begin(), Cands.end(),
          [](const core::HypothesisOutcome &O) { return O.IOCorrect; });
      const core::HypothesisOutcome &Want =
          Pick == Cands.end() ? Cands.front() : *Pick;
      if (First.CSource != Want.CSource ||
          First.Outcome.IOCorrect != Want.IOCorrect)
        Msg += " answer is not the first IO-passing candidate (or top-1);";
    }
    if (!core::evaluateHypothesis(Task, Task.FunctionSource, true).IOCorrect)
      Msg += " ground truth judged not IO-correct;";
    if (cc::cTokenSpellings(First.CSource) ==
            cc::cTokenSpellings(Task.FunctionSource) &&
        !First.Outcome.IOCorrect)
      Msg += " answer equal to the ground truth judged not IO-correct;";
  });
  for (size_t T = 0; T < P.Tasks.size(); ++T)
    C.expect(Fail[T].empty(), P.Tasks[T].Name + ":" + Fail[T]);

  // Negative control: another task's ground truth with the same header in
  // the same context compiles here, and when its reference profile
  // differs it must not be judged IO-correct.
  std::map<std::string, std::vector<size_t>> Groups;
  for (size_t T = 0; T < P.Tasks.size(); ++T)
    Groups[P.Tasks[T].ContextSource + '\x1f' +
           header(P.Tasks[T].FunctionSource)]
        .push_back(T);
  size_t Negatives = 0;
  for (const auto &G : Groups)
    for (size_t A : G.second)
      for (size_t B : G.second) {
        const core::EvalTask &TA = P.Tasks[A], &TB = P.Tasks[B];
        if (A == B || vm::profilesEquivalent(TA.RefProfile, TB.RefProfile))
          continue;
        core::HypothesisOutcome O =
            core::evaluateHypothesis(TA, TB.FunctionSource, true);
        C.expect(O.Compiles && !O.IOCorrect,
                 TA.Name + ": negative control (" + TB.Name +
                     "'s ground truth) compiles and is judged incorrect");
        ++Negatives;
        break; // One negative per task.
      }
  C.expect(Negatives > 0, "negative control exercised at least once");
  std::printf("# checks: %zu distinct tasks, %zu negative controls\n",
              P.Tasks.size(), Negatives);
}

double ms(double S) { return 1e3 * S; }

} // namespace

RunResult runServing(const Args &A, Checks &C) {
  Workload W = makeWorkload(A);
  size_t N = W.Order.size();
  std::fprintf(stderr,
               "[perfbench] %s: %zu requests over %zu distinct functions\n",
               A.Workload.c_str(), N, W.Samples.size());

  // -- set-up, repeated; the last one serves ---------------------------------
  Program P;
  std::vector<double> SetupS, LoadS, EngineS, TasksS;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    P.E.reset(); // The engine refers to the decompiler: it goes first.
    P.D.reset();
    Clock::time_point T0 = Clock::now();
    auto Sys = core::loadSystem(A.ModelDir, ModelName);
    if (!Sys)
      throw std::runtime_error("cannot load model: " + Sys.errorMessage());
    P.D = std::make_unique<core::Decompiler>(std::move(Sys->Tok),
                                             std::move(Sys->Model));
    LoadS.push_back(secondsSince(T0));
    Clock::time_point T1 = Clock::now();
    P.E = std::make_unique<serve::Engine>(*P.D, engineOptions());
    EngineS.push_back(secondsSince(T1));
    Clock::time_point T2 = Clock::now();
    P.Tasks = core::buildTasks(W.Samples, asmx::Dialect::X86, false);
    TasksS.push_back(secondsSince(T2));
    SetupS.push_back(secondsSince(T0));
  }
  C.expect(P.Tasks.size() == W.Samples.size(), "every input builds a task");
  if (!C.ok())
    return RunResult();

  // -- warm-up on disjoint Synth traffic -------------------------------------
  std::vector<core::EvalTask> WarmTasks =
      core::buildTasks(W.Warmup, asmx::Dialect::X86, false);
  std::vector<size_t> WarmOrder(WarmTasks.size());
  for (size_t I = 0; I < WarmOrder.size(); ++I)
    WarmOrder[I] = I;
  Pass Warm = runPass(P, WarmTasks, WarmOrder, W.WarmupDueAt,
                      {0, WarmOrder.size()}, false);
  C.expect(Warm.okCount() == WarmOrder.size(), "warm-up requests all ok");

  // -- timed pass -------------------------------------------------------------
  Pass S = runPass(P, P.Tasks, W.Order, W.DueAt, W.Windows, W.Rounds);
  RunResult Out;
  Out.Attempted = N;
  Out.Failed = N - S.okCount();
  size_t IOCorrect = 0;
  for (const serve::RequestResult &R : S.Results)
    IOCorrect += R.ok() && R.Outcome.IOCorrect;
  double FnPerS = windowedRate(S, W.Windows);
  serve::LatencyStats Lat = serve::latencyStatsOf(S.latencies());
  serve::LatencyStats Late = serve::latencyStatsOf(S.LateS);
  std::printf("# %s: %zu requests, %zu ok, %zu io_correct; fn/s %.2f "
              "(median of %zu windows); latency (%zu samples) p50 %.3f ms, "
              "p95 %.3f ms; generator lateness p50 %.3f ms, p95 %.3f ms, "
              "max %.3f ms\n",
              A.Workload.c_str(), N, S.okCount(), IOCorrect, FnPerS,
              W.Windows.size() - 1, N, ms(Lat.P50), ms(Lat.P95),
              ms(Late.P50), ms(Late.P95), ms(Late.Max));

  MetricSet &M = Out.Metrics;
  if (!A.Trace) {
    M.set("setup_s", median(SetupS), "s");
    M.set("peak_rss_mb", peakRssMiB(), "MiB");
    M.set("fn_per_s", FnPerS, "functions/s");
    M.set("cpu_ms_per_fn", ms(S.CpuS) / static_cast<double>(N), "ms");
    M.set("io_correct", static_cast<double>(IOCorrect), "count");
    P.E.reset();
    checkPass(P, W.Order, S, C);
    return Out;
  }

  // -- traced run: engine counters of the ordinary pass -----------------------
  const serve::EngineMetrics &B = S.Before, &E = S.After;
  double Encode = E.EncodeSeconds - B.EncodeSeconds;
  uint64_t Ticks = E.Steps - B.Steps;
  std::vector<double> QueueWait;
  for (const serve::RequestResult &R : S.Results)
    QueueWait.push_back(R.QueueWaitSeconds);
  M.set("setup.model_load_s", median(LoadS), "s");
  M.set("setup.engine_start_s", median(EngineS), "s");
  M.set("dataset.build_tasks_s", median(TasksS), "s");
  // Request latency varies too much from run to run on a shared virtual
  // host to gate on (README.md), so it is reported here, ungated.
  M.set("latency_p50_ms", ms(Lat.P50), "ms");
  M.set("latency_p95_ms", ms(Lat.P95), "ms");
  M.set("serve.requests", static_cast<double>(N), "count");
  M.set("serve.wall_s", S.wall(0, N), "s");
  M.set("serve.dispatch_encode_s", Encode, "s");
  M.set("serve.dispatch_encode_ratio", Encode / S.wall(0, N), "ratio");
  M.set("serve.queue_wait_p50_ms", ms(serve::latencyStatsOf(QueueWait).P50),
        "ms");
  M.set("serve.decode_busy_s", E.DecodeSeconds - B.DecodeSeconds, "s");
  M.set("serve.ticks", static_cast<double>(Ticks), "count");
  M.set("serve.rows_per_tick",
        Ticks ? static_cast<double>(E.StepRows - B.StepRows) /
                    static_cast<double>(Ticks)
              : 0.0,
        "rows");
  M.set("serve.verify_s", E.VerifySeconds - B.VerifySeconds, "s");
  M.set("serve.decode_cache_hits",
        static_cast<double>(E.DecodeCacheHits - B.DecodeCacheHits), "count");
  M.set("serve.decode_cache_misses",
        static_cast<double>(E.DecodeCacheMisses - B.DecodeCacheMisses),
        "count");
  M.set("serve.encoder_cache_hits",
        static_cast<double>(S.EncAfter.Hits - S.EncBefore.Hits), "count");
  M.set("serve.encoder_cache_misses",
        static_cast<double>(S.EncAfter.Misses - S.EncBefore.Misses), "count");
  M.set("serve.inflight_attached",
        static_cast<double>(E.InFlightDeduped - B.InFlightDeduped), "count");
  M.set("serve.cpu_ms_per_fn", ms(S.CpuS) / static_cast<double>(N), "ms");

  // -- the same stream with the request-stage trace recorder armed ------------
  // Both caches are emptied first so the traced pass starts as cold as the
  // ordinary one did; its answers must match the ordinary pass's.
  P.D->clearEncoderCache();
  P.D->clearDecodeCache();
  obs::trace().clear();
  obs::trace().enable(/*SampleEvery=*/1);
  Pass T = runPass(P, P.Tasks, W.Order, W.DueAt, W.Windows, W.Rounds);
  obs::trace().disable();
  P.E.reset();
  Out.Attempted += N;
  Out.Failed += N - T.okCount();
  for (size_t I = 0; I < N; ++I)
    C.expect(T.Results[I].CSource == S.Results[I].CSource &&
                 T.Results[I].Outcome.IOCorrect ==
                     S.Results[I].Outcome.IOCorrect,
             T.Results[I].Name + ": traced pass gives the same answer");
  M.set("trace.events", static_cast<double>(obs::trace().eventCount()),
        "count");
  M.set("trace.cpu_ms_per_fn", ms(T.CpuS) / static_cast<double>(N), "ms");
  M.set("trace.overhead_pct", 100.0 * (T.CpuS / S.CpuS - 1.0), "%");
  obs::trace().clear();

  checkPass(P, W.Order, S, C);

  // -- one-by-one replay through the per-layer entry points -------------------
  size_t Cap = std::max<size_t>(
      1, static_cast<size_t>(ReplayPerSecond * A.Seconds));
  std::vector<core::EvalTask> Replay;
  std::vector<std::string> Served;
  std::vector<bool> Taken(P.Tasks.size());
  for (size_t I = 0; I < N && Replay.size() < Cap; ++I) {
    if (Taken[W.Order[I]])
      continue;
    Taken[W.Order[I]] = true;
    Replay.push_back(P.Tasks[W.Order[I]]);
    Served.push_back(S.Results[I].CSource);
  }
  replayLayers(*P.D, Replay, Served, M, C);
  return Out;
}

} // namespace perfbench
