//===- igdtbench/src/LayerPass.cpp - The traced layer pass ----------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer time without changing the program: the benchmark issues a
/// workload's calls into ConcolicExplorer::explore and
/// DifferentialTester::testPath itself and puts a span around each.
/// Inside a span, a benchmark-owned TraceSink stamps the arrival of the
/// completion events the modules already emit; the gap that ends at an
/// event is charged to the layer that event completes:
///
///   solver-query                 -> solver.solve_ms
///   path-explored                -> concolic.exec_ms
///   compile                      -> jit.compile_ms (materialise included)
///   sim-run after compile        -> jit.sim_ms
///   path-verdict after sim-run   -> differential.compare_ms
///
/// What the span covers beyond its charged gaps is its own self time
/// (concolic.explore_ms, differential.test_path_ms). Other event kinds
/// are not boundaries: their time stays with the next boundary.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "evalkit/Experiments.h"
#include "solver/SolverCache.h"
#include "symbolic/FrameMaterializer.h"

#include <atomic>
#include <exception>
#include <thread>

using namespace igdtbench;

namespace {

/// Stamps event arrivals of one worker into its tally.
class LayerClock final : public TraceSink {
public:
  void bind(LayerTally &T) { Tally = &T; }

  void begin() {
    SpanStart = Mark = Clock::now();
    Charged = 0;
    Last = Boundary::None;
  }

  void end(SpanId Self) {
    Tally->Millis[Self] += millisBetween(SpanStart, Clock::now()) - Charged;
  }

  void emit(TraceEvent E) override {
    switch (E.Kind) {
    case TraceEventKind::SolverQuery:
      boundary(Boundary::Solve, SSolve);
      return;
    case TraceEventKind::PathExplored:
      boundary(Boundary::Exec, SExec);
      return;
    case TraceEventKind::CacheLookup:
      if (E.Detail == "code-hit" || E.Detail == "code-miss")
        NextCompileServed = E.Detail == "code-hit";
      return;
    case TraceEventKind::Compile:
      if (!NextCompileServed)
        Tally->C[CCodeBytes] += E.Value;
      NextCompileServed = false;
      boundary(Boundary::Compile, SCompile);
      return;
    case TraceEventKind::SimRun:
      ++Tally->C[CSimRuns];
      Tally->C[CSimFuel] += E.Value;
      boundary(Boundary::Sim, Last == Boundary::Compile ? SSim : NumSpans);
      return;
    case TraceEventKind::PathVerdict:
      ++Tally->C[CVerdicts];
      if (E.Detail == pathTestStatusName(PathTestStatus::Difference))
        ++Tally->C[CDifferences];
      boundary(Boundary::Verdict, Last == Boundary::Sim ? SCompare : NumSpans);
      return;
    default:
      return;
    }
  }

private:
  enum class Boundary { None, Solve, Exec, Compile, Sim, Verdict };

  /// Charges the gap since the last boundary to \p Bucket (NumSpans
  /// leaves it in the enclosing span's self time).
  void boundary(Boundary B, unsigned Bucket) {
    Clock::time_point Now = Clock::now();
    if (Bucket != NumSpans) {
      double Gap = millisBetween(Mark, Now);
      Tally->Millis[Bucket] += Gap;
      Charged += Gap;
    }
    Mark = Now;
    Last = B;
  }

  LayerTally *Tally = nullptr;
  Clock::time_point SpanStart;
  Clock::time_point Mark;
  double Charged = 0;
  Boundary Last = Boundary::None;
  bool NextCompileServed = false;
};

/// Per-worker state of a layer pass.
struct Worker {
  ReplayArena Arena;
  LayerClock Clock;
};

/// Whether DifferentialTester materialises a frame for path \p P.
bool materialises(const PathSolution &P) {
  return P.Curated && P.Exit != ExitKind::InvalidFrame &&
         P.Exit != ExitKind::InvalidMemoryAccess;
}

/// Replays \p Paths of \p R on every admitted compiler and both
/// back-ends, x64-like then arm-like per path as the campaign does.
/// \p Cache is the code cache those replays share.
void replayInstruction(const EvaluationHarness &Harness,
                       const ExplorationResult &R,
                       const std::vector<std::size_t> &Paths,
                       JitCodeCache &Cache, Worker &W, bool Traced,
                       InstructionVerdicts &V, LayerTally &T) {
  const HarnessOptions &H = Harness.options();
  JitCacheStats Jit;
  ReplayStats Replay;
  SimStats Sim;
  // Release the previous instruction's heap uncounted, so reset counts
  // are the instruction's own whichever worker ran what before it.
  W.Arena.acquireHeap(nullptr);
  for (CompilerKind Kind : compilersFor(R.Spec->Kind)) {
    auto Make = [&](bool Arm) {
      DiffTestConfig C = Harness.diffConfig(Kind, Arm);
      C.Trace = Traced ? &W.Clock : nullptr;
      C.JitStats = &Jit;
      C.SimCounters = &Sim;
      C.Replay = &Replay;
      if (H.EnableCodeCache)
        C.CodeCache = &Cache;
      if (H.EnableReplayArena)
        C.Arena = &W.Arena;
      return C;
    };
    DifferentialTester X64(Make(false));
    DifferentialTester Arm(Make(true));
    CompilerVerdicts CV;
    CV.Kind = Kind;
    for (std::size_t I : Paths) {
      if (Traced)
        W.Clock.begin();
      PathTestOutcome A = X64.testPath(R, I);
      if (Traced) {
        W.Clock.end(STestPathSelf);
        W.Clock.begin();
      }
      PathTestOutcome B = Arm.testPath(R, I);
      if (Traced)
        W.Clock.end(STestPathSelf);
      CV.add(A, B);
    }
    V.Compilers.push_back(std::move(CV));
  }
  T.C[CCompiles] += Jit.Compiles;
  T.C[CCodeCacheHits] += Jit.CodeCacheHits;
  T.C[CHeapResets] += Replay.HeapResets;
  T.C[CHeapBytesReset] += Replay.HeapBytesReset;
}

/// symbolic.materialize_ms: the tester materialises each replayable
/// path once per compiler and back-end; the probe makes the same calls
/// on its own heap, after the pass's wall clock stopped.
void probeMaterialize(const ExplorationResult &R, ReplayArena &Arena,
                      LayerTally &T) {
  unsigned Replays =
      static_cast<unsigned>(compilersFor(R.Spec->Kind).size()) * 2;
  for (const PathSolution &P : R.Paths) {
    if (!materialises(P))
      continue;
    for (unsigned N = 0; N < Replays; ++N) {
      ObjectMemory &Heap = Arena.acquireHeap(nullptr);
      Clock::time_point T0 = Clock::now();
      FrameMaterializer(Heap, *R.Builder).materialize(P.InputModel, *R.Method);
      T.Millis[SMaterialize] += millisBetween(T0, Clock::now());
      ++T.C[CFrames];
    }
  }
}

void addSolverCounts(const ExplorationResult &R, LayerTally &T) {
  T.C[CConcolicPaths] += R.Paths.size();
  T.C[CConcolicIterations] += R.Iterations;
  T.C[CUnknownNegations] += R.UnknownNegations;
  T.C[CSolverQueries] += R.Solver.Queries;
  T.C[CSolverNodes] += R.Solver.NodesExplored;
  T.C[CSolverCases] += R.Solver.CasesExplored;
  T.MemoHits +=
      R.Solver.CacheHits + R.Solver.CacheUnsatSubsumed + R.Solver.ModelCacheHits;
}

void sumTallies(LayerPassResult &Out) {
  for (const LayerTally &T : Out.PerInstruction)
    Out.Tally.add(T);
}

} // namespace

void LayerTally::add(const LayerTally &O) {
  for (unsigned I = 0; I < NumCounts; ++I)
    C[I] += O.C[I];
  for (unsigned I = 0; I < NumSpans; ++I)
    Millis[I] += O.Millis[I];
  MemoHits += O.MemoHits;
}

LayerPassResult
igdtbench::catalogLayerPass(const SessionConfig &Cfg,
                            const std::vector<const InstructionSpec *> &Specs,
                            unsigned Jobs, bool Traced) {
  const HarnessOptions &H = Cfg.Campaign.Harness;
  const EvaluationHarness Harness(H);
  LayerPassResult Out;
  Out.Jobs = std::max(1u, Jobs);
  Out.Verdicts.resize(Specs.size());
  Out.PerInstruction.resize(Specs.size());
  std::vector<char> Threw(Specs.size(), 0);
  // Explorations outlive the pass for the materialisation probe; the
  // untraced twin keeps them too, so the two differ only by tracing.
  std::vector<std::unique_ptr<ExplorationResult>> Kept(Specs.size());
  SharedUnsatIndex Index;
  std::atomic<std::size_t> Cursor{0};
  std::vector<std::unique_ptr<Worker>> Workers;
  for (unsigned J = 0; J < Out.Jobs; ++J)
    Workers.push_back(std::make_unique<Worker>());

  auto Run = [&](Worker &W) {
    for (std::size_t I; (I = Cursor.fetch_add(1)) < Specs.size();) {
      LayerTally &T = Out.PerInstruction[I];
      W.Clock.bind(T);
      try {
        ExplorerOptions EOpts = H.Explorer;
        EOpts.SharedUnsat = &Index;
        EOpts.Trace = Traced ? &W.Clock : nullptr;
        if (Traced)
          W.Clock.begin();
        ExplorationResult R = ConcolicExplorer(H.VM, EOpts).explore(*Specs[I]);
        if (Traced)
          W.Clock.end(SExploreSelf);
        addSolverCounts(R, T);
        InstructionVerdicts &V = Out.Verdicts[I];
        V = InstructionVerdicts::fromExploration(R);
        std::vector<std::size_t> Paths(R.Paths.size());
        for (std::size_t P = 0; P < Paths.size(); ++P)
          Paths[P] = P;
        JitCodeCache Cache; // one per instruction, as per campaign attempt
        replayInstruction(Harness, R, Paths, Cache, W, Traced, V, T);
        Kept[I] = std::make_unique<ExplorationResult>(std::move(R));
      } catch (const std::exception &) {
        Threw[I] = 1;
      }
    }
  };

  Clock::time_point Start = Clock::now();
  if (Workers.size() == 1) {
    Run(*Workers[0]);
  } else {
    std::vector<std::thread> Threads;
    for (auto &W : Workers)
      Threads.emplace_back(Run, std::ref(*W));
    for (std::thread &T : Threads)
      T.join();
  }
  Out.WallMillis = millisBetween(Start, Clock::now());
  if (Traced) {
    ReplayArena ProbeArena;
    for (std::size_t I = 0; I < Kept.size(); ++I)
      if (Kept[I])
        probeMaterialize(*Kept[I], ProbeArena, Out.PerInstruction[I]);
  }
  sumTallies(Out);
  for (char F : Threw)
    Out.Failed += F;
  return Out;
}

LayerPassResult
igdtbench::replayLayerPass(const SessionConfig &Cfg,
                           const std::vector<ExplorationResult> &Corpus,
                           bool Traced) {
  const EvaluationHarness Harness(Cfg.Campaign.Harness);
  LayerPassResult Out;
  Worker W;
  JitCodeCache Cache; // one per pass, like a fresh Session's
  Clock::time_point Start = Clock::now();
  for (const ExplorationResult &R : Corpus) {
    Out.PerInstruction.emplace_back();
    LayerTally &T = Out.PerInstruction.back();
    W.Clock.bind(T);
    InstructionVerdicts V = InstructionVerdicts::fromExploration(R);
    std::vector<std::size_t> Curated;
    for (std::size_t P = 0; P < R.Paths.size(); ++P)
      if (R.Paths[P].Curated)
        Curated.push_back(P);
    try {
      replayInstruction(Harness, R, Curated, Cache, W, Traced, V, T);
    } catch (const std::exception &) {
      ++Out.Failed;
    }
    Out.Verdicts.push_back(std::move(V));
  }
  Out.WallMillis = millisBetween(Start, Clock::now());
  if (Traced) {
    ReplayArena ProbeArena;
    for (std::size_t I = 0; I < Corpus.size(); ++I)
      probeMaterialize(Corpus[I], ProbeArena, Out.PerInstruction[I]);
  }
  sumTallies(Out);
  return Out;
}

bool TimingStore::lookup(std::uint64_t Key, std::string &RecordLine) {
  Clock::time_point T0 = Clock::now();
  bool Hit = Inner.lookup(Key, RecordLine);
  LookupMillis += millisBetween(T0, Clock::now());
  ++Lookups;
  Hits += Hit;
  return Hit;
}

void TimingStore::put(std::uint64_t Key, const std::string &Instruction,
                      const std::string &RecordLine) {
  Clock::time_point T0 = Clock::now();
  Inner.put(Key, Instruction, RecordLine);
  PutMillis += millisBetween(T0, Clock::now());
  ++Puts;
}
