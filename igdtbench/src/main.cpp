//===- igdtbench/src/main.cpp - IGDT benchmark entry point ----------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload for a fixed time and prints its metrics as the last
/// line of standard output:
///
///   igdt_bench --workload NAME --seed N --seconds S --trace 0|1
///              [--smoke] [--reference PATH] [--work-dir DIR]
///   igdt_bench --write-reference PATH
///
/// --trace 0 times untraced passes (the end-to-end metrics); --trace 1
/// runs the traced layer pass and the evalkit/service passes (the
/// per-layer metrics). Every pass is checked against the committed
/// reference; a mismatch, a failed instruction or a correctness
/// difference in the repaired-seed pass makes "correct" false.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <utility>
#include <vector>

using namespace igdtbench;

namespace {

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string Reference = "igdtbench/reference/seeded.json";
  std::string WorkDir = ".bench_build/igdtbench/work";
  std::string WriteReference;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (A == "--smoke") {
      O.Smoke = true;
    } else if (A == "--workload") {
      if (!Value(O.Workload))
        return false;
    } else if (A == "--reference") {
      if (!Value(O.Reference))
        return false;
    } else if (A == "--work-dir") {
      if (!Value(O.WorkDir))
        return false;
    } else if (A == "--write-reference") {
      if (!Value(O.WriteReference))
        return false;
    } else if (A == "--seed" || A == "--seconds" || A == "--trace") {
      if (!Value(V))
        return false;
      char *End = nullptr;
      double N = std::strtod(V.c_str(), &End);
      if (End == V.c_str() || *End || !(N >= 0))
        return false;
      if (A == "--seed")
        O.Seed = static_cast<std::uint64_t>(N);
      else if (A == "--seconds")
        O.Seconds = N;
      else if (N == 0 || N == 1)
        O.Trace = N == 1;
      else
        return false;
    } else {
      return false;
    }
  }
  return true;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Peak resident memory of this process image. getrusage's ru_maxrss
/// survives exec, so under run.py it would report the Python launcher's
/// peak; the kernel's VmHWM starts afresh with the new image.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.compare(0, 6, "VmHWM:") == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // in kB
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Metrics in output order, each with its unit.
class Metrics {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    if (!std::isfinite(Value))
      Value = 0;
    Entries.push_back({Name, Value, Unit});
  }
  std::string json() const {
    std::string S = "{";
    for (std::size_t I = 0; I < Entries.size(); ++I)
      S += formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        I ? ", " : "", Entries[I].Name.c_str(),
                        Entries[I].Value, Entries[I].Unit);
    return S + "}";
  }

private:
  struct Entry {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Entry> Entries;
};

/// Correctness bookkeeping shared by both modes.
struct Tally {
  unsigned Attempted = 0;
  unsigned Failed = 0;
  unsigned Checked = 0;
  unsigned Mismatched = 0;
  std::string FirstProblem;

  void problem(const std::string &What) {
    if (FirstProblem.empty())
      FirstProblem = What;
  }
  void pass(const PassCheck &C) {
    ++Checked;
    Attempted += C.Attempted;
    Failed += C.Failed;
    if (!C.Mismatch.empty()) {
      ++Mismatched;
      problem(C.Mismatch);
    }
    if (C.Failed)
      problem(formatString("%u instructions failed", C.Failed));
  }
};

/// Pass \p Index, which may throw: a throwing pass fails all it
/// attempted.
PassCheck guardedPass(Workload &W, std::uint64_t Index, unsigned Instructions,
                      double &Millis) {
  W.prepare(Index);
  Clock::time_point T0 = Clock::now();
  try {
    W.pass();
  } catch (const std::exception &E) {
    Millis = millisBetween(T0, Clock::now());
    PassCheck C;
    C.Attempted = C.Failed = Instructions;
    C.Mismatch = std::string("pass threw: ") + E.what();
    return C;
  }
  Millis = millisBetween(T0, Clock::now());
  return W.check();
}

/// About the time the calibration kernel takes after a pass on the
/// machine the benchmark was built on (4-vCPU Xeon VM) while its host is
/// quiet. Timings are reported in that machine's quiet-host
/// milliseconds: measured time scaled by this over the kernel's time
/// measured next to it.
constexpr double ReferenceCalibrationMillis = 1.8;

/// --trace 0: set-up, then untraced passes for the run time.
void runUntraced(const Options &O, const Slice &S, Workload &W,
                 Calibration &Cal, Tally &T, Metrics &M) {
  unsigned Instructions = static_cast<unsigned>(sliceInstructions(S).size());
  // Set-up is repeated at even intervals through the run and reported
  // as its median, so one slow repetition or one slow stretch of the
  // machine moves setup_s less. The first repetition also pays the
  // catalog statics. Each repetition ends with its warm-up pass.
  constexpr unsigned SetupReps = 10;
  std::vector<double> Setup;
  auto TimedSetup = [&] {
    Clock::time_point T0 = Clock::now();
    W.setup();
    double WarmMillis = 0;
    PassCheck Warm = guardedPass(W, Setup.size(), Instructions, WarmMillis);
    Setup.push_back(millisBetween(T0, Clock::now()) / 1000.0);
    T.pass(Warm);
  };
  TimedSetup();

  // After every timed pass, outside its timing, the calibration kernel
  // runs once.
  constexpr std::size_t Window = 20;
  constexpr std::size_t WindowRank = 17; // nearest-rank p90: the 18th of 20
  std::vector<double> Pass, Kernel, Verdicts;
  Clock::time_point Start = Clock::now();
  double RunMillis = O.Seconds * 1000;
  for (double Now = 0; Pass.size() <= Window || Now < RunMillis;
       Now = millisBetween(Start, Clock::now())) {
    if (Setup.size() < SetupReps && Now >= Setup.size() * RunMillis / SetupReps)
      TimedSetup();
    double Millis = 0;
    PassCheck C = guardedPass(W, Pass.size(), Instructions, Millis);
    T.pass(C);
    Pass.push_back(Millis);
    Verdicts.push_back(C.Verdicts);
    Kernel.push_back(Cal.run());
  }
  while (Setup.size() < SetupReps)
    TimedSetup();
  double Rss = peakRssMb() - Cal.tableMb();

  // Co-tenant load on the host slows every pass by up to half, in
  // stretches from a fraction of a second to whole runs, and moved the
  // median pass time of a run by a third between runs. The calibration
  // kernel slows with it, so each window of consecutive passes is
  // scaled by the median kernel time measured after its passes. A
  // change to the program moves the passes but not the kernel. The
  // tail is the median over windows of each window's 90th percentile:
  // a tail over the whole run also collects the stretches of load no
  // window-level scaling removes.
  std::vector<double> Scaled, Rate, WindowTail;
  for (std::size_t I = 0; I + Window <= Pass.size(); I += Window) {
    double Scale = ReferenceCalibrationMillis /
                   median({Kernel.begin() + I, Kernel.begin() + I + Window});
    std::vector<double> Win;
    for (std::size_t J = I; J < I + Window; ++J) {
      Win.push_back(Pass[J] * Scale);
      Rate.push_back(Verdicts[J] / (Win.back() / 1000.0));
    }
    Scaled.insert(Scaled.end(), Win.begin(), Win.end());
    std::nth_element(Win.begin(), Win.begin() + WindowRank, Win.end());
    WindowTail.push_back(Win[WindowRank]);
  }
  double RunScale = ReferenceCalibrationMillis / median(Kernel);
  std::sort(Pass.begin(), Pass.end());
  std::printf("%s: %zu passes in %zu windows of %zu; measured median pass "
              "%.3f ms, p90 %.3f ms; median calibration kernel %.3f ms; "
              "setup repeated %u times\n",
              O.Workload.c_str(), Pass.size(), WindowTail.size(), Window,
              median(Pass), Pass[Pass.size() - 1 - Pass.size() / 10],
              median(Kernel), SetupReps);

  M.add("pass_ms", median(Scaled), "ms");
  M.add("pass_ms_tail", median(WindowTail), "ms");
  M.add("verdicts_per_s", median(Rate), "1/s");
  M.add("setup_s", median(Setup) * RunScale, "s");
  M.add("peak_rss_mb", Rss, "MB");
  M.add("instruction_ok_share",
        T.Attempted ? 1.0 - double(T.Failed) / T.Attempted : 0, "share");
  M.add("verdict_match_share",
        T.Checked ? 1.0 - double(T.Mismatched) / T.Checked : 0, "share");
}

/// --trace 1: the traced layer pass against its untraced twin, then
/// the evalkit/service passes, then the serial-vs-parallel campaigns.
void runTraced(const Options &O, const Slice &S, Workload &W, Tally &T,
               Metrics &M) {
  unsigned Instructions = static_cast<unsigned>(sliceInstructions(S).size());
  W.setup();
  double WarmMillis = 0;
  T.pass(guardedPass(W, 0, Instructions, WarmMillis));

  Clock::time_point Start = Clock::now();
  auto Elapsed = [&] { return millisBetween(Start, Clock::now()) / 1000.0; };

  // Layer passes, traced and untraced alternately.
  std::vector<double> TracedWall, PlainWall, Unaccounted;
  std::vector<std::vector<double>> Span(NumSpans);
  std::vector<double> MemoRatio;
  LayerTally First;
  while (TracedWall.size() < 3 || Elapsed() < O.Seconds * 0.5) {
    LayerPassResult L = W.layerPass(/*Traced=*/true);
    LayerPassResult P = W.layerPass(/*Traced=*/false);
    TracedWall.push_back(L.WallMillis);
    PlainWall.push_back(P.WallMillis);
    double Covered = 0;
    for (unsigned I = 0; I < NumSpans; ++I) {
      Span[I].push_back(L.Tally.Millis[I]);
      if (I != SMaterialize) // the probe is outside the pass wall
        Covered += L.Tally.Millis[I];
    }
    // Spans of concurrent workers add up to worker time.
    Unaccounted.push_back(L.Jobs * L.WallMillis - Covered);
    std::uint64_t Queries = L.Tally.C[CSolverQueries];
    MemoRatio.push_back(Queries ? double(L.Tally.MemoHits) / Queries : 0);
    if (TracedWall.size() == 1)
      First = L.Tally;
    for (const LayerPassResult *R : {&L, &P}) {
      PassCheck C;
      C.Attempted = static_cast<unsigned>(R->Verdicts.size());
      C.Failed = R->Failed;
      C.Mismatch = W.checkLayerVerdicts(*R);
      T.pass(C);
    }
    std::string Drift = compareCounts(L.Tally.C, First.C);
    if (!Drift.empty())
      T.problem("count changed between traced passes: " + Drift);
    Drift = compareCounts(L.Tally.C, W.expectedCounts());
    if (!Drift.empty())
      T.problem("count differs from the reference: " + Drift);
  }

  // Campaign-level passes: stage time against wall time, and the store.
  std::vector<double> Residual, Critical, Lookup, Put, HitRatio, Puts;
  while (Residual.size() < 3 || Elapsed() < O.Seconds * 0.75) {
    EvalkitSample E = W.evalkitPass(Residual.size());
    T.pass(W.check());
    Residual.push_back(E.Jobs * E.WallMillis - E.StageMillis);
    Critical.push_back(E.CriticalMillis);
    Lookup.push_back(E.LookupMillis);
    Put.push_back(E.PutMillis);
    HitRatio.push_back(E.Lookups ? double(E.Hits) / E.Lookups : 0);
    Puts.push_back(double(E.Puts));
  }

  // Parallel efficiency of the cold catalog campaign.
  std::vector<double> Serial, Parallel;
  unsigned Jobs = parallelJobs();
  while (Serial.size() < 3 || Elapsed() < O.Seconds) {
    for (unsigned J : {1u, Jobs}) {
      CampaignRequest R = seededRequest(S, J);
      Clock::time_point T0 = Clock::now();
      CampaignSummary Summary = Session().runCampaign(R);
      (J == 1 ? Serial : Parallel).push_back(millisBetween(T0, Clock::now()));
      unsigned Failed = 0;
      verdictsOf(Summary, Failed);
      T.Attempted += static_cast<unsigned>(Summary.Records.size());
      T.Failed += Failed;
    }
  }

  for (unsigned I = 0; I < NumSpans; ++I)
    M.add(spanName(I), median(Span[I]), "ms");
  for (unsigned I = 0; I < NumCounts; ++I)
    M.add(countName(I), double(First.C[I]), "count");
  M.add("solver.memo_hit_ratio", median(MemoRatio), "ratio");
  std::uint64_t Served = First.C[CCompiles] + First.C[CCodeCacheHits];
  M.add("jit.code_cache_hit_ratio",
        Served ? double(First.C[CCodeCacheHits]) / Served : 0, "ratio");
  M.add("evalkit.residual_ms", median(Residual), "ms");
  M.add("evalkit.critical_ms", median(Critical), "ms");
  M.add("evalkit.parallel_efficiency",
        median(Serial) / (Jobs * median(Parallel)), "ratio");
  M.add("service.store_lookup_ms", median(Lookup), "ms");
  M.add("service.store_put_ms", median(Put), "ms");
  M.add("service.store_hit_ratio", median(HitRatio), "ratio");
  M.add("service.store_puts", median(Puts), "count");
  M.add("trace.overhead_share", median(TracedWall) / median(PlainWall) - 1,
        "ratio");
  M.add("trace.unaccounted_ms", median(Unaccounted), "ms");
  std::printf("%s: %zu traced and %zu untraced layer passes, %zu evalkit "
              "passes, %zu serial/parallel campaign pairs at %u jobs\n",
              O.Workload.c_str(), TracedWall.size(), PlainWall.size(),
              Residual.size(), Serial.size(), Jobs);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: igdt_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--reference PATH] [--work-dir DIR]\n"
                 "       igdt_bench --write-reference PATH\n");
    return 2;
  }
  if (!O.WriteReference.empty())
    return writeReference(O.WriteReference);
  // Before any program work, so that peak RSS can leave its table out.
  Calibration Cal;

  Slice S = O.Smoke ? smokeSlice() : fullSlice();
  SliceReference Ref;
  std::string Error;
  if (!loadReference(O.Reference, S.Name, Ref, Error)) {
    std::fprintf(stderr, "igdt_bench: %s\n", Error.c_str());
    return 2;
  }
  std::unique_ptr<Workload> W =
      makeWorkload(O.Workload, S, Ref, O.Seed, O.WorkDir);
  if (!W) {
    std::fprintf(stderr, "igdt_bench: unknown workload '%s'\n",
                 O.Workload.c_str());
    return 2;
  }

  Tally T;
  Metrics M;
  if (O.Trace)
    runTraced(O, S, *W, T, M);
  else
    runUntraced(O, S, *W, Cal, T, M);

  FixedResult Fixed = runFixedPass(S);
  if (Fixed.CorrectnessDifferences)
    T.problem(formatString("repaired-seed pass: %u correctness differences",
                           Fixed.CorrectnessDifferences));
  bool Correct = T.FirstProblem.empty();
  std::printf("%s: %s; repaired-seed pass %u correctness differences, %u "
              "advisories\n",
              O.Workload.c_str(),
              Correct ? "every pass matches the reference"
                      : T.FirstProblem.c_str(),
              Fixed.CorrectnessDifferences, Fixed.Advisories);
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false", std::max(1u, T.Attempted), T.Failed,
              M.json().c_str());
  return 0;
}
