//===- igdtbench/src/Bench.h - The IGDT benchmark --------------------------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the benchmark binary: catalog slices, the
/// verdict view every pass is checked with, the committed reference,
/// the traced layer pass and the four workloads. igdtbench/README.md
/// explains why each workload exists and what each metric means.
///
/// Everything here drives the program through its public API (Session,
/// ConcolicExplorer, FrameMaterializer, DifferentialTester,
/// VerdictStore/ResultStore); the benchmark changes no program code.
///
//===----------------------------------------------------------------------===//

#ifndef IGDTBENCH_BENCH_H
#define IGDTBENCH_BENCH_H

#include "api/Requests.h"
#include "api/Session.h"
#include "evalkit/VerdictStore.h"
#include "support/Json.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace igdtbench {

using namespace igdt;

using Clock = std::chrono::steady_clock;

inline double millisBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// A catalog slice: the full catalog, or the small slice smoke runs use.
struct Slice {
  std::string Name;
  unsigned MaxBytecodes = 0;
  unsigned MaxNativeMethods = 0;
};
Slice fullSlice();
Slice smokeSlice();

/// The seeded-defect campaign request (the Session default, all seven
/// seeded families armed) over \p S at \p Jobs worker threads.
CampaignRequest seededRequest(const Slice &S, unsigned Jobs);
/// The instructions a campaign over \p S plans, in catalog order.
std::vector<const InstructionSpec *> sliceInstructions(const Slice &S);
/// The compilers a campaign replays an instruction kind against.
std::vector<CompilerKind> compilersFor(InstructionKind Kind);
/// min(4, hardware threads): the catalog_j4 topology.
unsigned parallelJobs();

//===----------------------------------------------------------------------===//
// Verdicts
//===----------------------------------------------------------------------===//

/// One compiler's verdicts on one instruction, both back-ends unioned
/// the way the campaign records them.
struct CompilerVerdicts {
  CompilerKind Kind = CompilerKind::NativeMethod;
  unsigned DifferingPaths = 0;
  std::map<std::string, DefectFamily> Causes;

  /// Folds one path's x64-like and arm-like outcomes in.
  void add(const PathTestOutcome &X64, const PathTestOutcome &Arm);
};

/// The verdict view of one instruction: what a user reads off a
/// campaign record, free of timings and reuse counters. Campaign
/// records, layer passes and testPath replays all reduce to it.
struct InstructionVerdicts {
  std::string Name;
  unsigned Paths = 0;
  unsigned CuratedPaths = 0;
  std::vector<CompilerVerdicts> Compilers;

  static InstructionVerdicts fromRecord(const InstructionRecord &R);
  /// Name and path counts of \p R; the caller adds the compilers.
  static InstructionVerdicts fromExploration(const ExplorationResult &R);
  /// Stable 64-bit digest (hex) of the whole view.
  std::string digest() const;
};

/// The reference counts the paper's tables report.
struct VerdictTotals {
  unsigned Instructions = 0;
  unsigned Paths = 0;
  /// Curated paths summed over every (instruction, compiler) row.
  unsigned CuratedRows = 0;
  /// Differing paths summed over compilers (Table 2 "Total").
  unsigned Differences = 0;
  /// Table 3 causes, deduplicated across compilers.
  unsigned Causes = 0;

  static VerdictTotals of(const std::vector<InstructionVerdicts> &V);
  bool operator==(const VerdictTotals &O) const = default;
  std::string describe() const;
};

/// Digest (hex) of \p Records with every wall-time field zeroed: the
/// deterministic checkpoint of a campaign.
std::string recordsDigest(const std::vector<InstructionRecord> &Records);

/// Campaign-record verdict views, with the failure count: instructions
/// quarantined or with an incident.
std::vector<InstructionVerdicts> verdictsOf(const CampaignSummary &Summary,
                                            unsigned &Failed);

/// Path verdicts a campaign's records deliver: every path of every
/// record on each of its compilers and both back-ends.
std::uint64_t deliveredVerdicts(const std::vector<InstructionRecord> &R);

//===----------------------------------------------------------------------===//
// Layer accounting
//===----------------------------------------------------------------------===//

/// Exact per-layer counts of a traced pass.
enum CountId : unsigned {
  CConcolicPaths,
  CConcolicIterations,
  CUnknownNegations,
  CSolverQueries,
  CSolverNodes,
  CSolverCases,
  CFrames,
  CCompiles,
  CCodeCacheHits,
  CCodeBytes,
  CSimRuns,
  CSimFuel,
  CVerdicts,
  CDifferences,
  CHeapResets,
  CHeapBytesReset,
  NumCounts
};
/// Metric name of each count ("concolic.paths", ...).
const char *countName(unsigned Id);

/// Self-time buckets of a traced pass.
enum SpanId : unsigned {
  SExploreSelf,
  SExec,
  SSolve,
  SMaterialize,
  SCompile,
  SSim,
  STestPathSelf,
  SCompare,
  NumSpans
};
/// Metric name of each bucket ("concolic.explore_ms", ...).
const char *spanName(unsigned Id);

using Counts = std::array<std::uint64_t, NumCounts>;

struct LayerTally {
  Counts C{};
  std::array<double, NumSpans> Millis{};
  /// Solver memo-tier hits. Scheduling-dependent at Jobs > 1 (shared
  /// Unsat index), so never part of the exact-count check.
  std::uint64_t MemoHits = 0;

  void add(const LayerTally &O);
};

/// One layer pass: a workload's explore/replay work issued by the
/// benchmark itself, call by call, into the public modules.
struct LayerPassResult {
  /// Pass wall time (the materialisation probe runs after it).
  double WallMillis = 0;
  /// Worker threads the pass ran on.
  unsigned Jobs = 1;
  LayerTally Tally;
  std::vector<InstructionVerdicts> Verdicts;
  std::vector<LayerTally> PerInstruction;
  /// Instructions whose calls threw.
  unsigned Failed = 0;
};

/// Explores \p Specs and replays every path on every admitted compiler
/// and both back-ends, the way one campaign attempt per instruction
/// does: a shared Unsat index, one code cache per instruction, one
/// replay arena per worker. \p Jobs worker threads claim instructions
/// in catalog order. With \p Traced, spans and a stamping TraceSink
/// fill the tally; without, only the wall time is taken.
LayerPassResult catalogLayerPass(const SessionConfig &Cfg,
                                 const std::vector<const InstructionSpec *> &Specs,
                                 unsigned Jobs, bool Traced);

/// Replays every curated path of \p Corpus on every admitted compiler
/// and both back-ends with one code cache and arena for the pass, as a
/// fresh Session's testPath calls do.
LayerPassResult replayLayerPass(const SessionConfig &Cfg,
                                const std::vector<ExplorationResult> &Corpus,
                                bool Traced);

/// A VerdictStore that times and counts the calls it forwards.
class TimingStore final : public VerdictStore {
public:
  explicit TimingStore(VerdictStore &Inner) : Inner(Inner) {}
  bool lookup(std::uint64_t Key, std::string &RecordLine) override;
  void put(std::uint64_t Key, const std::string &Instruction,
           const std::string &RecordLine) override;

  double LookupMillis = 0;
  double PutMillis = 0;
  std::uint64_t Lookups = 0;
  std::uint64_t Hits = 0;
  std::uint64_t Puts = 0;

private:
  VerdictStore &Inner;
};

//===----------------------------------------------------------------------===//
// Reference
//===----------------------------------------------------------------------===//

/// The committed reference of one slice (reference/seeded.json).
struct SliceReference {
  /// Instruction name -> verdict digest, catalog order.
  std::vector<std::pair<std::string, std::string>> Instructions;
  std::string RecordsDigest;
  VerdictTotals Totals;
  std::map<std::string, Counts> InstructionCounts;
  Counts ReplayCounts{};
  /// Structural optimisation advisories of the repaired-seed pass (its
  /// correctness differences must be zero).
  unsigned FixedAdvisories = 0;

  /// Empty when \p V equals the reference for the instructions it
  /// names (all of them when \p Whole); otherwise the first mismatch.
  std::string compare(const std::vector<InstructionVerdicts> &V,
                      bool Whole) const;
  /// Summed reference counts of \p Names.
  Counts countsOf(const std::vector<std::string> &Names) const;
};

/// Loads slice \p SliceName of the reference at \p Path.
bool loadReference(const std::string &Path, const std::string &SliceName,
                   SliceReference &Out, std::string &Error);
/// Measures and writes the reference of every slice to \p Path.
int writeReference(const std::string &Path);

/// Empty when the two count vectors agree; otherwise the first
/// differing count, by name.
std::string compareCounts(const Counts &Got, const Counts &Want);

/// Result of the repaired-seed pass: correctness differences (every
/// cause but the structural optimisation family) and advisories.
struct FixedResult {
  unsigned CorrectnessDifferences = 0;
  unsigned Advisories = 0;
};
FixedResult runFixedPass(const Slice &S);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Outcome of one timed pass, checked after the clock stopped.
struct PassCheck {
  unsigned Attempted = 0;
  unsigned Failed = 0;
  std::uint64_t Verdicts = 0;
  /// Empty when the pass's records equal the reference.
  std::string Mismatch;
};

/// Campaign-level figures of one pass (the evalkit/service split).
struct EvalkitSample {
  double WallMillis = 0;
  /// Worker threads the pass ran on.
  unsigned Jobs = 1;
  /// Stage time inside the pass (the ProfileReport stages: explore and
  /// one test stage per compiler, freshly computed records only).
  double StageMillis = 0;
  /// The slowest instruction's stage time.
  double CriticalMillis = 0;
  /// Store traffic of the pass; zero for workloads without a store.
  double LookupMillis = 0;
  double PutMillis = 0;
  std::uint64_t Lookups = 0;
  std::uint64_t Hits = 0;
  std::uint64_t Puts = 0;
};

/// The host-speed calibration kernel (Calibration.cpp): fixed work that
/// uses no program code, run after every timed pass of a --trace 0 run.
/// Its table is allocated and touched at construction, before any
/// program work.
class Calibration {
public:
  Calibration();
  /// Runs the kernel once; returns its wall time in milliseconds.
  double run();
  /// Resident size of the table, which peak RSS leaves out.
  double tableMb() const;

private:
  std::vector<std::uint32_t> Table;
  std::uint64_t Sink = 0;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// One-time work before the warm-up pass: corpus exploration, store
  /// population. Catalog statics are paid by the first call.
  virtual void setup() {}
  /// Untimed preparation of pass \p Index (store restore, invalidation
  /// draw). A pass's inputs are a function of the seed and its index.
  virtual void prepare(std::uint64_t Index) { (void)Index; }
  /// The timed unit of work.
  virtual void pass() = 0;
  /// Checks the last pass against the reference.
  virtual PassCheck check() = 0;

  /// The workload's explore/replay work as a layer pass.
  virtual LayerPassResult layerPass(bool Traced) = 0;
  /// Counts the layer pass must reproduce exactly.
  virtual Counts expectedCounts() const = 0;
  /// Checks a layer pass's verdicts against the reference.
  virtual std::string checkLayerVerdicts(const LayerPassResult &L) const = 0;
  /// Pass \p Index with stage and store timing.
  virtual EvalkitSample evalkitPass(std::uint64_t Index) = 0;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Slice &S,
                                       const SliceReference &Ref,
                                       std::uint64_t Seed,
                                       const std::string &WorkDir);

} // namespace igdtbench

#endif // IGDTBENCH_BENCH_H
