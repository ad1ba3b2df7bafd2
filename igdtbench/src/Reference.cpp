//===- igdtbench/src/Reference.cpp - Verdict views and the reference ------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "faults/DefectCatalog.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

using namespace igdtbench;

Slice igdtbench::fullSlice() { return {"full", 0, 0}; }
// The catalog prefix up to the first seeded byte-code and native-method
// differences (bytecodePrim_add, primitiveAsFloat): every compiler,
// both instruction kinds and seeded differences, in milliseconds.
Slice igdtbench::smokeSlice() { return {"smoke", 64, 20}; }

CampaignRequest igdtbench::seededRequest(const Slice &S, unsigned Jobs) {
  CampaignRequest R;
  R.Jobs = Jobs;
  R.MaxBytecodes = S.MaxBytecodes;
  R.MaxNativeMethods = S.MaxNativeMethods;
  return R;
}

std::vector<const InstructionSpec *>
igdtbench::sliceInstructions(const Slice &S) {
  std::vector<const InstructionSpec *> Out;
  unsigned Bytecodes = 0;
  unsigned Natives = 0;
  for (const InstructionSpec &Spec : allInstructions()) {
    bool Bytecode = Spec.Kind == InstructionKind::Bytecode;
    unsigned &Seen = Bytecode ? Bytecodes : Natives;
    unsigned Max = Bytecode ? S.MaxBytecodes : S.MaxNativeMethods;
    if (Max && Seen >= Max)
      continue;
    ++Seen;
    Out.push_back(&Spec);
  }
  return Out;
}

std::vector<CompilerKind> igdtbench::compilersFor(InstructionKind Kind) {
  if (Kind == InstructionKind::NativeMethod)
    return {CompilerKind::NativeMethod};
  return {CompilerKind::SimpleStack, CompilerKind::StackToRegister,
          CompilerKind::RegisterAllocating};
}

unsigned igdtbench::parallelJobs() {
  unsigned Hw = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, Hw ? Hw : 1u));
}

//===----------------------------------------------------------------------===//
// Verdict views
//===----------------------------------------------------------------------===//

namespace {

std::uint64_t fnv1a(const std::string &Text,
                    std::uint64_t H = 1469598103934665603ull) {
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex(std::uint64_t V) {
  return formatString("%016llx", static_cast<unsigned long long>(V));
}

} // namespace

void CompilerVerdicts::add(const PathTestOutcome &X64,
                           const PathTestOutcome &Arm) {
  bool A = X64.Status == PathTestStatus::Difference;
  bool B = Arm.Status == PathTestStatus::Difference;
  if (!A && !B)
    return;
  ++DifferingPaths;
  if (A)
    Causes.emplace(X64.CauseKey, X64.Family);
  if (B)
    Causes.emplace(Arm.CauseKey, Arm.Family);
}

InstructionVerdicts InstructionVerdicts::fromRecord(const InstructionRecord &R) {
  InstructionVerdicts V;
  V.Name = R.Instruction;
  V.Paths = R.Paths;
  V.CuratedPaths = R.CuratedPaths;
  for (const CompilerOutcome &C : R.Compilers)
    V.Compilers.push_back({C.Kind, C.DifferingPaths, C.Causes});
  return V;
}

InstructionVerdicts
InstructionVerdicts::fromExploration(const ExplorationResult &R) {
  InstructionVerdicts V;
  V.Name = R.Spec->Name;
  V.Paths = static_cast<unsigned>(R.Paths.size());
  V.CuratedPaths = R.curatedCount();
  return V;
}

std::string InstructionVerdicts::digest() const {
  std::string Text = formatString("%s|%u|%u", Name.c_str(), Paths,
                                  CuratedPaths);
  for (const CompilerVerdicts &C : Compilers) {
    Text += formatString("|%s:%u", compilerKindName(C.Kind), C.DifferingPaths);
    for (const auto &[Key, Family] : C.Causes)
      Text += formatString(";%s=%s", Key.c_str(), defectFamilyName(Family));
  }
  return hex(fnv1a(Text));
}

VerdictTotals VerdictTotals::of(const std::vector<InstructionVerdicts> &V) {
  VerdictTotals T;
  std::set<std::string> Causes;
  for (const InstructionVerdicts &I : V) {
    ++T.Instructions;
    T.Paths += I.Paths;
    for (const CompilerVerdicts &C : I.Compilers) {
      T.CuratedRows += I.CuratedPaths;
      T.Differences += C.DifferingPaths;
      for (const auto &Entry : C.Causes)
        Causes.insert(Entry.first);
    }
  }
  T.Causes = static_cast<unsigned>(Causes.size());
  return T;
}

std::string VerdictTotals::describe() const {
  return formatString("%u instructions, %u paths, %u differences over %u "
                      "curated path x compiler rows, %u causes",
                      Instructions, Paths, Differences, CuratedRows, Causes);
}

std::string
igdtbench::recordsDigest(const std::vector<InstructionRecord> &Records) {
  std::uint64_t H = fnv1a("");
  for (const InstructionRecord &R : Records) {
    InstructionRecord Copy = R;
    Copy.ExploreMillis = 0;
    for (CompilerOutcome &C : Copy.Compilers)
      C.TestMillis = 0;
    H = fnv1a(Copy.toJson() + "\n", H);
  }
  return hex(H);
}

std::vector<InstructionVerdicts>
igdtbench::verdictsOf(const CampaignSummary &Summary, unsigned &Failed) {
  std::set<std::string> Faulted(Summary.Quarantined.begin(),
                                Summary.Quarantined.end());
  for (const CampaignIncident &I : Summary.Incidents)
    Faulted.insert(I.Instruction);
  Failed = static_cast<unsigned>(Faulted.size());
  std::vector<InstructionVerdicts> Out;
  for (const InstructionRecord &R : Summary.Records)
    Out.push_back(InstructionVerdicts::fromRecord(R));
  return Out;
}

std::uint64_t
igdtbench::deliveredVerdicts(const std::vector<InstructionRecord> &Records) {
  std::uint64_t N = 0;
  for (const InstructionRecord &R : Records)
    N += std::uint64_t(R.Paths) * R.Compilers.size() * 2;
  return N;
}

//===----------------------------------------------------------------------===//
// Layer names
//===----------------------------------------------------------------------===//

const char *igdtbench::countName(unsigned Id) {
  static const char *const Names[NumCounts] = {
      "concolic.paths",         "concolic.iterations",
      "concolic.unknown_negations", "solver.queries",
      "solver.nodes",           "solver.cases",
      "symbolic.frames",        "jit.compiles",
      "jit.code_cache_hits",    "jit.code_bytes",
      "jit.sim_runs",           "jit.sim_fuel",
      "differential.verdicts",  "differential.differences",
      "differential.heap_resets", "differential.heap_bytes_reset"};
  return Names[Id];
}

const char *igdtbench::spanName(unsigned Id) {
  static const char *const Names[NumSpans] = {
      "concolic.explore_ms", "concolic.exec_ms",
      "solver.solve_ms",     "symbolic.materialize_ms",
      "jit.compile_ms",      "jit.sim_ms",
      "differential.test_path_ms", "differential.compare_ms"};
  return Names[Id];
}

std::string igdtbench::compareCounts(const Counts &Got, const Counts &Want) {
  for (unsigned I = 0; I < NumCounts; ++I)
    if (Got[I] != Want[I])
      return formatString("%s is %llu, reference %llu", countName(I),
                          static_cast<unsigned long long>(Got[I]),
                          static_cast<unsigned long long>(Want[I]));
  return "";
}

//===----------------------------------------------------------------------===//
// The committed reference
//===----------------------------------------------------------------------===//

std::string SliceReference::compare(const std::vector<InstructionVerdicts> &V,
                                    bool Whole) const {
  std::map<std::string, std::string> Want(Instructions.begin(),
                                          Instructions.end());
  if (Whole && V.size() != Instructions.size())
    return formatString("%zu instructions, reference %zu", V.size(),
                        Instructions.size());
  for (std::size_t I = 0; I < V.size(); ++I) {
    if (Whole && V[I].Name != Instructions[I].first)
      return formatString("instruction %zu is %s, reference %s", I,
                          V[I].Name.c_str(), Instructions[I].first.c_str());
    auto It = Want.find(V[I].Name);
    if (It == Want.end())
      return "instruction " + V[I].Name + " is not in the reference";
    if (V[I].digest() != It->second)
      return "verdicts of " + V[I].Name + " differ from the reference";
  }
  if (Whole && !(VerdictTotals::of(V) == Totals))
    return "totals " + VerdictTotals::of(V).describe() + ", reference " +
           Totals.describe();
  return "";
}

Counts SliceReference::countsOf(const std::vector<std::string> &Names) const {
  Counts Sum{};
  for (const std::string &Name : Names) {
    auto It = InstructionCounts.find(Name);
    if (It == InstructionCounts.end())
      continue;
    for (unsigned I = 0; I < NumCounts; ++I)
      Sum[I] += It->second[I];
  }
  return Sum;
}

namespace {

JsonValue countsJson(const Counts &C) {
  JsonValue A = JsonValue::array();
  for (std::uint64_t V : C)
    A.push(JsonValue::number(static_cast<double>(V)));
  return A;
}

bool countsFrom(const JsonValue *V, Counts &Out) {
  if (!V || V->K != JsonValue::Kind::Array || V->Arr.size() != NumCounts)
    return false;
  for (unsigned I = 0; I < NumCounts; ++I)
    Out[I] = static_cast<std::uint64_t>(V->Arr[I].Num);
  return true;
}

JsonValue totalsJson(const VerdictTotals &T) {
  JsonValue V = JsonValue::object();
  V.set("instructions", JsonValue::number(T.Instructions));
  V.set("paths", JsonValue::number(T.Paths));
  V.set("curated_rows", JsonValue::number(T.CuratedRows));
  V.set("differences", JsonValue::number(T.Differences));
  V.set("causes", JsonValue::number(T.Causes));
  return V;
}

} // namespace

bool igdtbench::loadReference(const std::string &Path,
                              const std::string &SliceName,
                              SliceReference &Out, std::string &Error) {
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::optional<JsonValue> Root = JsonValue::parse(Buf.str());
  const JsonValue *Slices = Root ? Root->find("slices") : nullptr;
  const JsonValue *S = Slices ? Slices->find(SliceName) : nullptr;
  if (!In || !S) {
    Error = "no slice '" + SliceName + "' in reference " + Path;
    return false;
  }
  const JsonValue *Instrs = S->find("instructions");
  const JsonValue *Totals = S->find("totals");
  if (!Instrs || !Totals || !countsFrom(S->find("replay_counts"),
                                        Out.ReplayCounts)) {
    Error = "malformed reference slice '" + SliceName + "'";
    return false;
  }
  for (const JsonValue &I : Instrs->Arr) {
    std::string Name = I.stringOr("name", "");
    Out.Instructions.emplace_back(Name, I.stringOr("verdicts", ""));
    if (!countsFrom(I.find("counts"), Out.InstructionCounts[Name])) {
      Error = "malformed reference counts for " + Name;
      return false;
    }
  }
  Out.RecordsDigest = S->stringOr("records_digest", "");
  Out.Totals.Instructions = unsigned(Totals->numberOr("instructions", 0));
  Out.Totals.Paths = unsigned(Totals->numberOr("paths", 0));
  Out.Totals.CuratedRows = unsigned(Totals->numberOr("curated_rows", 0));
  Out.Totals.Differences = unsigned(Totals->numberOr("differences", 0));
  Out.Totals.Causes = unsigned(Totals->numberOr("causes", 0));
  Out.FixedAdvisories = unsigned(S->numberOr("fixed_advisories", 0));
  return true;
}

FixedResult igdtbench::runFixedPass(const Slice &S) {
  // The crosscompiler_audit --fixed configuration: every seeded defect
  // family repaired. Optimisation differences are structural (both
  // engines are correct), so they are advisories, not differences.
  SessionConfig Cfg = seededRequest(S, 1).toSessionConfig();
  Cfg.harness().VM = cleanVMConfig();
  Cfg.harness().Cogit = cleanCogitOptions();
  Cfg.harness().SeedSimulationErrors = false;
  CampaignSummary Summary = Session(Cfg).runCampaign();
  FixedResult R;
  for (const CompilerEvaluation &Row : Summary.Rows)
    for (const auto &Entry : Row.Causes)
      ++(Entry.second == DefectFamily::OptimisationDifference
             ? R.Advisories
             : R.CorrectnessDifferences);
  return R;
}

int igdtbench::writeReference(const std::string &Path) {
  JsonValue Slices = JsonValue::object();
  for (const Slice &S : {fullSlice(), smokeSlice()}) {
    SessionConfig Cfg = seededRequest(S, 1).toSessionConfig();
    CampaignSummary Summary = Session().runCampaign(seededRequest(S, 1));
    unsigned Failed = 0;
    std::vector<InstructionVerdicts> Records = verdictsOf(Summary, Failed);
    LayerPassResult Layer =
        catalogLayerPass(Cfg, sliceInstructions(S), 1, /*Traced=*/true);
    if (Failed || Layer.Failed) {
      std::fprintf(stderr, "reference: %s slice has failed instructions\n",
                   S.Name.c_str());
      return 1;
    }
    // The layer pass issues the campaign's calls itself; both must
    // reach the same verdicts before either is committed.
    for (std::size_t I = 0; I < Records.size(); ++I)
      if (I >= Layer.Verdicts.size() ||
          Records[I].digest() != Layer.Verdicts[I].digest()) {
        std::fprintf(stderr, "reference: layer pass disagrees with the "
                             "campaign on %s\n",
                     Records[I].Name.c_str());
        return 1;
      }
    std::vector<ExplorationResult> Corpus;
    Session Explorer(Cfg);
    for (const InstructionSpec *Spec : sliceInstructions(S))
      Corpus.push_back(Explorer.explore(*Spec));
    LayerPassResult Replay = replayLayerPass(Cfg, Corpus, /*Traced=*/true);
    FixedResult Fixed = runFixedPass(S);
    if (Fixed.CorrectnessDifferences) {
      std::fprintf(stderr, "reference: repaired-seed pass finds %u "
                           "correctness differences\n",
                   Fixed.CorrectnessDifferences);
      return 1;
    }

    JsonValue Instrs = JsonValue::array();
    for (std::size_t I = 0; I < Records.size(); ++I) {
      JsonValue E = JsonValue::object();
      E.set("name", JsonValue::string(Records[I].Name));
      E.set("verdicts", JsonValue::string(Records[I].digest()));
      E.set("counts", countsJson(Layer.PerInstruction[I].C));
      Instrs.push(std::move(E));
    }
    JsonValue Names = JsonValue::array();
    for (unsigned I = 0; I < NumCounts; ++I)
      Names.push(JsonValue::string(countName(I)));
    JsonValue V = JsonValue::object();
    V.set("records_digest", JsonValue::string(recordsDigest(Summary.Records)));
    V.set("totals", totalsJson(VerdictTotals::of(Records)));
    V.set("fixed_correctness_differences", JsonValue::number(0));
    V.set("fixed_advisories", JsonValue::number(Fixed.Advisories));
    V.set("count_names", std::move(Names));
    V.set("replay_counts", countsJson(Replay.Tally.C));
    V.set("instructions", std::move(Instrs));
    Slices.set(S.Name, std::move(V));
    std::fprintf(stderr, "reference: %s slice: %s\n", S.Name.c_str(),
                 VerdictTotals::of(Records).describe().c_str());
  }
  // One instruction per line, so a reference update diffs readably.
  std::string Text = "{\"configuration\":\"seeded\",\"slices\":{";
  for (std::size_t I = 0; I < Slices.Obj.size(); ++I) {
    JsonValue &S = Slices.Obj[I].second;
    JsonValue Instrs = std::move(
        std::find_if(S.Obj.begin(), S.Obj.end(), [](const auto &E) {
          return E.first == "instructions";
        })->second);
    std::string Head = S.dump();
    Head.erase(Head.rfind(",\"instructions\""));
    Text += formatString("%s\n\"%s\":%s,\"instructions\":[", I ? "," : "",
                         Slices.Obj[I].first.c_str(), Head.c_str());
    for (std::size_t J = 0; J < Instrs.Arr.size(); ++J)
      Text += (J ? ",\n" : "\n") + Instrs.Arr[J].dump();
    Text += "]}";
  }
  Text += "}}\n";
  std::ofstream Out(Path);
  Out << Text;
  return Out ? 0 : 1;
}
