//===- igdtbench/src/Workloads.cpp - The four benchmark workloads ---------===//
//
// Part of the IGDT project: interpreter-guided differential JIT testing.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// catalog_serial / catalog_j4: a cold seeded full-catalog campaign,
/// the paper's unit of work, at one and at min(4, nproc) threads.
/// replay_corpus: every curated path, explored once in setup, replayed
/// through Session::testPath — no concolic or solver work in a pass.
/// catalog_incremental: the daemon's submit path against a populated
/// ResultStore after a seeded 10% invalidation.
///
/// Every pass builds a fresh Session, so no compile or solver work is
/// served from an earlier pass; only the incremental store carries
/// state, and it is truncated back to its populated log before every
/// pass.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/ResultStore.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <filesystem>
#include <random>
#include <unistd.h>

using namespace igdtbench;

namespace {

/// Stage time of the fresh records of \p Summary, as the --profile
/// report states it: explore plus one test stage per compiler.
void stageTimes(const CampaignSummary &Summary,
                const std::vector<std::string> &Fresh, EvalkitSample &Out) {
  CampaignSummary Only;
  for (const InstructionRecord &R : Summary.Records)
    if (Fresh.empty() ||
        std::find(Fresh.begin(), Fresh.end(), R.Instruction) != Fresh.end())
      Only.Records.push_back(R);
  ProfileReport Profile = buildCampaignProfile(Only, /*TopN=*/1);
  for (const ProfileReport::Stage &S : Profile.Stages)
    Out.StageMillis += S.TotalMillis;
  if (!Profile.TopInstructions.empty())
    Out.CriticalMillis = Profile.TopInstructions.front().Millis;
}

std::vector<std::string> namesOf(const std::vector<const InstructionSpec *> &S) {
  std::vector<std::string> Names;
  for (const InstructionSpec *Spec : S)
    Names.push_back(Spec->Name);
  return Names;
}

/// Checks a campaign pass: the deterministic checkpoint and the
/// verdict view both equal the reference.
PassCheck checkCampaign(const CampaignSummary &Summary,
                        const SliceReference &Ref) {
  PassCheck C;
  std::vector<InstructionVerdicts> V = verdictsOf(Summary, C.Failed);
  C.Attempted = static_cast<unsigned>(Summary.Records.size());
  C.Verdicts = deliveredVerdicts(Summary.Records);
  C.Mismatch = Ref.compare(V, /*Whole=*/true);
  if (C.Mismatch.empty() && recordsDigest(Summary.Records) != Ref.RecordsDigest)
    C.Mismatch = "records differ from the reference checkpoint";
  return C;
}

class CatalogWorkload final : public Workload {
public:
  CatalogWorkload(const Slice &S, const SliceReference &Ref, unsigned Jobs)
      : Ref(Ref), Jobs(Jobs), Request(seededRequest(S, Jobs)),
        Cfg(Request.toSessionConfig()), Specs(sliceInstructions(S)) {}

  void pass() override { Summary = Session().runCampaign(Request); }

  PassCheck check() override { return checkCampaign(Summary, Ref); }

  LayerPassResult layerPass(bool Traced) override {
    return catalogLayerPass(Cfg, Specs, Jobs, Traced);
  }
  Counts expectedCounts() const override {
    return Ref.countsOf(namesOf(Specs));
  }
  std::string checkLayerVerdicts(const LayerPassResult &L) const override {
    return Ref.compare(L.Verdicts, /*Whole=*/true);
  }

  EvalkitSample evalkitPass(std::uint64_t) override {
    EvalkitSample E;
    E.Jobs = Jobs;
    Clock::time_point T0 = Clock::now();
    pass();
    E.WallMillis = millisBetween(T0, Clock::now());
    stageTimes(Summary, {}, E);
    return E;
  }

private:
  const SliceReference &Ref;
  unsigned Jobs;
  CampaignRequest Request;
  SessionConfig Cfg;
  std::vector<const InstructionSpec *> Specs;
  CampaignSummary Summary;
};

class ReplayWorkload final : public Workload {
public:
  ReplayWorkload(const Slice &S, const SliceReference &Ref)
      : Ref(Ref), Cfg(seededRequest(S, 1).toSessionConfig()),
        Specs(sliceInstructions(S)) {}

  void setup() override {
    Corpus.clear();
    Session Explorer(Cfg);
    for (const InstructionSpec *Spec : Specs)
      Corpus.push_back(Explorer.explore(*Spec));
  }

  void pass() override { replay(nullptr); }

  PassCheck check() override {
    PassCheck C;
    C.Attempted = static_cast<unsigned>(Corpus.size());
    C.Failed = Failed;
    C.Verdicts = Calls;
    C.Mismatch = Ref.compare(Verdicts, /*Whole=*/true);
    return C;
  }

  LayerPassResult layerPass(bool Traced) override {
    return replayLayerPass(Cfg, Corpus, Traced);
  }
  Counts expectedCounts() const override { return Ref.ReplayCounts; }
  std::string checkLayerVerdicts(const LayerPassResult &L) const override {
    return Ref.compare(L.Verdicts, /*Whole=*/true);
  }

  EvalkitSample evalkitPass(std::uint64_t) override {
    EvalkitSample E;
    Clock::time_point T0 = Clock::now();
    replay(&E);
    E.WallMillis = millisBetween(T0, Clock::now());
    return E;
  }

private:
  /// One pass; with \p Timing, every testPath call is timed as stage
  /// time and the slowest instruction's total is kept.
  void replay(EvalkitSample *Timing) {
    Verdicts.clear();
    Failed = 0;
    Calls = 0;
    Session S(Cfg);
    for (const ExplorationResult &R : Corpus) {
      InstructionVerdicts V = InstructionVerdicts::fromExploration(R);
      double InstructionMillis = 0;
      try {
        for (CompilerKind Kind : compilersFor(R.Spec->Kind)) {
          CompilerVerdicts CV;
          CV.Kind = Kind;
          for (std::size_t I = 0; I < R.Paths.size(); ++I) {
            if (!R.Paths[I].Curated)
              continue;
            Clock::time_point T0 = Timing ? Clock::now() : Clock::time_point();
            PathTestOutcome A = S.testPath(R, I, Kind, /*Arm=*/false);
            PathTestOutcome B = S.testPath(R, I, Kind, /*Arm=*/true);
            if (Timing)
              InstructionMillis += millisBetween(T0, Clock::now());
            Calls += 2;
            CV.add(A, B);
          }
          V.Compilers.push_back(std::move(CV));
        }
      } catch (const std::exception &) {
        ++Failed;
      }
      if (Timing) {
        Timing->StageMillis += InstructionMillis;
        Timing->CriticalMillis =
            std::max(Timing->CriticalMillis, InstructionMillis);
      }
      Verdicts.push_back(std::move(V));
    }
  }

  const SliceReference &Ref;
  SessionConfig Cfg;
  std::vector<const InstructionSpec *> Specs;
  std::vector<ExplorationResult> Corpus;
  std::vector<InstructionVerdicts> Verdicts;
  unsigned Failed = 0;
  std::uint64_t Calls = 0;
};

class IncrementalWorkload final : public Workload {
public:
  IncrementalWorkload(const Slice &S, const SliceReference &Ref,
                      std::uint64_t Seed, const std::string &WorkDir)
      : Ref(Ref), Request(seededRequest(S, 1)),
        Cfg(Request.toSessionConfig()), Specs(sliceInstructions(S)),
        Seed(Seed) {
    std::filesystem::create_directories(WorkDir);
    StorePath = formatString("%s/incremental-%ld.store", WorkDir.c_str(),
                             long(getpid()));
  }

  ~IncrementalWorkload() override {
    Store.reset();
    std::filesystem::remove(StorePath);
  }

  void setup() override {
    Store.reset();
    std::filesystem::remove(StorePath);
    {
      ResultStore Cold(StorePath);
      Session().runCampaign(Request, &Cold);
    }
    PopulatedBytes = std::filesystem::file_size(StorePath);
  }

  /// Restores the populated store and draws the instructions to
  /// invalidate. The store log is append-only, so a pass's tombstones
  /// and puts are undone by truncating it back to its populated length.
  /// Copying a 150 KB snapshot back before each of ~1,100 passes instead
  /// wrote ~170 MB per run, and pass times then rose run after run.
  void prepare(std::uint64_t Index) override {
    Store.reset();
    std::filesystem::resize_file(StorePath, PopulatedBytes);
    Store = std::make_unique<ResultStore>(StorePath);
    Drawn = draw(Index);
  }

  void pass() override { run(*Store); }

  PassCheck check() override {
    PassCheck C = checkCampaign(Summary, Ref);
    std::size_t Fresh = Drawn.size();
    if (C.Mismatch.empty() &&
        (Summary.StoreServed != Specs.size() - Fresh ||
         Summary.StoreStores != Fresh))
      C.Mismatch = formatString(
          "store served %u and stored %llu records, expected %zu and %zu",
          Summary.StoreServed,
          static_cast<unsigned long long>(Summary.StoreStores),
          Specs.size() - Fresh, Fresh);
    return C;
  }

  /// The explore/replay work of one pass: the instructions pass 0
  /// draws. Every layer pass of a run uses that draw, so counts repeat.
  LayerPassResult layerPass(bool Traced) override {
    if (LayerDraw.empty())
      LayerDraw = draw(0);
    std::vector<const InstructionSpec *> Fresh;
    for (const InstructionSpec *Spec : Specs)
      if (std::find(LayerDraw.begin(), LayerDraw.end(), Spec->Name) !=
          LayerDraw.end())
        Fresh.push_back(Spec);
    return catalogLayerPass(Cfg, Fresh, 1, Traced);
  }
  Counts expectedCounts() const override { return Ref.countsOf(LayerDraw); }
  std::string checkLayerVerdicts(const LayerPassResult &L) const override {
    if (L.Verdicts.size() != LayerDraw.size())
      return "layer pass covered the wrong instructions";
    return Ref.compare(L.Verdicts, /*Whole=*/false);
  }

  EvalkitSample evalkitPass(std::uint64_t Index) override {
    prepare(Index);
    TimingStore Timed(*Store);
    EvalkitSample E;
    Clock::time_point T0 = Clock::now();
    run(Timed);
    E.WallMillis = millisBetween(T0, Clock::now());
    stageTimes(Summary, Drawn, E);
    E.LookupMillis = Timed.LookupMillis;
    E.PutMillis = Timed.PutMillis;
    E.Lookups = Timed.Lookups;
    E.Hits = Timed.Hits;
    E.Puts = Timed.Puts;
    return E;
  }

private:
  /// The daemon's submit: invalidate the drawn instructions, then run
  /// the store-backed campaign.
  void run(VerdictStore &Backing) {
    for (const std::string &Name : Drawn)
      Store->invalidate(Name);
    Summary = Session().runCampaign(Request, &Backing);
  }

  /// The 10% draw of pass \p Index (at least one instruction).
  std::vector<std::string> draw(std::uint64_t Index) {
    std::seed_seq Mix{std::uint32_t(Seed), std::uint32_t(Seed >> 32),
                      std::uint32_t(Index), std::uint32_t(Index >> 32)};
    std::mt19937_64 Rng(Mix);
    std::vector<std::size_t> Order(Specs.size());
    for (std::size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::size_t K = std::max<std::size_t>(1, (Specs.size() + 5) / 10);
    for (std::size_t I = 0; I < K; ++I)
      std::swap(Order[I], Order[I + Rng() % (Order.size() - I)]);
    std::sort(Order.begin(), Order.begin() + K);
    std::vector<std::string> Names;
    for (std::size_t I = 0; I < K; ++I)
      Names.push_back(Specs[Order[I]]->Name);
    return Names;
  }

  const SliceReference &Ref;
  CampaignRequest Request;
  SessionConfig Cfg;
  std::vector<const InstructionSpec *> Specs;
  std::uint64_t Seed;
  std::string StorePath;
  std::uintmax_t PopulatedBytes = 0;
  std::unique_ptr<ResultStore> Store;
  std::vector<std::string> Drawn;
  std::vector<std::string> LayerDraw;
  CampaignSummary Summary;
};

} // namespace

std::unique_ptr<Workload> igdtbench::makeWorkload(const std::string &Name,
                                                  const Slice &S,
                                                  const SliceReference &Ref,
                                                  std::uint64_t Seed,
                                                  const std::string &WorkDir) {
  if (Name == "catalog_serial")
    return std::make_unique<CatalogWorkload>(S, Ref, 1);
  if (Name == "catalog_j4")
    return std::make_unique<CatalogWorkload>(S, Ref, parallelJobs());
  if (Name == "replay_corpus")
    return std::make_unique<ReplayWorkload>(S, Ref);
  if (Name == "catalog_incremental")
    return std::make_unique<IncrementalWorkload>(S, Ref, Seed, WorkDir);
  return nullptr;
}
