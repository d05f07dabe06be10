// End-to-end crash-recovery torture for checkpointed stream queries
// (chaos label).
//
// A reference run computes the exact report set an uninterrupted pipeline
// delivers. Then each scenario runs the same pipeline in a forked child
// over a persistent data dir and SIGKILLs it at a random point mid-stream;
// the next child recovers from the latest complete epoch, replays the
// broker-backed connectors from their checkpointed offsets, and keeps
// going. Checkpoint-persistence failpoints (checkpoint.write /
// checkpoint.rename) are armed with a small error probability so some
// epochs fail and recovery has to fall back to an older complete one.
//
// When a child finally runs to completion, the invariant is exact:
// the durable report set (keys AND encoded values) must equal the
// uninterrupted reference — no lost reports, no duplicates, no reports
// built from replayed-but-different tuples. That is effectively-once,
// end to end, under kill -9.
//
// Iterations default to 50; override with STRATA_TORTURE_ITERS.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "common/codec.hpp"
#include "common/fs.hpp"
#include "fault/failpoint.hpp"
#include "kvstore/db.hpp"
#include "strata/strata.hpp"

namespace strata::core {
namespace {

using namespace std::chrono_literals;

int TortureIterations() {
  if (const char* env = std::getenv("STRATA_TORTURE_ITERS"); env != nullptr) {
    return std::max(1, std::atoi(env));
  }
  return 50;
}

constexpr int kChildDone = 0;
constexpr int kChildFailed = 3;

/// Tuples the generator emits per scenario. At ~1ms each the child needs
/// roughly half a second of steady progress, so the 50-450ms kill window
/// below always lands mid-stream on a fresh directory.
constexpr std::int64_t kTotalTuples = 400;

/// Keyed per-window severity count with snapshot codecs, so the sharded
/// aggregate's state rides the epoch checkpoints and survives re-hashing.
spe::AggregateSpec SeverityCountSpec() {
  using Acc = std::pair<std::string, std::int64_t>;  // (severity, count)
  spe::AggregateSpec spec;
  spec.window = {100, 100};
  spec.key = [](const spe::Tuple& t) {
    return std::to_string(t.payload.Get("severity").AsInt());
  };
  spec.init = [] { return std::any(Acc{}); };
  spec.add = [](std::any& acc, const spe::Tuple& t) {
    auto& a = std::any_cast<Acc&>(acc);
    a.first = std::to_string(t.payload.Get("severity").AsInt());
    ++a.second;
  };
  spec.result = [](std::any& acc, Timestamp start,
                   Timestamp /*end*/) -> std::vector<spe::Tuple> {
    const auto& a = std::any_cast<const Acc&>(acc);
    spe::Tuple out;
    out.payload.Set("group", a.first);
    out.payload.Set("count", a.second);
    out.payload.Set("window_start", start);
    return {out};
  };
  spec.encode_acc = [](const std::any& acc, std::string* out) {
    const auto& a = std::any_cast<const Acc&>(acc);
    codec::PutLengthPrefixed(out, a.first);
    codec::PutVarint64Signed(out, a.second);
    return Status::Ok();
  };
  spec.decode_acc = [](std::string_view in) -> Result<std::any> {
    Acc a;
    std::string_view group;
    std::int64_t count = 0;
    if (!codec::GetLengthPrefixed(&in, &group) ||
        !codec::GetVarint64Signed(&in, &count) || !in.empty()) {
      return Status::Corruption("severity count accumulator");
    }
    a.first = std::string(group);
    a.second = count;
    return std::any(a);
  };
  return spec;
}

/// Build the checkpointed pipeline on `strata`. Deterministic in the
/// generator position, so every (partial or complete) run delivers a
/// prefix-consistent subset of the same report set. `emit_delay` stretches
/// the run so the parent's kill lands mid-stream; zero for the reference.
///
/// Shape: gen -> detect -> enrich (a fusable stateless chain) -> tee;
/// one branch delivers per-tuple reports, the other runs a keyed
/// 2-shard severity-count aggregate delivered under "counts/". The fused
/// detect -> enrich worker forwards barriers, so this exercises fused
/// barriers and per-shard snapshot replay under kill -9.
///
/// `die_in_detect` makes the life SIGKILL itself inside `detect` on its
/// first tuple, after a pause in which the generator publishes everything:
/// it dies before any checkpoint, with published records still unpolled.
void BuildPipeline(Strata* strata, std::chrono::microseconds emit_delay,
                   bool die_in_detect = false) {
  auto position = std::make_shared<std::int64_t>(0);
  auto stream = strata->AddSource(
      "gen", [position, emit_delay]() -> std::optional<spe::Tuple> {
        if (*position >= kTotalTuples) return std::nullopt;
        if (emit_delay.count() > 0) std::this_thread::sleep_for(emit_delay);
        spe::Tuple t;
        t.job = 1;
        t.layer = *position;
        t.event_time = *position + 1;
        // Nonzero so the source does not stamp wall-clock arrival time:
        // report values must be bit-identical across replays.
        t.stimulus = *position + 1;
        t.payload.Set("reading", *position * 3);
        ++*position;
        return t;
      });
  auto detected = strata->DetectEvent(
      "detect", std::move(stream), [die_in_detect](const spe::Tuple& t) {
        if (die_in_detect) {
          std::this_thread::sleep_for(300ms);
          ::kill(::getpid(), SIGKILL);
        }
        spe::Tuple out;
        out.payload.Set("severity",
                        t.payload.Get("reading").AsInt() % 7);
        return std::vector<spe::Tuple>{out};
      });
  auto enriched = strata->DetectEvent(
      "enrich", std::move(detected), [](const spe::Tuple& t) {
        spe::Tuple out = t;
        out.payload.Set("flag", t.payload.Get("severity").AsInt() % 2);
        return std::vector<spe::Tuple>{out};
      });
  auto branches = strata->Split("tee", std::move(enriched), 2);
  strata->DeliverDurable("reports", std::move(branches[0]), "reports/",
                         [](const spe::Tuple& t) {
                           return std::to_string(t.layer);
                         });
  auto counted = strata->query().AddAggregate(
      "sevcount", std::move(branches[1]), SeverityCountSpec(),
      /*parallelism=*/2);
  strata->DeliverDurable(
      "counts", std::move(counted), "counts/", [](const spe::Tuple& t) {
        return t.payload.Get("group").AsString() + "/" +
               std::to_string(t.payload.Get("window_start").AsInt());
      });
  // The generator's only state is its position; checkpointing it is what
  // lets a recovered run resume mid-stream instead of starting over.
  strata->query().FindOperator("gen")->SetStateHooks(
      [position](std::uint64_t, std::string* out) {
        codec::PutVarint64(out, static_cast<std::uint64_t>(*position));
        return Status::Ok();
      },
      [position](std::string_view blob) {
        std::uint64_t value = 0;
        if (!codec::GetVarint64(&blob, &value)) {
          return Status::Corruption("gen snapshot");
        }
        *position = static_cast<std::int64_t>(value);
        return Status::Ok();
      });
}

StrataOptions ScenarioOptions(const std::filesystem::path& dir) {
  StrataOptions options;
  options.data_dir = dir;
  options.persistent_connectors = true;
  options.connector_partitions = 1;
  options.checkpoint_interval_ms = 50;
  return options;
}

/// The durable report set at `dir`, read straight from the on-disk kv
/// store (no Strata instance: this is what an operator would see after
/// the process is gone).
std::map<std::string, std::string> ReadReports(
    const std::filesystem::path& dir) {
  auto db = kv::DB::Open(dir / "kv", {});
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return {};
  std::map<std::string, std::string> reports;
  auto it = (*db)->NewIterator();
  for (const std::string_view prefix : {"counts/", "reports/"}) {
    for (it->Seek(prefix); it->Valid(); it->Next()) {
      const std::string_view key = it->key();
      if (key.substr(0, prefix.size()) != prefix) break;
      reports.emplace(std::string(key), std::string(it->value()));
    }
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  return reports;
}

/// Run the pipeline to completion in a forked child. With checkpoint
/// failpoints armed, some epochs fail to persist (recovery then falls
/// back); the SIGKILL comes from the parent, not from in here.
pid_t SpawnChild(const std::filesystem::path& dir, int iteration,
                 bool arm_failpoints) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  {
    Strata strata(ScenarioOptions(dir));
    BuildPipeline(&strata, /*emit_delay=*/1000us);
    if (arm_failpoints) {
      fault::SeedRng(static_cast<std::uint64_t>(iteration) * 7919u + 1u);
      fault::Activate("checkpoint.write",
                      fault::Action{fault::ActionKind::kError, 0, 0.1, -1});
      fault::Activate("checkpoint.rename",
                      fault::Action{fault::ActionKind::kError, 0, 0.1, -1});
    }
    strata.Deploy();  // recovers from the latest complete epoch first
    strata.WaitForCompletion();
    strata.Shutdown();
  }
  std::_Exit(kChildDone);
}

/// The report set of the same pipeline, uninterrupted, on a pristine dir.
std::map<std::string, std::string> ReferenceReports() {
  strata::fs::ScopedTempDir ref_dir("query-torture-ref");
  {
    Strata strata(ScenarioOptions(ref_dir.path()));
    BuildPipeline(&strata, /*emit_delay=*/0us);
    strata.Deploy();
    strata.WaitForCompletion();
    strata.Shutdown();
  }
  return ReadReports(ref_dir.path());
}

TEST(QueryTortureTest, RecoveredQueryDeliversExactlyTheReferenceReports) {
  const int iterations = TortureIterations();

  const std::map<std::string, std::string> reference = ReferenceReports();
  // 400 per-tuple reports plus at least one count window per severity.
  ASSERT_GT(reference.size(), static_cast<std::size_t>(kTotalTuples) + 6);

  // ---- scenarios: kill, recover, kill again ... until a clean finish ----
  auto dir = std::make_unique<strata::fs::ScopedTempDir>("query-torture");
  int kills = 0;
  int completed_scenarios = 0;
  int lives = 0;  // child launches in the current scenario
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };

  auto finish_scenario = [&](int iteration) {
    EXPECT_EQ(ReadReports(dir->path()), reference)
        << "iteration " << iteration << ": recovered run (" << lives
        << " lives) diverged from the uninterrupted reference";
    ++completed_scenarios;
    lives = 0;
    dir = std::make_unique<strata::fs::ScopedTempDir>("query-torture");
  };

  for (int iteration = 0; iteration < iterations; ++iteration) {
    const pid_t pid = SpawnChild(dir->path(), iteration,
                                 /*arm_failpoints=*/true);
    ASSERT_GE(pid, 0) << "fork failed";
    ++lives;

    std::this_thread::sleep_for(
        std::chrono::milliseconds(50 + next() % 400));
    int status = 0;
    pid_t reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == 0) {
      ASSERT_EQ(::kill(pid, SIGKILL), 0);
      reaped = ::waitpid(pid, &status, 0);
    }
    ASSERT_EQ(reaped, pid);

    if (WIFSIGNALED(status)) {
      // Only our own SIGKILL is an acceptable violent death; an abort or
      // segfault inside recovery is exactly the kind of bug this hunts.
      ASSERT_EQ(WTERMSIG(status), SIGKILL)
          << "iteration " << iteration << ": child died of signal "
          << WTERMSIG(status);
      ++kills;
      continue;  // next iteration recovers from this directory
    }
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == kChildDone)
        << "iteration " << iteration << ": child exited with "
        << WEXITSTATUS(status);
    finish_scenario(iteration);
  }

  // The last scenario may still be mid-flight; force one uninterrupted
  // run (no failpoints) so its directory also reaches the invariant.
  if (lives > 0) {
    const pid_t pid = SpawnChild(dir->path(), iterations,
                                 /*arm_failpoints=*/false);
    ASSERT_GE(pid, 0) << "fork failed";
    ++lives;
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == kChildDone)
        << "final run exited with status " << status;
    finish_scenario(iterations);
  }

  RecordProperty("kills", kills);
  RecordProperty("completed_scenarios", completed_scenarios);
  EXPECT_GT(kills, 0) << "no child was ever killed mid-run; timing inert?";
  EXPECT_GT(completed_scenarios, 0)
      << "no scenario ever completed; recovery may not be making progress";
}

// A life that dies before its first checkpoint leaves records it published
// but never polled. The next life starts fresh (no committed epoch), so its
// subscriber must replay the topic from the log start: were it to resume at
// the offset the dead life's consumer group reached, the records below it
// would never reach the pipeline, and the restarted publisher's copies of
// them are dropped as duplicates of the dead life's records above it.
TEST(QueryTortureTest, FreshLifeReplaysRecordsTheDeadLifeLeftUnpolled) {
  const std::map<std::string, std::string> reference = ReferenceReports();
  for (int trial = 0; trial < 3; ++trial) {
    strata::fs::ScopedTempDir dir("query-torture-unpolled");
    const pid_t dying = ::fork();
    ASSERT_GE(dying, 0) << "fork failed";
    if (dying == 0) {
      // A short queue: once detect stalls, the subscriber blocks on
      // back-pressure after its first poll, so the rest of the topic stays
      // published but unpolled.
      StrataOptions options = ScenarioOptions(dir.path());
      options.query.queue_capacity = 16;
      Strata strata(options);
      BuildPipeline(&strata, /*emit_delay=*/0us, /*die_in_detect=*/true);
      strata.Deploy();
      strata.WaitForCompletion();
      std::_Exit(kChildFailed);  // unreachable: detect kills the process
    }
    int status = 0;
    ASSERT_EQ(::waitpid(dying, &status, 0), dying);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "trial " << trial << ": the dying life exited with " << status;

    const pid_t clean = SpawnChild(dir.path(), trial,
                                   /*arm_failpoints=*/false);
    ASSERT_GE(clean, 0) << "fork failed";
    ASSERT_EQ(::waitpid(clean, &status, 0), clean);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == kChildDone)
        << "trial " << trial << ": the clean life exited with " << status;
    const std::map<std::string, std::string> reports = ReadReports(dir.path());
    EXPECT_TRUE(reports == reference)
        << "trial " << trial << ": " << reports.size()
        << " reports, the uninterrupted reference has " << reference.size();
  }
}

}  // namespace
}  // namespace strata::core
