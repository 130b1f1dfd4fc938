// The library readers are the artifact schemas: each one must reject every
// corruption of a real document, naming the field it tripped on. One table
// per schema, each mutating a real document — an lktm-sim style run
// artifact, the `lktm_sweep plan --preset smoke` manifest and a committed
// bigcores summary — and each mutation must throw.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/artifact.hpp"
#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/systems.hpp"
#include "stats/json.hpp"
#include "workloads/micro.hpp"

namespace lktm::test {
namespace {

namespace json = stats::json;
using json::Value;

struct Mutation {
  const char* name;
  std::function<void(Value& doc)> mutate;
  const char* expectInError;  ///< the field the reader's message must name
};

Value literal(const std::string& text) { return json::parse(text); }

Value& member(Value& obj, const std::string& key) {
  const auto it = obj.object->find(key);
  if (it == obj.object->end()) throw std::logic_error("fixture lacks \"" + key + "\"");
  return it->second;
}

Value& run0(Value& doc) { return member(doc, "runs").array->at(0); }

Value& statAt(Value& run, const std::string& path) {
  for (Value& e : *member(run, "stats").array) {
    if (e.find("path")->text == path) return e;
  }
  throw std::logic_error("fixture lacks stat " + path);
}

/// Apply each mutation to a fresh parse of `base` and require `read` to
/// throw a std::runtime_error that names the mutated field. The unmutated
/// document must read cleanly.
void expectEachRejected(const std::string& base, const std::vector<Mutation>& table,
                        const std::function<void(const Value&)>& read) {
  ASSERT_NO_THROW(read(json::parse(base)));
  for (const Mutation& m : table) {
    Value doc = json::parse(base);
    m.mutate(doc);
    try {
      read(doc);
      ADD_FAILURE() << m.name << ": accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(m.expectInError), std::string::npos)
          << m.name << ": \"" << e.what() << "\" does not name " << m.expectInError;
    }
  }
}

/// The run `lktm-sim --system LockillerTM --workload counter --threads 4`
/// makes, and below, the artifact its --stats-json writes (wall_seconds
/// aside).
cfg::RunResult counterRun() {
  cfg::RunConfig rc;
  rc.system = cfg::systemByName("LockillerTM");
  rc.threads = 4;
  return cfg::runSimulation(rc, [] { return wl::makeCounter(4, 2, 256, 11); });
}

std::string counterArtifact() {
  std::ostringstream os;
  cfg::writeStatsJson(os, counterRun());
  return os.str();
}

TEST(SchemaReader, StatsArtifactRejectsEachCorruption) {
  const std::string base = counterArtifact();
  {
    Value doc = json::parse(base);
    const Value& lat = *run0(doc).find("derived")->find("commit_latency");
    ASSERT_NE(lat.find("p99")->text, lat.find("p999")->text);  // the p99 case bites
  }
  const auto setRun = [](const char* key, const char* text) {
    return [=](Value& doc) { member(run0(doc), key) = literal(text); };
  };
  const auto setDerived = [](const char* key, const char* text) {
    return [=](Value& doc) { member(member(run0(doc), "derived"), key) = literal(text); };
  };
  const std::vector<Mutation> table = {
      {"p99 hand-set to p999",
       [](Value& doc) {
         Value& lat = member(member(run0(doc), "derived"), "commit_latency");
         member(lat, "p99") = member(lat, "p999");
       },
       "commit_latency.p99"},
      {"p99 = p999 and total_commits 123456",
       [](Value& doc) {
         Value& derived = member(run0(doc), "derived");
         Value& lat = member(derived, "commit_latency");
         member(lat, "p99") = member(lat, "p999");
         member(derived, "total_commits") = literal("123456");
       },
       "\"total_commits\""},
      {"one htm commit relabelled as a lock commit (total unchanged)",
       [](Value& doc) {
         Value& derived = member(run0(doc), "derived");
         member(derived, "htm_commits") =
             literal(std::to_string(json::asU64(*derived.find("htm_commits")) - 1));
         member(derived, "lock_commits") =
             literal(std::to_string(json::asU64(*derived.find("lock_commits")) + 1));
       },
       "\"htm_commits\""},
      {"percentiles descend",
       [](Value& doc) {
         member(member(member(run0(doc), "derived"), "commit_latency"), "p50") =
             literal("99999999");
       },
       "monotone"},
      {"commit_rate a string", setDerived("commit_rate", "\"0.5\""), "\"commit_rate\""},
      {"bucket index 5000",
       [](Value& doc) {
         Value& buckets = member(statAt(run0(doc), "core.0.latency.commit"), "buckets");
         buckets.array->back().array->at(0) = literal("5000");
       },
       "bucket index 5000"},
      {"bucket indices descend",
       [](Value& doc) {
         Value& buckets = member(statAt(run0(doc), "core.0.latency.commit"), "buckets");
         std::swap(buckets.array->front(), buckets.array->back());
       },
       "core.0.latency.commit"},
      {"seed -1", setRun("seed", "-1"), "\"seed\""},
      {"seed 2^64", setRun("seed", "18446744073709551616"), "\"seed\""},
      {"cycles 1e30", setRun("cycles", "1e30"), "\"cycles\""},
      {"cycles 2.5", setRun("cycles", "2.5"), "\"cycles\""},
      {"threads -3", setRun("threads", "-3"), "\"threads\""},
      {"threads above cores", setRun("threads", "4096"), "threads (4096) exceed cores"},
      {"banks 0", setRun("banks", "0"), "banks"},
      {"unknown status", setRun("status", "\"exploded\""), "status"},
      {"unknown backend", setRun("backend", "\"vaporware\""), "backend"},
      {"missing backend",
       [](Value& doc) { run0(doc).object->erase("backend"); }, "\"backend\""},
      {"ok true with violations",
       [](Value& doc) {
         member(run0(doc), "violations").array->push_back(literal("\"lost update\""));
       },
       "\"ok\""},
      {"system a number", setRun("system", "5"), "\"system\""},
      {"unsorted stat paths",
       [](Value& doc) {
         auto& stats = *member(run0(doc), "stats").array;
         std::swap(stats[0], stats[1]);
       },
       "path-sorted"},
      {"duplicate stat path",
       [](Value& doc) {
         auto& stats = *member(run0(doc), "stats").array;
         stats[1] = stats[0];
       },
       "path-sorted"},
      {"counter value negative",
       [](Value& doc) {
         for (Value& e : *member(run0(doc), "stats").array) {
           if (e.find("kind")->text == "counter") {
             member(e, "value") = literal("-1");
             return;
           }
         }
       },
       "\"value\""},
      {"unknown stat kind",
       [](Value& doc) {
         member(member(run0(doc), "stats").array->at(0), "kind") = literal("\"gauge\"");
       },
       "unknown kind"},
      {"histogram relabelled distribution",
       [](Value& doc) {
         member(statAt(run0(doc), "dir.waitq.depth"), "kind") = literal("\"distribution\"");
       },
       "unknown kind"},
      {"counter relabelled formula",
       [](Value& doc) {
         member(statAt(run0(doc), "noc.messages"), "kind") = literal("\"formula\"");
       },
       "unknown kind"},
      {"empty runs", [](Value& doc) { member(doc, "runs").array->clear(); }, "\"runs\""},
  };
  expectEachRejected(base, table, [](const Value& doc) { cfg::statsRunsFromJson(doc); });
}

TEST(SchemaReader, SmokeManifestRejectsEachCorruption) {
  // The document `lktm_sweep plan --preset smoke` writes.
  const std::string base =
      cfg::makeManifest("sweep.json.d", "typical", {"Baseline", "LockillerTM"},
                        {"counter", "bank"}, {2, 4})
          .toJson();
  const auto setJob = [](const char* key, const char* text) {
    return [=](Value& doc) { member(member(doc, "jobs").array->at(0), key) = literal(text); };
  };
  const std::vector<Mutation> table = {
      {"threads -1", setJob("threads", "-1"), "\"threads\""},
      {"threads 2^32", setJob("threads", "4294967296"), "\"threads\""},
      {"seed 1e30", setJob("seed", "1e30"), "\"seed\""},
      {"system a number", setJob("system", "5"), "\"system\""},
      {"attempts 2.5", setJob("attempts", "2.5"), "\"attempts\""},
      {"id disagrees with its fields", setJob("id", "\"Baseline/counter/typical@3#11\""),
       "\"id\""},
      {"unknown state", setJob("state", "\"exploded\""), "state"},
      {"ok without an artifact", setJob("state", "\"ok\""), "\"artifact\""},
      {"wall_seconds a string", setJob("wall_seconds", "\"1s\""), "\"wall_seconds\""},
      {"a lktm.manifest.v2 document",
       [](Value& doc) { member(doc, "schema") = literal("\"lktm.manifest.v2\""); },
       "lktm.manifest.v3"},
      {"artifact_dir a number",
       [](Value& doc) { member(doc, "artifact_dir") = literal("7"); }, "\"artifact_dir\""},
      {"duplicate job",
       [](Value& doc) {
         auto& jobs = *member(doc, "jobs").array;
         jobs[1] = jobs[0];
       },
       "duplicate job id"},
  };
  expectEachRejected(base, table, [](const Value& doc) { cfg::SweepManifest::fromJson(doc); });
}

TEST(SchemaReader, CommittedSummaryRejectsEachCorruption) {
  const std::string base =
      cfg::readFile(LKTM_SOURCE_DIR "/bench/bigcores/fig07_bigcores_128_summary.json");
  const auto setLatency = [](const char* key, const char* text) {
    return [=](Value& doc) {
      member(member(member(run0(doc), "derived"), "commit_latency"), key) = literal(text);
    };
  };
  const std::vector<Mutation> table = {
      {"p99 below p90", setLatency("p99", "1"), "percentiles not monotone at \"p99\""},
      {"p999 below p99", setLatency("p999", "1"), "percentiles not monotone at \"p999\""},
      {"percentiles on an empty histogram", setLatency("count", "0"), "count == 0"},
      {"total_commits not the sum",
       [](Value& doc) {
         member(member(run0(doc), "derived"), "total_commits") = literal("123456");
       },
       "\"total_commits\""},
      {"seed -1", [](Value& doc) { member(run0(doc), "seed") = literal("-1"); }, "\"seed\""},
      {"threads above cores",
       [](Value& doc) { member(run0(doc), "threads") = literal("129"); }, "exceed cores"},
      {"unknown status",
       [](Value& doc) { member(run0(doc), "status") = literal("\"exploded\""); }, "status"},
      {"missing derived", [](Value& doc) { run0(doc).object->erase("derived"); },
       "\"derived\""},
      {"wrong source",
       [](Value& doc) { member(doc, "source") = literal("\"lktm.stats.v0\""); },
       "\"source\""},
  };
  expectEachRejected(base, table, [](const Value& doc) { cfg::summaryRunsFromJson(doc); });
}

TEST(SchemaReader, SummaryDerivedBlockIsTheStatsOne) {
  // The summary reader parses the same DerivedMetrics the stats writer
  // derives: condensing an artifact keeps the block value-for-value.
  const std::string artifact = counterArtifact();
  const cfg::RunResult run = cfg::statsRunsFromJson(json::parse(artifact)).front();
  std::ostringstream summary;
  cfg::writeSummaryArtifact(json::parse(artifact), summary);
  const std::vector<cfg::SummaryRun> runs = cfg::summaryRunsFromJson(json::parse(summary.str()));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].derived, cfg::DerivedMetrics::of(run));
  EXPECT_EQ(runs[0].run.seed, run.seed);
  EXPECT_EQ(runs[0].run.cycles, run.cycles);
}

TEST(SchemaReader, SummaryOfAMalformedRunThrows) {
  // The summary writer reads every run with the summary-run reader before it
  // writes a byte: a malformed run throws naming its field instead of being
  // dropped or copied into a summary that the summary reader rejects.
  const cfg::RunResult r = counterRun();
  std::ostringstream twoRuns;
  cfg::writeStatsJson(twoRuns, 2, [&r](std::size_t) -> const cfg::RunResult& { return r; });
  const std::vector<Mutation> table = {
      {"second run lacks cycles",
       [](Value& doc) { member(doc, "runs").array->at(1).object->erase("cycles"); },
       "runs[1]: missing \"cycles\""},
      {"second run not an object",
       [](Value& doc) { member(doc, "runs").array->at(1) = literal("7"); },
       "runs[1]: run entry is not an object"},
      {"p99 a string",
       [](Value& doc) {
         member(member(member(run0(doc), "derived"), "commit_latency"), "p99") =
             literal("\"447\"");
       },
       "\"p99\""},
      {"a lktm.summary.v1 input",
       [](Value& doc) { member(doc, "schema") = literal("\"lktm.summary.v1\""); },
       "not a lktm.stats.v1 document"},
  };
  expectEachRejected(twoRuns.str(), table, [](const Value& doc) {
    std::ostringstream summary;
    cfg::writeSummaryArtifact(doc, summary);
    ASSERT_EQ(cfg::summaryRunsFromJson(json::parse(summary.str())).size(), 2u);
  });
}

}  // namespace
}  // namespace lktm::test
