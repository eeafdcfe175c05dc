// CLI flag compatibility: the pairwise {--replicas, --shards, --trace,
// --timeseries, --flight} rules live in one table (options.cpp) consumed
// by both run_workload's rejection path and `gputn config`'s rendered
// matrix. This test drives every pair through flag_conflict and pins the
// rendered matrix so a new rule cannot land in one place only.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "obs/timeseries.hpp"
#include "sim/trace.hpp"
#include "workloads/options.hpp"
#include "workloads/registry.hpp"

namespace gputn::workloads {
namespace {

ActiveFlags make(bool replicas, bool shards, bool trace, bool timeseries,
                 bool flight) {
  ActiveFlags f;
  f.replicas = replicas;
  f.shards = shards;
  f.trace = trace;
  f.timeseries = timeseries;
  f.flight = flight;
  return f;
}

struct PairCase {
  ActiveFlags flags;
  bool ok;
  const char* a;  // expected names in the rejection message
  const char* b;
};

TEST(FlagMatrix, EveryPairMatchesTheTable) {
  const PairCase cases[] = {
      {make(true, true, false, false, false), false, "--replicas", "--shards"},
      {make(true, false, true, false, false), false, "--replicas", "--trace"},
      {make(true, false, false, true, false), false, "--replicas",
       "--timeseries"},
      {make(true, false, false, false, true), true, "", ""},
      {make(false, true, true, false, false), false, "--shards", "--trace"},
      {make(false, true, false, true, false), false, "--shards",
       "--timeseries"},
      {make(false, true, false, false, true), true, "", ""},
      {make(false, false, true, true, false), true, "", ""},
      {make(false, false, true, false, true), true, "", ""},
      {make(false, false, false, true, true), true, "", ""},
  };
  for (const PairCase& c : cases) {
    std::string msg = flag_conflict(c.flags);
    if (c.ok) {
      EXPECT_TRUE(msg.empty()) << msg;
    } else {
      ASSERT_FALSE(msg.empty()) << c.a << " + " << c.b;
      EXPECT_NE(msg.find(c.a), std::string::npos) << msg;
      EXPECT_NE(msg.find(c.b), std::string::npos) << msg;
      EXPECT_NE(msg.find("cannot be combined with"), std::string::npos) << msg;
      // The why-clause is part of the message: users see the reason, not
      // just the verdict.
      EXPECT_NE(msg.find('('), std::string::npos) << msg;
    }
  }
}

TEST(FlagMatrix, SingleFlagsAndEmptyAreAlwaysFine) {
  EXPECT_TRUE(flag_conflict(ActiveFlags{}).empty());
  EXPECT_TRUE(flag_conflict(make(true, false, false, false, false)).empty());
  EXPECT_TRUE(flag_conflict(make(false, true, false, false, false)).empty());
  EXPECT_TRUE(flag_conflict(make(false, false, true, false, false)).empty());
  EXPECT_TRUE(flag_conflict(make(false, false, false, true, false)).empty());
  EXPECT_TRUE(flag_conflict(make(false, false, false, false, true)).empty());
}

TEST(FlagMatrix, FirstListedConflictWins) {
  // With several conflicting pairs active the message names the first rule
  // in table order — deterministic, so scripts can match on it.
  std::string msg = flag_conflict(make(true, true, true, false, false));
  EXPECT_NE(msg.find("--replicas"), std::string::npos);
  EXPECT_NE(msg.find("--shards"), std::string::npos);
}

TEST(FlagMatrix, RenderedMatrixAgreesWithTheRules) {
  const std::string m = flag_matrix();
  // Header plus one row per flag, every flag named.
  for (const char* f :
       {"--replicas", "--shards", "--trace", "--timeseries", "--flight"}) {
    EXPECT_NE(m.find(f), std::string::npos) << f;
  }
  // Spot-check cells through the rule set: replicas+shards is "no",
  // timeseries+flight is "ok", and the reasons for every rejected pair are
  // listed under the grid.
  EXPECT_NE(m.find("no"), std::string::npos);
  EXPECT_NE(m.find("ok"), std::string::npos);
  EXPECT_NE(m.find("oversubscribe"), std::string::npos);
  EXPECT_NE(m.find("unsynchronized"), std::string::npos);
  // Exactly 5 "no" cells x 2 (symmetric grid): count occurrences of the
  // cell token bounded by spaces to avoid matching words.
  int no_cells = 0;
  for (std::size_t p = m.find("no "); p != std::string::npos;
       p = m.find("no ", p + 1)) {
    ++no_cells;
  }
  EXPECT_GE(no_cells, 10);
}

TEST(FlagMatrix, EveryWorkloadRejectsShardedUnsynchronizedObservers) {
  // make_config reads the same table: every registered workload refuses
  // --shards > 1 with --trace or --timeseries before building a cluster,
  // and the message names both flags.
  Registry reg;
  register_builtin_workloads(reg);
  sim::TraceRecorder trace;
  obs::TimeSeries ts(sim::us(1));
  for (const WorkloadEntry& e : reg.entries()) {
    RunOptions traced;
    traced.shards = 2;
    traced.trace = &trace;
    RunOptions sampled;
    sampled.shards = 2;
    sampled.timeseries = &ts;
    for (const auto& [opts, flag] :
         {std::pair{traced, "--trace"}, std::pair{sampled, "--timeseries"}}) {
      try {
        e.run(opts, WorkloadParams{}, cluster::SystemConfig::table2());
        ADD_FAILURE() << e.name << " accepted --shards 2 with " << flag;
      } catch (const std::invalid_argument& ex) {
        std::string msg = ex.what();
        EXPECT_NE(msg.find("--shards"), std::string::npos) << e.name << msg;
        EXPECT_NE(msg.find(flag), std::string::npos) << e.name << msg;
      }
    }
  }
}

}  // namespace
}  // namespace gputn::workloads
