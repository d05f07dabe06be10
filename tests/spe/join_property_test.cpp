// Property test: the streaming Join must produce exactly the pairs the
// brute-force definition dictates — for every (l, r) with equal keys,
// |τ_l − τ_r| <= WS, and predicate true — across random time-ordered
// streams, window sizes, and key cardinalities.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "spe/replay_source.hpp"
#include "spe_test_util.hpp"

namespace strata::spe {
namespace {

using testutil::Collector;

struct JoinCase {
  int left_count;
  int right_count;
  Timestamp window;
  int key_cardinality;  // 0 = no key fn
  Timestamp max_gap;    // max inter-arrival gap per stream
  std::uint64_t seed;
};

std::string PrintCase(const ::testing::TestParamInfo<JoinCase>& info) {
  const JoinCase& c = info.param;
  return std::string("l")
      .append(std::to_string(c.left_count))
      .append("_r")
      .append(std::to_string(c.right_count))
      .append("_w")
      .append(std::to_string(c.window))
      .append("_k")
      .append(std::to_string(c.key_cardinality))
      .append("_g")
      .append(std::to_string(c.max_gap))
      .append("_s")
      .append(std::to_string(c.seed));
}

std::vector<Tuple> RandomStream(Rng& rng, int count, int key_cardinality,
                                Timestamp max_gap, const char* id_key) {
  std::vector<Tuple> tuples;
  Timestamp t = 0;
  for (int i = 0; i < count; ++i) {
    t += rng.UniformInt(0, max_gap);
    Tuple tuple;
    tuple.event_time = t;
    tuple.job = key_cardinality > 0 ? rng.UniformInt(0, key_cardinality - 1)
                                    : 0;
    tuple.payload.Set(id_key, i);
    tuples.push_back(tuple);
  }
  return tuples;
}

class JoinPropertyTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(JoinPropertyTest, MatchesBruteForceOracle) {
  const JoinCase& c = GetParam();
  Rng rng(c.seed);
  const auto lefts = RandomStream(rng, c.left_count, c.key_cardinality,
                                  c.max_gap, "lid");
  const auto rights = RandomStream(rng, c.right_count, c.key_cardinality,
                                   c.max_gap, "rid");

  // Oracle.
  std::multiset<std::pair<int, int>> expected;
  for (const Tuple& l : lefts) {
    for (const Tuple& r : rights) {
      if (c.key_cardinality > 0 && l.job != r.job) continue;
      const Timestamp dt = l.event_time - r.event_time;
      if (dt > c.window || dt < -c.window) continue;
      expected.insert({static_cast<int>(l.payload.Get("lid").AsInt()),
                       static_cast<int>(r.payload.Get("rid").AsInt())});
    }
  }

  Query query;
  auto left = query.AddSource("L", VectorSource(lefts));
  auto right = query.AddSource("R", VectorSource(rights));
  JoinSpec spec;
  spec.window = c.window;
  if (c.key_cardinality > 0) {
    spec.key_left = [](const Tuple& t) { return std::to_string(t.job); };
    spec.key_right = [](const Tuple& t) { return std::to_string(t.job); };
  }
  spec.combine = [](const Tuple& l, const Tuple& r) {
    Payload p;
    p.Set("lid", l.payload.Get("lid"));
    p.Set("rid", r.payload.Get("rid"));
    return p;
  };
  auto joined = query.AddJoin("join", left, right, spec);
  Collector collector;
  query.AddSink("sink", joined, collector.AsSink());
  query.Run();

  std::multiset<std::pair<int, int>> actual;
  for (const Tuple& t : collector.tuples()) {
    actual.insert({static_cast<int>(t.payload.Get("lid").AsInt()),
                   static_cast<int>(t.payload.Get("rid").AsInt())});
  }
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinPropertyTest,
    ::testing::Values(JoinCase{200, 200, 0, 0, 3, 21},
                      JoinCase{200, 200, 10, 0, 3, 22},
                      JoinCase{300, 300, 100, 4, 5, 23},
                      JoinCase{150, 400, 50, 2, 8, 24},
                      JoinCase{400, 150, 5, 8, 2, 25},
                      JoinCase{100, 100, 1000, 1, 4, 26},  // everything joins
                      JoinCase{250, 250, 1, 3, 1, 27},     // dense ties
                      JoinCase{50, 0, 10, 0, 3, 28},       // empty right
                      JoinCase{0, 50, 10, 0, 3, 29}),      // empty left
    PrintCase);

}  // namespace
}  // namespace strata::spe
